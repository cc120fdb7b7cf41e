#include "tkdc/density_bounds.h"

#include <algorithm>

#include "common/macros.h"
#include "kde/kernel_simd.h"
#include "kde/query_metrics.h"

namespace tkdc {
namespace {

// Clamps a child entry's contribution interval by its parent's, scaled to
// the child's share of the parent's points. Sound because the child's
// points are a subset of the parent's, so the parent's per-point kernel
// bounds apply to them too. A no-op for nesting geometries (k-d boxes);
// for ball trees — whose child balls can extend outside the parent ball —
// this is what makes f_lo/f_hi tighten monotonically at every expansion.
void ClampByParent(TraversalQueueEntry& child,
                   const TraversalQueueEntry& parent, double count_ratio) {
  const double floor = parent.min_contribution * count_ratio;
  const double ceiling = parent.max_contribution * count_ratio;
  if (child.min_contribution < floor) child.min_contribution = floor;
  if (child.max_contribution > ceiling) child.max_contribution = ceiling;
  if (child.max_contribution < child.min_contribution) {
    child.max_contribution = child.min_contribution;  // Round-off guard.
  }
  child.priority = child.max_contribution - child.min_contribution;
}

}  // namespace

DensityBoundEvaluator::DensityBoundEvaluator(const SpatialIndex* tree,
                                             const Kernel* kernel,
                                             const TkdcConfig* config)
    : tree_(tree),
      kernel_(kernel),
      config_(config),
      profile_(kernel->scaled_profile()),
      norm_(kernel->norm()),
      type_(kernel->type()),
      fast_math_(config->fast_math_leaf) {
  TKDC_CHECK(tree != nullptr && kernel != nullptr && config != nullptr);
  TKDC_CHECK(tree->dims() == kernel->dims());
  eps_traversal_ = config->ResolveBudget().traversal;
  inv_n_ = 1.0 / static_cast<double>(tree->size());
}

TraversalQueueEntry DensityBoundEvaluator::MakeEntry(
    TreeQueryContext& ctx, std::span<const double> x,
    uint32_t node_index) const {
  const IndexNode& node = tree_->node(node_index);
  const auto inv_bw = std::span<const double>(kernel_->inverse_bandwidths());
  double z_min = 0.0;
  double z_max = 0.0;
  tree_->NodeScaledSquaredDistanceBounds(node_index, x, inv_bw, &z_min,
                                         &z_max);
  const double weight = static_cast<double>(node.count()) * inv_n_;
  TraversalQueueEntry entry;
  entry.node = node_index;
  // Closest possible point gives the max contribution, farthest the min.
  entry.max_contribution = weight * profile_(z_min, norm_);
  entry.min_contribution = weight * profile_(z_max, norm_);
  entry.priority = entry.max_contribution - entry.min_contribution;
  ctx.stats.kernel_evaluations += 2;
  return entry;
}

DensityBounds DensityBoundEvaluator::BoundDensity(TreeQueryContext& ctx,
                                                  std::span<const double> x,
                                                  double t_lo, double t_hi,
                                                  double tolerance) const {
  TKDC_DCHECK(x.size() == tree_->dims());
  ++ctx.stats.queries;
  ctx.queue.clear();

  TraversalQueueEntry root =
      MakeEntry(ctx, x, static_cast<uint32_t>(SpatialIndex::kRoot));
  double f_lo = root.min_contribution;
  double f_hi = root.max_contribution;
  ctx.queue.push_back(root);
  return RunPointTraversal(ctx, x, t_lo, t_hi, tolerance, f_lo, f_hi);
}

DensityBounds DensityBoundEvaluator::BoundDensityAffine(
    TreeQueryContext& ctx, std::span<const double> x, double scale,
    double offset, double t_lo, double t_hi, double tolerance) const {
  TKDC_DCHECK(scale > 0.0);
  TKDC_DCHECK(tolerance >= 0.0);
  const double eps = eps_traversal_;
  const double inv_scale = 1.0 / scale;
  // Base-space thresholds chosen so the traversal's g-space rules match:
  //   scale * f_lo + offset > t_hi * (1 + eps)
  //     <=>  f_lo > t_hi_base * (1 + eps)
  // and symmetrically for the low cut. A negative remapped threshold is
  // meaningful: f_lo >= 0 always beats it, so the rule fires immediately
  // (offset alone already decides the query); the low cut can never fire
  // against a negative bound, which is exactly the conservative behavior.
  const double t_hi_base =
      (t_hi * (1.0 + eps) - offset) * inv_scale / (1.0 + eps);
  double t_lo_base = 0.0;
  if (eps < 1.0) {
    t_lo_base = (t_lo * (1.0 - eps) - offset) * inv_scale / (1.0 - eps);
  }
  const DensityBounds base =
      BoundDensity(ctx, x, t_lo_base, t_hi_base, tolerance * inv_scale);
  double g_lo = scale * base.lower + offset;
  double g_hi = scale * base.upper + offset;
  // A tombstone-heavy offset can push the lower edge below zero even
  // though the merged density is a genuine density; clamp like the base
  // traversal does.
  if (g_lo < 0.0) g_lo = 0.0;
  if (g_hi < g_lo) g_hi = g_lo;
  return DensityBounds{g_lo, g_hi};
}

void DensityBoundEvaluator::ExpandTop(TreeQueryContext& ctx,
                                      std::span<const double> x, double* f_lo,
                                      double* f_hi) const {
  auto& queue = ctx.queue;
  const auto inv_bw = std::span<const double>(kernel_->inverse_bandwidths());

  // Child entry from precomputed Eq. 6 distance bounds — MakeEntry minus
  // the per-node bound call, fed by the batched two-children pass below.
  auto child_entry = [&](int32_t child, double z_min, double z_max) {
    const IndexNode& child_node = tree_->node(static_cast<size_t>(child));
    const double weight = static_cast<double>(child_node.count()) * inv_n_;
    TraversalQueueEntry entry;
    entry.node = static_cast<uint32_t>(child);
    entry.max_contribution = weight * profile_(z_min, norm_);
    entry.min_contribution = weight * profile_(z_max, norm_);
    entry.priority = entry.max_contribution - entry.min_contribution;
    return entry;
  };

  std::pop_heap(queue.begin(), queue.end());
  const TraversalQueueEntry current = queue.back();
  queue.pop_back();
  ++ctx.stats.nodes_expanded;

  // Replace this node's coarse interval with its children's (or its exact
  // leaf sum): same mass, tighter constraint (Figure 4).
  *f_lo -= current.min_contribution;
  *f_hi -= current.max_contribution;

  const IndexNode& node = tree_->node(current.node);
  if (node.is_leaf()) {
    // Vectorized SoA leaf sum (kde/kernel_simd.h): the kernel evaluations
    // run one point per SIMD lane, bit-identical across backends in the
    // default mode (fast_math_ swaps the Gaussian exp for a vectorized
    // polynomial inside the --fast-math-leaf epsilon band).
    const SpatialIndex::SoaLeaf leaf = tree_->LeafSoa(current.node);
    double exact =
        simd::SoaKernelSum(leaf.block, leaf.padded, leaf.count, tree_->dims(),
                           x.data(), inv_bw.data(), type_, norm_, fast_math_);
    ctx.stats.kernel_evaluations += node.count();
    ctx.stats.leaf_points_evaluated += node.count();
    exact *= inv_n_;
    *f_lo += exact;
    *f_hi += exact;
  } else {
    // Both children's Eq. 6 distance bounds in one batched pass (one
    // vector lane per bound — bit-identical to two per-child calls, see
    // common/simd.h), then the same contribution/clamp math as MakeEntry.
    double zb[4] = {0.0, 0.0, 0.0, 0.0};
    tree_->NodeChildrenScaledSquaredDistanceBounds(current.node, x, inv_bw,
                                                   zb);
    TraversalQueueEntry left = child_entry(node.left, zb[0], zb[1]);
    TraversalQueueEntry right = child_entry(node.right, zb[2], zb[3]);
    ctx.stats.kernel_evaluations += 4;
    const double inv_parent_count = 1.0 / static_cast<double>(node.count());
    ClampByParent(left, current,
                  static_cast<double>(tree_->node(node.left).count()) *
                      inv_parent_count);
    ClampByParent(right, current,
                  static_cast<double>(tree_->node(node.right).count()) *
                      inv_parent_count);
    *f_lo += left.min_contribution + right.min_contribution;
    *f_hi += left.max_contribution + right.max_contribution;
    queue.push_back(left);
    std::push_heap(queue.begin(), queue.end());
    queue.push_back(right);
    std::push_heap(queue.begin(), queue.end());
  }
  if (ctx.tracer != nullptr) {
    ctx.tracer->Expand(current.node, node.is_leaf(),
                       node.is_leaf() ? static_cast<uint32_t>(node.count())
                                      : 0u,
                       *f_lo, *f_hi);
  }
}

DensityBounds DensityBoundEvaluator::SeedPointRefinement(
    TreeQueryContext& ctx, std::span<const double> x) const {
  TKDC_DCHECK(x.size() == tree_->dims());
  ctx.queue.clear();
  TraversalQueueEntry root =
      MakeEntry(ctx, x, static_cast<uint32_t>(SpatialIndex::kRoot));
  ctx.queue.push_back(root);
  // Nothing has been expanded yet; the refinement is "paused on budget".
  ctx.last_cutoff = CutoffReason::kExpansionBudget;
  return DensityBounds{root.min_contribution, root.max_contribution};
}

DensityBounds DensityBoundEvaluator::RefinePointBounds(
    TreeQueryContext& ctx, std::span<const double> x, DensityBounds current,
    int64_t max_expansions) const {
  double f_lo = current.lower;
  double f_hi = current.upper;
  ctx.last_cutoff = CutoffReason::kExactLeaf;
  while (!ctx.queue.empty()) {
    if (max_expansions >= 0 && max_expansions-- == 0) {
      ctx.last_cutoff = CutoffReason::kExpansionBudget;
      break;
    }
    ExpandTop(ctx, x, &f_lo, &f_hi);
  }
  // The same round-off guards as the full traversal; clamping the lower
  // edge up to 0 stays a valid lower bound (densities are non-negative),
  // so carrying the clamped interval into the next step is sound.
  if (f_lo < 0.0) f_lo = 0.0;
  if (f_hi < f_lo) f_hi = f_lo;
  return DensityBounds{f_lo, f_hi};
}

DensityBounds DensityBoundEvaluator::RunPointTraversal(
    TreeQueryContext& ctx, std::span<const double> x, double t_lo, double t_hi,
    double tolerance, double f_lo, double f_hi) const {
  auto& queue = ctx.queue;
  const double eps = eps_traversal_;
  const double high_cut = t_hi * (1.0 + eps);  // Threshold rule, Eq. 9.
  const double low_cut = t_lo * (1.0 - eps);
  if (tolerance < 0.0) tolerance = eps * t_lo;  // Tolerance rule, Eq. 8.

  if (ctx.tracer != nullptr) {
    const uint32_t seed = queue.empty() ? 0u : queue.front().node;
    ctx.tracer->Begin(seed, f_lo, f_hi);
  }

  // Falling out of the loop means the queue drained: every node was
  // expanded down to exact leaf sums, so the bounds are exact.
  ctx.last_cutoff = CutoffReason::kExactLeaf;
  while (!queue.empty()) {
    if (config_->use_threshold_rule && f_lo > high_cut) {
      ctx.last_cutoff = CutoffReason::kLowerAboveThreshold;
      break;
    }
    if (config_->use_threshold_rule && f_hi < low_cut) {
      ctx.last_cutoff = CutoffReason::kUpperBelowThreshold;
      break;
    }
    if (config_->use_tolerance_rule && f_hi - f_lo < tolerance) {
      ctx.last_cutoff = CutoffReason::kTolerance;
      break;
    }

    ExpandTop(ctx, x, &f_lo, &f_hi);
  }
  if (ctx.tracer != nullptr) ctx.tracer->Finish(ctx.last_cutoff);
  if (ctx.metrics != nullptr) {
    MetricsShard& m = *ctx.metrics;
    switch (ctx.last_cutoff) {
      case CutoffReason::kLowerAboveThreshold:
        m.Inc(query_metrics::kCutoffLowerAboveThreshold);
        break;
      case CutoffReason::kUpperBelowThreshold:
        m.Inc(query_metrics::kCutoffUpperBelowThreshold);
        break;
      case CutoffReason::kTolerance:
        m.Inc(query_metrics::kCutoffTolerance);
        break;
      default:
        m.Inc(query_metrics::kCutoffExactLeaf);
        break;
    }
    // Relative gap in units of the lower threshold when one exists,
    // absolute width otherwise (unbounded EstimateDensity calls).
    const double width = f_hi - f_lo;
    m.Observe(query_metrics::kBoundGap,
              t_lo > 0.0 ? width / t_lo : width);
  }

  // Guard against round-off drift from the repeated add/subtract.
  if (f_lo < 0.0) f_lo = 0.0;
  if (f_hi < f_lo) f_hi = f_lo;
  return DensityBounds{f_lo, f_hi};
}

}  // namespace tkdc
