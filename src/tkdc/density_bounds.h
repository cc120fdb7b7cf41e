#ifndef TKDC_TKDC_DENSITY_BOUNDS_H_
#define TKDC_TKDC_DENSITY_BOUNDS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/spatial_index.h"
#include "kde/kernel.h"
#include "kde/query_context.h"
#include "tkdc/config.h"
#include "tkdc/traversal_trace.h"

namespace tkdc {

/// Certified interval [lower, upper] containing the exact kernel density
/// f(x) (up to floating-point round-off).
struct DensityBounds {
  double lower = 0.0;
  double upper = 0.0;

  double Midpoint() const { return 0.5 * (lower + upper); }
  double Width() const { return upper - lower; }
};

/// One frontier node of the best-first traversal: the Eq. 6 contribution
/// interval of a reference-tree node, prioritized by its bound discrepancy
/// count * (K(d_min) - K(d_max)) (the paper's Section 3.4 heuristic).
struct TraversalQueueEntry {
  double priority;
  uint32_t node;
  double min_contribution;
  double max_contribution;

  bool operator<(const TraversalQueueEntry& other) const {
    return priority < other.priority;
  }
};

/// Query context for tree-traversal engines (tKDC, nocut, rkde): the
/// traversal heap is the scratch buffer. Reused across queries: cleared,
/// never shrunk, so per-query heap allocations vanish after warm-up —
/// serial or parallel, each thread warms its own.
class TreeQueryContext : public QueryContext {
 public:
  TreeQueryContext() {
    // Pre-size so even the first queries run allocation-free; 2 entries per
    // level of a balanced tree plus slack covers typical frontiers.
    queue.reserve(64);
    neighbors.reserve(64);
  }

  /// Binary heap via std::push/pop_heap (the point traversal).
  std::vector<TraversalQueueEntry> queue;
  /// Range-query hit list (rkde's radial neighbor collection).
  std::vector<size_t> neighbors;
  /// Opt-in single-query trace capture (diagnostics/tests only); the
  /// evaluator records every expansion into it when non-null. Borrowed, not
  /// owned: the caller scopes the tracer around the queries of interest.
  TraversalTracer* tracer = nullptr;
  /// Why the most recent point traversal stopped. Written by every
  /// BoundDensity* call, so the engine (and the metrics layer) can
  /// attribute the stop without re-deriving the rule from the bounds.
  CutoffReason last_cutoff = CutoffReason::kNone;
};

/// The paper's Algorithm 2 (BoundDensity): iteratively refines upper and
/// lower bounds on the kernel density of a query point by traversing a k-d
/// tree with a priority queue, stopping as soon as a pruning rule fires:
///
///   Threshold rule (Eq. 9):  f_l > t_hi * (1 + eps)  or
///                            f_u < t_lo * (1 - eps)
///   Tolerance rule (Eq. 8):  f_u - f_l < eps * t_lo
///
/// With both rules disabled the traversal exhausts the tree and the bounds
/// collapse to the exact density.
///
/// The evaluator traverses any SpatialIndex backend through the common
/// node API; when a node is expanded, each child's contribution interval
/// is clamped by its parent's (a child's points are a subset of the
/// parent's, so the parent's per-point kernel bounds stay valid for them).
/// For the k-d tree this is a no-op — child boxes nest inside parent boxes
/// — but ball-tree child balls can poke outside the parent ball, and the
/// clamp is what guarantees the bounds tighten monotonically at every
/// expansion for every backend.
///
/// The evaluator is a *stateless query engine*: it borrows the immutable
/// tree, kernel, and config (all three must outlive it), caches the
/// kernel's resolved radial profile, and keeps no per-query state — every
/// method is const and threads a TreeQueryContext carrying the traversal
/// heap and the work counters. One evaluator can therefore serve any
/// number of threads concurrently, each with its own context.
class DensityBoundEvaluator {
 public:
  DensityBoundEvaluator() = default;
  DensityBoundEvaluator(const SpatialIndex* tree, const Kernel* kernel,
                        const TkdcConfig* config);

  /// Bounds the density of `x` given current threshold bounds
  /// [t_lo, t_hi]. Pass t_lo = 0 and t_hi = +infinity to disable the
  /// threshold rule's effect regardless of configuration.
  ///
  /// `tolerance` is the absolute width target of the tolerance rule; when
  /// negative it defaults to the paper's eps * t_lo. Classifying *training*
  /// points passes shifted thresholds t + K(0)/n (to account for the
  /// self-contribution) but keeps the tolerance at eps * t, so the
  /// precision guarantee stays eps * t in self-corrected units even when
  /// K(0)/n dominates t (small n and/or higher d).
  DensityBounds BoundDensity(TreeQueryContext& ctx, std::span<const double> x,
                             double t_lo, double t_hi,
                             double tolerance = -1.0) const;

  /// Bounds the *affinely transformed* density g(x) = scale * f(x) + offset
  /// with the pruning rules evaluated in g-units: the traversal stops as
  /// soon as g_lo > t_hi * (1 + eps), g_hi < t_lo * (1 - eps), or
  /// g_hi - g_lo < tolerance, and the returned interval bounds g(x).
  ///
  /// This is the streaming-overlay fold (kde/delta_overlay.h): with n_b
  /// base points, a staged overlay of `ins` inserts and `tomb` tombstones,
  /// and Delta(x) their exact signed kernel sum, the merged density is
  /// g(x) = (n_b * f(x) + Delta(x)) / n_eff — i.e. scale = n_b / n_eff and
  /// offset = Delta(x) / n_eff. The cutoffs are remapped into base-space
  /// thresholds so the unmodified traversal decides exactly the g-space
  /// rules; when offset alone clears the high cut the remapped threshold
  /// goes negative and the threshold rule fires before any expansion.
  ///
  /// `scale` must be positive; `tolerance` is the absolute g-space width
  /// target and must be >= 0 (there is no -1 default here: the caller
  /// knows which space its epsilon band lives in).
  DensityBounds BoundDensityAffine(TreeQueryContext& ctx,
                                   std::span<const double> x, double scale,
                                   double offset, double t_lo, double t_hi,
                                   double tolerance) const;

  /// Starts an *incremental* point refinement: seeds `ctx.queue` with the
  /// root's Eq. 6 contribution interval and returns it. Unlike
  /// BoundDensity, no pruning rule runs and no query is counted — the
  /// caller owns the refinement loop and decides what constitutes a query.
  /// The refinement state is the pair (ctx.queue, returned bounds); both
  /// must be threaded unchanged into RefinePointBounds. This is the
  /// building block of the multi-class round-robin loop (tkdc/multiclass.h),
  /// which interleaves budgeted refinement steps across several trees.
  DensityBounds SeedPointRefinement(TreeQueryContext& ctx,
                                    std::span<const double> x) const;

  /// Expands up to `max_expansions` best-first nodes of a refinement
  /// started by SeedPointRefinement on the same context and query point,
  /// and returns the tightened bounds (monotone at every expansion thanks
  /// to the parent clamp; negative budget means unbounded). Sets
  /// ctx.last_cutoff to kExactLeaf when the queue drained — the bounds are
  /// now exact — or kExpansionBudget when the budget ran out first. The
  /// threshold/tolerance rules deliberately do not apply: cross-class
  /// cutoffs live in the caller, which compares bounds *between* trees.
  DensityBounds RefinePointBounds(TreeQueryContext& ctx,
                                  std::span<const double> x,
                                  DensityBounds current,
                                  int64_t max_expansions) const;

  const SpatialIndex* tree() const { return tree_; }
  const Kernel* kernel() const { return kernel_; }

 private:
  /// Computes the Eq. 6 contribution bounds of node `node_index` for
  /// query x, counting two kernel evaluations into `ctx`.
  TraversalQueueEntry MakeEntry(TreeQueryContext& ctx,
                                std::span<const double> x,
                                uint32_t node_index) const;

  /// Shared refinement loop for point queries; `ctx.queue`, `f_lo`, `f_hi`
  /// must already be seeded with a disjoint cover of the training set.
  DensityBounds RunPointTraversal(TreeQueryContext& ctx,
                                  std::span<const double> x, double t_lo,
                                  double t_hi, double tolerance, double f_lo,
                                  double f_hi) const;

  /// Pops the top queue entry and replaces its interval with its children's
  /// (or the exact leaf sum), updating `*f_lo` / `*f_hi` in place — the
  /// single expansion step shared by RunPointTraversal and
  /// RefinePointBounds. The queue must be non-empty.
  void ExpandTop(TreeQueryContext& ctx, std::span<const double> x,
                 double* f_lo, double* f_hi) const;

  const SpatialIndex* tree_ = nullptr;
  const Kernel* kernel_ = nullptr;
  const TkdcConfig* config_ = nullptr;
  // Traversal share of the resolved error budget (tkdc/error_budget.h):
  // the epsilon the pruning rules are allowed to spend. Equals
  // config->epsilon when compression and fast-math are off.
  double eps_traversal_ = 0.0;
  double inv_n_ = 0.0;
  // Hot-loop dispatch hoisted once (see Kernel::scaled_profile()).
  Kernel::ScaledProfileFn profile_ = nullptr;
  double norm_ = 0.0;
  // Leaf-sum parameters for the vectorized SoA path (kde/kernel_simd.h).
  KernelType type_ = KernelType::kGaussian;
  bool fast_math_ = false;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_DENSITY_BOUNDS_H_
