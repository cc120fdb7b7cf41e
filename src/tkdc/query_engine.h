#ifndef TKDC_TKDC_QUERY_ENGINE_H_
#define TKDC_TKDC_QUERY_ENGINE_H_

#include <span>

#include "kde/density_classifier.h"
#include "tkdc/density_bounds.h"
#include "tkdc/model.h"

namespace tkdc {

/// The stateless query side of tKDC: holds only a const pointer to an
/// immutable TkdcModel (which must outlive it) plus the bound evaluator
/// over the model's tree/kernel/config. Every method is const and threads
/// a caller-owned TreeQueryContext, so a single engine serves any number
/// of threads concurrently — the per-thread scratch and counters live in
/// the contexts, never here.
class TkdcQueryEngine {
 public:
  TkdcQueryEngine() = default;
  /// `model` needs its index side (kernel/tree/grid/self_contribution)
  /// built; the threshold fields may still be pending — only Classify()
  /// and EstimateDensity() read them.
  explicit TkdcQueryEngine(const TkdcModel* model);

  bool valid() const { return model_ != nullptr; }
  const TkdcModel& model() const { return *model_; }

  /// The Classify() kernel of Algorithm 1: grid probe, then BoundDensity
  /// against the trained threshold. `training` selects the self-corrected
  /// comparison — the pruning band shifts by K(0)/n while the tolerance
  /// target stays eps * t in corrected units.
  Classification Classify(TreeQueryContext& ctx, std::span<const double> x,
                          bool training) const;

  /// One training row of the Phase 3 pass (Dx of Algorithm 1) under
  /// quantile bounds [lo, hi] in self-corrected space. `grid_cut` is the
  /// certified-above-the-band cut hi * (1 + eps); grid hits bump
  /// ctx.grid_prunes and skip the traversal.
  double TrainingDensity(TreeQueryContext& ctx, std::span<const double> x,
                         double lo, double hi, double grid_cut,
                         double tolerance) const;

  /// Midpoint density estimate at the trained threshold band.
  double EstimateDensity(TreeQueryContext& ctx,
                         std::span<const double> x) const;

  /// Classify() against the merged model base + overlay: folds the
  /// overlay's exact signed kernel sum into the pruning bounds via
  /// BoundDensityAffine, so the traversal still stops on the Eq. 8-9 rules
  /// — now exact for the merged density — at any staged buffer size. The
  /// decision threshold stays the trained t~(p); the serving layer tracks
  /// how far the streamed distribution has drifted from it through the
  /// online estimator's widening band (tkdc/threshold.h).
  Classification ClassifyOverlay(TreeQueryContext& ctx,
                                 std::span<const double> x, bool training,
                                 const DeltaOverlay& overlay) const;

  /// Midpoint estimate of the merged density base + overlay.
  double EstimateDensityOverlay(TreeQueryContext& ctx,
                                std::span<const double> x,
                                const DeltaOverlay& overlay) const;

  /// Raw density bounds for a query point (diagnostics and the bootstrap
  /// driver go through the evaluator directly).
  const DensityBoundEvaluator& evaluator() const { return evaluator_; }

 private:
  const TkdcModel* model_ = nullptr;
  DensityBoundEvaluator evaluator_;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_QUERY_ENGINE_H_
