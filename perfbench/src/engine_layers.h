#ifndef PERFBENCH_ENGINE_LAYERS_H_
#define PERFBENCH_ENGINE_LAYERS_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "kde/delta_overlay.h"
#include "report.h"
#include "tkdc/classifier.h"
#include "tkdc/config.h"
#include "trace.h"

namespace perfbench {

/// The inputs the engine layers are measured on: a workload's training
/// set, its held-out queries, the config it trains with, and the delta
/// overlay fill its queries fold (empty when the workload does not
/// stream).
struct EngineInputs {
  const tkdc::Dataset* train = nullptr;
  const tkdc::Dataset* queries = nullptr;
  tkdc::TkdcConfig config;
  const tkdc::DeltaOverlay* overlay = nullptr;
};

/// Traced pass over the index, tkdc (train and query), kde and baselines
/// layers: calls each layer's public entry points inside spans and adds
/// the index.*, tkdc.*, kde.* and baselines.* per-layer metrics. Labels
/// of the serial query pass are checked against the exact scan outside
/// the epsilon band. Returns the tracing overhead of that pass: its time
/// with a span per query over its time without.
double MeasureEngineLayers(const EngineInputs& inputs, Tracer& tracer,
                           Report& report);

/// Outcome of comparing tkdc labels with the exact scan.
struct LabelCheck {
  size_t checked = 0;
  size_t agreed = 0;
  double agreement() const {
    return checked == 0 ? 1.0
                        : static_cast<double>(agreed) /
                              static_cast<double>(checked);
  }
};

/// Compares `labels` (tkdc's label of each row of `points`) with labels
/// from the exact NaiveKde density over `train`, on `sample` evenly spaced
/// rows. Rows whose exact density lies within epsilon * t of the trained
/// threshold t are skipped: the tolerance rule may label them either way.
/// `training` compares self-corrected densities; `points` is then the
/// training set itself.
LabelCheck CheckAgainstExactScan(
    const tkdc::Dataset& train, const tkdc::TkdcClassifier& classifier,
    const tkdc::Dataset& points,
    const std::vector<tkdc::Classification>& labels, bool training,
    size_t sample);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_LAYERS_H_
