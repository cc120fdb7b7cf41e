#include "engine_layers.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/simple_kde.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "kde/kernel.h"
#include "kde/naive_kde.h"
#include "kde/soa_matrix.h"
#include "stats.h"
#include "tkdc/threshold.h"

namespace perfbench {
namespace {

using tkdc::Classification;
using tkdc::Dataset;

// Keeps timed kernel sums observable so the compiler cannot drop them.
volatile double g_sink = 0.0;

// Kernel evaluations one timed span covers at least: keeps every timed
// interval well above 10 us, where single-call timings stop being noise.
constexpr size_t kMinEvalsPerSpan = 20000;
constexpr int kRepeats = 3;

double MedianMs(const Tracer& tracer, const char* name) {
  return Median(tracer.DurationsUs(name)) / 1e3;
}

double TotalUs(const Tracer& tracer, const char* name) {
  const std::vector<double> durations = tracer.DurationsUs(name);
  double total = 0.0;
  for (double d : durations) total += d;
  return total;
}

}  // namespace

LabelCheck CheckAgainstExactScan(const Dataset& train,
                                 const tkdc::TkdcClassifier& classifier,
                                 const Dataset& points,
                                 const std::vector<Classification>& labels,
                                 bool training, size_t sample) {
  const tkdc::NaiveKde exact(train, classifier.kernel());
  const double t = classifier.threshold();
  // Purely relative: at d=27 every density is far below any absolute
  // floor, and a threshold of exactly 0 (the degenerate high-d case) must
  // still label every positive density HIGH.
  const double band = classifier.config().epsilon * t;
  LabelCheck check;
  const size_t count = std::min(sample, points.size());
  for (size_t k = 0; k < count; ++k) {
    const size_t row = k * points.size() / count;
    const double f = training ? exact.TrainingDensity(row)
                              : exact.Density(points.Row(row));
    if (std::fabs(f - t) <= band) continue;
    ++check.checked;
    if ((labels[row] == Classification::kHigh) == (f > t)) ++check.agreed;
  }
  return check;
}

double MeasureEngineLayers(const EngineInputs& inputs, Tracer& tracer,
                           Report& report) {
  const Dataset& train = *inputs.train;
  const Dataset& queries = *inputs.queries;
  const tkdc::TkdcConfig& config = inputs.config;
  const size_t n = train.size();
  const size_t m = queries.size();

  // index: the build Train() performs, with Train()'s bandwidths.
  const tkdc::Kernel kernel(
      config.kernel, tkdc::SelectBandwidths(config.bandwidth_rule, train,
                                            config.bandwidth_scale));
  std::unique_ptr<const tkdc::SpatialIndex> tree;
  for (int rep = 0; rep < kRepeats; ++rep) {
    ScopedSpan span(tracer, "index.build");
    tree = tkdc::BuildIndex(
        train, config.MakeIndexOptions(kernel.inverse_bandwidths()));
  }
  const double index_ms = MedianMs(tracer, "index.build");
  report.Add("index.build_ms", index_ms, "ms");

  // tkdc train: the Algorithm 3 bootstrap alone, then the whole Train();
  // what remains of Train() is the Phase 3 density pass.
  tkdc::ThresholdBootstrapResult bootstrap;
  {
    ScopedSpan span(tracer, "tkdc.bootstrap");
    tkdc::ThresholdEstimator estimator(&config);
    bootstrap = estimator.Bootstrap(train, *tree, kernel);
  }
  tkdc::TkdcClassifier classifier(config);
  {
    ScopedSpan span(tracer, "tkdc.train");
    classifier.Train(train);
  }
  const double bootstrap_ms = MedianMs(tracer, "tkdc.bootstrap");
  const double train_ms = MedianMs(tracer, "tkdc.train");
  report.Add("tkdc.bootstrap_ms", bootstrap_ms, "ms");
  report.Add("tkdc.bootstrap_kernel_evals",
             static_cast<double>(bootstrap.stats.kernel_evaluations), "count");
  report.Add("tkdc.density_pass_ms",
             std::max(0.0, train_ms - index_ms - bootstrap_ms), "ms");
  report.Add(
      "tkdc.density_pass_kernel_evals",
      static_cast<double>(classifier.training_stats().kernel_evaluations),
      "count");
  report.Add("tkdc.threshold_band_ratio",
             classifier.threshold_upper() > 0.0
                 ? classifier.threshold_lower() / classifier.threshold_upper()
                 : 0.0,
             "ratio");

  // tkdc query: one serial pass without per-query spans (the timing), one
  // with a span per query (the tracing cost, visible as the pass's self
  // time), counters from the first.
  std::vector<Classification> labels(m);
  const tkdc::TraversalStats before = classifier.query_stats();
  const uint64_t grid_before = classifier.grid_prunes();
  {
    ScopedSpan span(tracer, "tkdc.serial_pass");
    for (size_t i = 0; i < m; ++i) {
      labels[i] = classifier.Classify(queries.Row(i));
    }
  }
  tkdc::TraversalStats work = classifier.query_stats();
  const uint64_t grid_hits = classifier.grid_prunes() - grid_before;
  work.kernel_evaluations -= before.kernel_evaluations;
  work.nodes_expanded -= before.nodes_expanded;
  work.leaf_points_evaluated -= before.leaf_points_evaluated;
  {
    ScopedSpan pass(tracer, "bench.traced_pass");
    for (size_t i = 0; i < m; ++i) {
      ScopedSpan span(tracer, "tkdc.query", pass.index(), i + 1);
      labels[i] = classifier.Classify(queries.Row(i));
    }
  }
  const double md = static_cast<double>(m);
  const double serial_us_per_q = TotalUs(tracer, "tkdc.serial_pass") / md;
  const double evals_per_q = static_cast<double>(work.kernel_evaluations) / md;
  report.Add("tkdc.kernel_evals_per_q", evals_per_q, "count");
  report.Add("tkdc.nodes_per_q", static_cast<double>(work.nodes_expanded) / md,
             "count");
  report.Add("tkdc.scan_ratio", evals_per_q / static_cast<double>(n), "ratio");
  report.Add("tkdc.grid_hit_fraction", static_cast<double>(grid_hits) / md,
             "fraction");
  report.Add("tkdc.serial_us_per_q", serial_us_per_q, "us");

  const LabelCheck check =
      CheckAgainstExactScan(train, classifier, queries, labels, false, 200);
  report.Phase("engine.exact_check", check.checked, check.agreed);
  if (check.agreed != check.checked) {
    report.Fail("tkdc labels differ from the exact scan outside the band");
  }

  // kde leaf: the SIMD kernel sum over SoA blocks at this d.
  const tkdc::SoaMatrix soa(train);
  const size_t calls = (kMinEvalsPerSpan + n - 1) / n;
  for (int block = 0; block < 30; ++block) {
    const double* x = queries.Row(static_cast<size_t>(block) % m).data();
    ScopedSpan span(tracer, "kde.leaf_scan");
    double sum = 0.0;
    for (size_t c = 0; c < calls; ++c) {
      sum += soa.KernelSum(x, kernel.inverse_bandwidths().data(),
                           kernel.type(), kernel.norm(),
                           config.fast_math_leaf);
    }
    g_sink = g_sink + sum;
  }
  report.Add("kde.leaf_ns_per_eval",
             MedianMs(tracer, "kde.leaf_scan") * 1e6 /
                 static_cast<double>(calls * n),
             "ns");
  report.Add("kde.leaf_eval_share",
             work.kernel_evaluations > 0
                 ? static_cast<double>(work.leaf_points_evaluated) /
                       static_cast<double>(work.kernel_evaluations)
                 : 0.0,
             "fraction");

  // kde batch executor: serial vs min(4, cores) threads; then the delta
  // overlay fold at the workload's fill, against the serial batch.
  const size_t threads = LoadThreads();
  const tkdc::DeltaOverlay empty_overlay(train.dims(), 1);
  const tkdc::DeltaOverlay& overlay =
      inputs.overlay != nullptr ? *inputs.overlay : empty_overlay;
  for (int rep = 0; rep < kRepeats; ++rep) {
    classifier.SetNumThreads(1);
    {
      ScopedSpan span(tracer, "kde.batch_serial");
      classifier.ClassifyBatch(queries);
    }
    {
      ScopedSpan span(tracer, "kde.classify_batch_overlay");
      classifier.ClassifyBatchWithOverlay(queries, overlay);
    }
    classifier.SetNumThreads(threads);
    {
      ScopedSpan span(tracer, "kde.batch_parallel");
      classifier.ClassifyBatch(queries);
    }
  }
  classifier.SetNumThreads(1);
  const double serial_ms = MedianMs(tracer, "kde.batch_serial");
  report.Add("kde.batch_parallel_efficiency",
             serial_ms / MedianMs(tracer, "kde.batch_parallel") /
                 static_cast<double>(threads),
             "ratio");
  report.Add("kde.overlay_classify_ratio",
             MedianMs(tracer, "kde.classify_batch_overlay") / serial_ms,
             "ratio");

  // baselines: the exact scan ("simple") per query, and tkdc's speedup
  // over it (the paper's Figure 7 ratio).
  tkdc::SimpleKdeOptions simple_options;
  simple_options.p = config.p;
  simple_options.bandwidth_scale = config.bandwidth_scale;
  simple_options.kernel = config.kernel;
  simple_options.bandwidth_rule = config.bandwidth_rule;
  simple_options.seed = config.seed;
  tkdc::SimpleKdeClassifier simple(simple_options);
  simple.SetNumThreads(1);
  simple.Train(train);
  const size_t simple_calls = (kMinEvalsPerSpan + n - 1) / n;
  for (int block = 0; block < 30; ++block) {
    ScopedSpan span(tracer, "baselines.simple_query");
    for (size_t c = 0; c < simple_calls; ++c) {
      const size_t row = (static_cast<size_t>(block) * simple_calls + c) % m;
      simple.Classify(queries.Row(row));
    }
  }
  const double simple_us =
      Median(tracer.DurationsUs("baselines.simple_query")) /
      static_cast<double>(simple_calls);
  report.Add("baselines.simple_query_ms", simple_us / 1e3, "ms");
  report.Add("tkdc.speedup_vs_simple", simple_us / serial_us_per_q, "ratio");
  return TotalUs(tracer, "bench.traced_pass") /
         TotalUs(tracer, "tkdc.serial_pass");
}

}  // namespace perfbench
