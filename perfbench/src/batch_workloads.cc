// The batch workloads: train one tkdc model on a dataset proxy, classify
// the whole training set with it (the paper's outlier-detection workload,
// Section 4.1), and classify held-out points one call at a time. The
// engine runs on one thread, the calling one, and never blocks, so every
// timing here reads that thread's CPU clock: its wall time without the
// intervals a shared host gave this vCPU to other guests.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "engine_layers.h"
#include "stats.h"
#include "tkdc_api.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tkdc::Classification;
using tkdc::Dataset;

struct BatchSpec {
  const char* name;
  tkdc::DatasetId dataset;
  /// Training rows and held-out query rows.
  size_t n;
  size_t held_out;
  /// Grid cache dimension cap (TkdcConfig::grid_max_dims).
  size_t grid_max_dims;
  /// Per 10 s of --seconds: Train() repetitions (setup_s is their
  /// median), ClassifyTrainingBatch rounds over all n rows, and
  /// single-call passes over the held-out rows (spread over the rounds).
  size_t setups;
  size_t classify_rounds;
  size_t latency_passes;
  /// Consecutive Classify calls one latency sample times, so no sample is
  /// a sub-10-us single call.
  size_t calls_per_sample;
  /// Rows of each kind compared with the exact scan.
  size_t exact_sample;
};

// batch-tmy3: d=8, where pruning works; the grid is allowed up to d=8 so
// the grid layer takes part. batch-gauss2d: the paper's d=2 Gaussian,
// where the grid answers most queries and a query costs about a
// microsecond, so each latency sample times 32 consecutive calls.
// batch-hep: d=27, where the bootstrap drives t_lo to 0 and tkdc does
// more work than the exact scan.
constexpr BatchSpec kSpecs[] = {
    {"batch-tmy3", tkdc::DatasetId::kTmy3, 20000, 2000, 8, 2, 9, 45, 4, 400},
    {"batch-gauss2d", tkdc::DatasetId::kGauss, 200000, 20000, 4, 2, 24, 120, 32,
     400},
    {"batch-hep", tkdc::DatasetId::kHep, 4000, 500, 4, 2, 8, 100, 1, 400},
};

constexpr uint64_t kPopulationSeed = 42;

}  // namespace

size_t ScaledCount(size_t per_10s, int seconds) {
  const double scaled =
      std::round(static_cast<double>(per_10s) * seconds / 10.0);
  return scaled < 1.0 ? 1 : static_cast<size_t>(scaled);
}

void RunBatchWorkload(const std::string& name, const RunArgs& args,
                      Tracer& tracer, Report& report) {
  const BatchSpec* spec = nullptr;
  for (const BatchSpec& candidate : kSpecs) {
    if (name == candidate.name) spec = &candidate;
  }
  // The proxies draw their mixture geometry from their seed as well, and
  // the work per query follows the geometry, so a per-run geometry would
  // make runs differ by more than the host does. The geometry is fixed
  // (one population per workload); --seed picks the rows.
  const size_t rows = spec->n + spec->held_out;
  const Dataset population =
      tkdc::MakeDataset(spec->dataset, 2 * rows, kPopulationSeed);
  tkdc::Rng rng(args.seed);
  std::vector<size_t> picked =
      rng.SampleWithoutReplacement(population.size(), rows);
  const Dataset queries = population.SelectRows(
      std::vector<size_t>(picked.begin() + spec->n, picked.end()));
  picked.resize(spec->n);
  const Dataset train = population.SelectRows(picked);

  // The library's default algorithm seed: --seed chooses the inputs only.
  tkdc::api::TrainOptions options;
  options.config.num_threads = 1;
  options.config.grid_max_dims = spec->grid_max_dims;

  if (args.trace) {
    report.Add("bench.trace_overhead",
               MeasureEngineLayers({&train, &queries, options.config, nullptr},
                                   tracer, report),
               "ratio");
    return;
  }

  // The host's speed drifts over tens of milliseconds, so the three
  // measurements interleave across the whole run instead of each taking
  // one slice of it: every round runs one ClassifyTrainingBatch over all n
  // rows (throughput_per_s) and a share of the single-call passes over the
  // held-out rows (p50_us, p90_us); every few rounds start with a Train()
  // (setup_s). All trainings are identical, so every round must return
  // the same labels.
  const size_t rounds = ScaledCount(spec->classify_rounds, args.seconds);
  const size_t passes_per_round =
      (ScaledCount(spec->latency_passes, args.seconds) + rounds - 1) / rounds;
  const size_t setups = ScaledCount(spec->setups, args.seconds);
  const size_t train_every = std::max<size_t>(1, rounds / setups);
  std::unique_ptr<tkdc::DensityClassifier> model;
  std::vector<double> setup_s;
  std::vector<double> classify_s;
  std::vector<double> per_call_us;
  std::vector<Classification> training_labels;
  std::vector<Classification> held_labels(spec->held_out);
  uint64_t consistent_rows = 0;
  for (size_t r = 0; r < rounds; ++r) {
    if (r % train_every == 0 && setup_s.size() < setups) {
      const double start = ThreadCpuSeconds();
      auto trained = tkdc::api::Train(train, options);
      setup_s.push_back(ThreadCpuSeconds() - start);
      if (!trained.ok()) {
        report.Fail("Train failed: " + trained.status().message());
        return;
      }
      model = trained.take();
    }
    const double start = ThreadCpuSeconds();
    std::vector<Classification> labels = model->ClassifyTrainingBatch(train);
    classify_s.push_back(ThreadCpuSeconds() - start);
    if (r == 0) training_labels = labels;
    if (labels == training_labels) consistent_rows += spec->n;
    for (size_t p = 0; p < passes_per_round; ++p) {
      for (size_t i = 0; i + spec->calls_per_sample <= spec->held_out;
           i += spec->calls_per_sample) {
        const double call_start = ThreadCpuSeconds();
        for (size_t j = i; j < i + spec->calls_per_sample; ++j) {
          held_labels[j] = model->Classify(queries.Row(j));
        }
        per_call_us.push_back((ThreadCpuSeconds() - call_start) * 1e6 /
                              static_cast<double>(spec->calls_per_sample));
      }
    }
  }
  report.Phase("setup.train", setup_s.size(), setup_s.size());
  report.Phase("classify_training_batch", rounds * spec->n, consistent_rows);
  if (consistent_rows != rounds * spec->n) {
    report.Fail("ClassifyTrainingBatch labels changed between rounds");
  }
  const uint64_t calls = rounds * passes_per_round *
                         (spec->held_out / spec->calls_per_sample) *
                         spec->calls_per_sample;
  report.Phase("classify_held_out", calls, calls);
  const auto& tkdc_model = dynamic_cast<const tkdc::TkdcClassifier&>(*model);

  // label_agreement: tkdc labels vs the exact scan outside the band, on
  // training rows (self-corrected) and held-out rows.
  const LabelCheck on_train = CheckAgainstExactScan(
      train, tkdc_model, train, training_labels, true, spec->exact_sample);
  const LabelCheck on_held = CheckAgainstExactScan(
      train, tkdc_model, queries, held_labels, false, spec->exact_sample);
  LabelCheck both;
  both.checked = on_train.checked + on_held.checked;
  both.agreed = on_train.agreed + on_held.agreed;
  report.Phase("exact_check", both.checked, both.agreed);
  if (both.agreed != both.checked) {
    report.Fail("tkdc labels differ from the exact scan outside the band");
  }

  const double setup = Median(setup_s);
  const double classify = Median(classify_s);
  const Summary latency = Summarize(per_call_us);
  if (!latency.Supports(0.9)) report.Fail("too few latency samples for p90");
  const double n = static_cast<double>(spec->n);
  report.Add("setup_s", setup, "s");
  report.Add("throughput_per_s", n / classify, "1/s");
  report.Add("amortized_per_s", n / (setup + classify), "1/s");
  report.Add("p50_us", latency.p50, "us");
  report.Add("p90_us", latency.p90, "us");
  report.Add("latency_samples", static_cast<double>(latency.count), "count");
  report.Add("label_agreement", both.agreement(), "fraction");
}

}  // namespace perfbench
