// Streaming-serve benchmark: how much query throughput costs as the delta
// overlay grows, and what a full rebuild + hot swap costs. Closed-loop
// client threads drive the micro-batcher in-process (no sockets) against a
// tkdc model whose overlay is pre-staged to a sweep of fractions of the
// base point count; each sweep point then retrains on base ∪ overlay and
// publishes the rebuilt generation mid-traffic, asserting zero dropped
// responses. The acceptance bar tracked here: classify throughput at
// overlay <= 5% of n stays within 20% of the static (empty-overlay) model.
//
// Output: a table (fraction, overlay rows, classify qps, ratio vs static,
// insert qps, rebuild ms) and machine-readable BENCH_stream.json. See
// EXPERIMENTS.md § micro_stream for a recorded run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_output.h"

#include "common/rng.h"
#include "common/timer.h"
#include "data/generators.h"
#include "kde/delta_overlay.h"
#include "serve/registry.h"
#include "tkdc/classifier.h"
#include "tkdc/threshold.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

struct Args {
  size_t n = 20000;           // Base training points.
  size_t dims = 2;            // Dimensionality.
  size_t clients = 4;         // Closed-loop client threads.
  size_t ops_per_client = 2000;
  size_t engine_threads = 0;  // Batch engine workers (0 = hardware).
  std::vector<double> fractions = {0.0, 0.01, 0.02, 0.05, 0.10};
};

struct SweepPoint {
  double fraction = 0.0;
  size_t overlay_rows = 0;
  double classify_qps = 0.0;
  double vs_static = 1.0;   // classify_qps / static classify_qps.
  double insert_qps = 0.0;  // Mutation throughput while staging.
  double rebuild_ms = 0.0;  // Retrain + hot-swap wall time.
  uint64_t dropped = 0;     // Requests lost across the swap (must be 0).
};

/// A fresh streaming generation over `classifier` (which must support the
/// overlay fold). The bench stages inserts itself, so the rebuild trigger
/// is off and DELETE validation state is not needed.
std::shared_ptr<serve::ServingModel> MakeStreamingModel(
    std::unique_ptr<DensityClassifier> classifier, const Dataset& base,
    size_t overlay_capacity) {
  auto model = std::make_shared<serve::ServingModel>();
  model->classifier = std::move(classifier);
  model->source_path = "<in-memory>";
  model->streaming = true;
  model->overlay =
      std::make_shared<DeltaOverlay>(base.dims(), overlay_capacity);
  model->base_data = std::make_shared<Dataset>(base);
  auto* tkdc = dynamic_cast<const TkdcClassifier*>(model->classifier.get());
  model->estimator = std::make_shared<OnlineThresholdEstimator>(
      /*p=*/0.01, /*delta=*/0.05, /*capacity=*/1024, /*seed=*/17);
  if (tkdc != nullptr && !tkdc->training_densities().empty()) {
    model->estimator->Reseed(tkdc->training_densities());
  }
  return model;
}

/// Submits one request and blocks for its completion.
serve::Response RoundTrip(serve::MicroBatcher& batcher,
                          serve::Request request) {
  std::promise<serve::Response> done;
  auto future = done.get_future();
  if (!batcher.Submit(std::move(request),
                      [&](const serve::Response& response) {
                        done.set_value(response);
                      })) {
    // Rejection completes inline; the future is already satisfied.
  }
  return future.get();
}

serve::Request PointRequest(uint64_t id, serve::RequestVerb verb,
                            std::span<const double> x) {
  serve::Request request;
  request.id = id;
  request.verb = verb;
  request.point.assign(x.begin(), x.end());
  return request;
}

SweepPoint RunOne(const Args& args, double fraction, const Dataset& base,
                  const api::TrainOptions& options, const Dataset& queries,
                  const Dataset& arrivals) {
  SweepPoint point;
  point.fraction = fraction;
  const size_t inserts =
      static_cast<size_t>(fraction * static_cast<double>(args.n));

  auto trained = api::Train(base, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n", trained.message().c_str());
    std::exit(1);
  }
  auto model =
      MakeStreamingModel(trained.take(), base, /*overlay_capacity=*/
                         inserts + serve::BatcherOptions().max_batch);

  serve::BatcherOptions batcher_options;
  batcher_options.batch_window_us = 100;
  // The model is the registry's default slot; the benchmark loads no files.
  serve::ModelRegistry models(
      serve::RegistryOptions(),
      [](const std::string& path)
          -> Result<std::shared_ptr<serve::ServingModel>> {
        return Errorf() << "no model files in this benchmark: " << path;
      },
      nullptr);
  models.Publish(serve::kDefaultModelId, model);
  serve::MicroBatcher batcher(batcher_options, &models, nullptr);
  batcher.Start();

  // Stage the overlay through the data plane (the estimator feed and the
  // overlay append are part of the measured mutation cost).
  if (inserts > 0) {
    WallTimer timer;
    for (size_t i = 0; i < inserts; ++i) {
      RoundTrip(batcher, PointRequest(1 + i, serve::RequestVerb::kInsert,
                                      arrivals.Row(i % arrivals.size())));
    }
    point.insert_qps = static_cast<double>(inserts) / timer.ElapsedSeconds();
  }
  point.overlay_rows = model->overlay->snapshot().size();

  // Closed-loop classify throughput against the staged overlay.
  {
    WallTimer timer;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < args.clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < args.ops_per_client; ++i) {
          const size_t row = (c * args.ops_per_client + i) % queries.size();
          RoundTrip(batcher,
                    PointRequest(1'000'000 + c * args.ops_per_client + i,
                                 serve::RequestVerb::kClassify,
                                 queries.Row(row)));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    point.classify_qps =
        static_cast<double>(args.clients * args.ops_per_client) /
        timer.ElapsedSeconds();
  }

  // Rebuild on base ∪ overlay and hot-swap mid-traffic; every response
  // must still arrive (closed-loop clients would hang otherwise, so
  // `dropped` is also structurally checked by this finishing at all).
  {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> sent{0}, answered{0};
    std::thread background([&] {
      Rng rng(99);
      uint64_t id = 5'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t row = rng.NextBounded(queries.size());
        RoundTrip(batcher, PointRequest(id++, serve::RequestVerb::kClassify,
                                        queries.Row(row)));
        sent.fetch_add(1, std::memory_order_relaxed);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
    WallTimer timer;
    Dataset merged = base;
    const auto snap = model->overlay->snapshot();
    std::vector<double> row(base.dims());
    for (size_t i = 0; i < snap.inserted; ++i) {
      model->overlay->CopyInsertedRow(i, row);
      merged.AppendRow(row);
    }
    auto rebuilt = api::Train(merged, options);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "rebuild train failed: %s\n",
                   rebuilt.message().c_str());
      std::exit(1);
    }
    auto fresh = MakeStreamingModel(rebuilt.take(), merged,
                                    /*overlay_capacity=*/1024);
    fresh->generation = model->generation + 1;
    if (!batcher.PublishRebuild(fresh, serve::kDefaultModelId, snap.inserted,
                                snap.tombstones)) {
      std::fprintf(stderr, "rebuild publication failed\n");
      std::exit(1);
    }
    point.rebuild_ms = timer.ElapsedSeconds() * 1e3;
    stop.store(true, std::memory_order_relaxed);
    background.join();
    point.dropped = sent.load() - answered.load();
  }

  batcher.Stop();
  return point;
}

void WriteJson(const std::string& path, const Args& args,
               const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"micro_stream\",\n";
  out << "  \"n\": " << args.n << ",\n  \"dims\": " << args.dims << ",\n";
  out << "  \"clients\": " << args.clients
      << ",\n  \"ops_per_client\": " << args.ops_per_client << ",\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"fraction\": " << p.fraction
        << ", \"overlay_rows\": " << p.overlay_rows
        << ", \"classify_qps\": " << p.classify_qps
        << ", \"vs_static\": " << p.vs_static
        << ", \"insert_qps\": " << p.insert_qps
        << ", \"rebuild_ms\": " << p.rebuild_ms
        << ", \"dropped\": " << p.dropped << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

bool ParseSizeArg(const char* text, size_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<size_t>(value);
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    size_t value = 0;
    if (arg == "--n" && next() && ParseSizeArg(argv[i], &value)) {
      args.n = value;
    } else if (arg == "--dims" && next() && ParseSizeArg(argv[i], &value)) {
      args.dims = value;
    } else if (arg == "--clients" && next() && ParseSizeArg(argv[i], &value)) {
      args.clients = value;
    } else if (arg == "--ops" && next() && ParseSizeArg(argv[i], &value)) {
      args.ops_per_client = value;
    } else if (arg == "--threads" && next() &&
               ParseSizeArg(argv[i], &value)) {
      args.engine_threads = value;
    } else {
      std::fprintf(stderr,
                   "usage: micro_stream [--n N] [--dims D] [--clients C] "
                   "[--ops K] [--threads T]\n");
      return 1;
    }
  }

  Rng rng(7);
  const Dataset base = SampleStandardGaussian(args.n, args.dims, rng);
  const Dataset queries = SampleStandardGaussian(4096, args.dims, rng);
  Dataset arrivals = SampleStandardGaussian(
      std::max<size_t>(1, static_cast<size_t>(0.2 * args.n)), args.dims, rng);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    arrivals.MutableRow(i)[0] += 1.0;  // Drifted arrival distribution.
  }

  api::TrainOptions options;
  options.config.p = 0.01;
  options.config.seed = 7;
  options.config.num_threads = args.engine_threads;

  std::printf("%zu base points, %zu clients x %zu ops\n\n", args.n,
              args.clients, args.ops_per_client);
  std::printf("%10s %13s %13s %10s %12s %11s %8s\n", "fraction",
              "overlay_rows", "classify_qps", "vs_static", "insert_qps",
              "rebuild_ms", "dropped");

  std::vector<SweepPoint> points;
  double static_qps = 0.0;
  for (const double fraction : args.fractions) {
    SweepPoint point =
        RunOne(args, fraction, base, options, queries, arrivals);
    if (fraction == 0.0) static_qps = point.classify_qps;
    point.vs_static =
        static_qps > 0.0 ? point.classify_qps / static_qps : 1.0;
    points.push_back(point);
    std::printf("%10.2f %13zu %13.0f %10.2f %12.0f %11.1f %8llu\n",
                point.fraction, point.overlay_rows, point.classify_qps,
                point.vs_static, point.insert_qps, point.rebuild_ms,
                static_cast<unsigned long long>(point.dropped));
  }
  WriteJson(bench::OutputPath("BENCH_stream.json"), args, points);
  return 0;
}

}  // namespace
}  // namespace tkdc

int main(int argc, char** argv) { return tkdc::Main(argc, argv); }
