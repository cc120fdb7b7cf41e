// Closed-loop serving benchmark: client threads drive the tkdc_serve
// micro-batcher in-process (no sockets, so the numbers isolate admission +
// batching + batch execution) and measure per-request latency and
// throughput across a sweep of --batch-window-us values. The tradeoff
// under test: a wider coalescing window grows batches (amortizing batch
// dispatch across requests) at the cost of queue-wait latency; with
// closed-loop clients the window also caps throughput, since every client
// blocks on its previous request.
//
// Output: a table (window, mean batch size, throughput, p50/p95/p99
// latency) and machine-readable BENCH_serve.json. See EXPERIMENTS.md
// § micro_serve for a recorded run.

#include <algorithm>
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

#include "common/timer.h"
#include "data/generators.h"
#include "serve/registry.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

struct Args {
  size_t n = 20000;         // Training points.
  size_t dims = 2;          // Dimensionality.
  size_t clients = 8;       // Closed-loop client threads.
  size_t ops_per_client = 2000;
  size_t engine_threads = 0;  // Batch engine workers (0 = hardware).
  std::vector<uint64_t> windows_us = {0, 50, 100, 200, 500, 1000, 2000};
};

struct SweepPoint {
  uint64_t window_us = 0;
  double mean_batch = 0.0;
  double throughput = 0.0;  // Requests / second.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

SweepPoint RunOne(const Args& args, uint64_t window_us,
                  const std::shared_ptr<serve::ServingModel>& model,
                  const Dataset& queries) {
  serve::BatcherOptions options;
  options.batch_window_us = window_us;
  options.max_batch = 256;
  // The model is the registry's default slot; the benchmark loads no files.
  serve::ModelRegistry models(
      serve::RegistryOptions(),
      [](const std::string& path)
          -> Result<std::shared_ptr<serve::ServingModel>> {
        return Errorf() << "no model files in this benchmark: " << path;
      },
      nullptr);
  models.Publish(serve::kDefaultModelId, model);
  serve::MicroBatcher batcher(options, &models, /*metrics=*/nullptr);
  batcher.Start();

  std::vector<std::vector<double>> latencies_us(args.clients);
  std::vector<std::thread> clients;
  WallTimer wall;
  for (size_t c = 0; c < args.clients; ++c) {
    latencies_us[c].reserve(args.ops_per_client);
    clients.emplace_back([&, c] {
      using Clock = std::chrono::steady_clock;
      for (size_t op = 0; op < args.ops_per_client; ++op) {
        const size_t row = (c * args.ops_per_client + op) % queries.size();
        serve::Request request;
        request.id = c * args.ops_per_client + op + 1;
        request.verb = serve::RequestVerb::kClassify;
        const auto point = queries.Row(row);
        request.point.assign(point.begin(), point.end());
        std::promise<void> done;
        const Clock::time_point start = Clock::now();
        batcher.Submit(std::move(request),
                       [&done](const serve::Response&) { done.set_value(); });
        done.get_future().wait();
        latencies_us[c].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed = wall.ElapsedSeconds();
  const auto totals = batcher.snapshot();
  batcher.Stop();

  std::vector<double> all;
  all.reserve(args.clients * args.ops_per_client);
  for (const auto& per_client : latencies_us) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());

  SweepPoint point;
  point.window_us = window_us;
  point.mean_batch = totals.batches == 0
                         ? 0.0
                         : static_cast<double>(totals.completed) /
                               static_cast<double>(totals.batches);
  point.throughput = Throughput(totals.completed, elapsed);
  point.p50_us = Percentile(all, 0.50);
  point.p95_us = Percentile(all, 0.95);
  point.p99_us = Percentile(all, 0.99);
  return point;
}

void WriteJson(const std::string& path, const Args& args,
               const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"micro_serve\",\n"
      << "  \"n\": " << args.n << ",\n"
      << "  \"dims\": " << args.dims << ",\n"
      << "  \"clients\": " << args.clients << ",\n"
      << "  \"ops_per_client\": " << args.ops_per_client << ",\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"batch_window_us\": " << p.window_us
        << ", \"mean_batch\": " << p.mean_batch
        << ", \"throughput_qps\": " << p.throughput
        << ", \"p50_us\": " << p.p50_us << ", \"p95_us\": " << p.p95_us
        << ", \"p99_us\": " << p.p99_us << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(const Args& args) {
  std::printf("training tkdc on %zu x %zu-d gaussian points...\n", args.n,
              args.dims);
  Rng rng(17);
  const Dataset data = SampleStandardGaussian(args.n, args.dims, rng);
  api::TrainOptions train;
  train.config.seed = 17;
  train.config.num_threads = args.engine_threads;
  auto trained = api::Train(data, train);
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n", trained.message().c_str());
    return 1;
  }
  auto model = std::make_shared<serve::ServingModel>();
  model->classifier = trained.take();
  model->source_path = "<in-memory>";

  const Dataset queries = SampleStandardGaussian(4096, args.dims, rng);
  std::printf("%zu closed-loop clients x %zu ops each\n\n", args.clients,
              args.ops_per_client);
  std::printf("%12s %11s %14s %10s %10s %10s\n", "window_us", "mean_batch",
              "qps", "p50_us", "p95_us", "p99_us");

  std::vector<SweepPoint> points;
  for (const uint64_t window_us : args.windows_us) {
    // One warm-up + measured run per window; the model (and its warm batch
    // contexts) is shared across batchers, which run strictly in sequence.
    const SweepPoint point = RunOne(args, window_us, model, queries);
    points.push_back(point);
    std::printf("%12llu %11.1f %14.0f %10.0f %10.0f %10.0f\n",
                static_cast<unsigned long long>(point.window_us),
                point.mean_batch, point.throughput, point.p50_us,
                point.p95_us, point.p99_us);
  }
  WriteJson(bench::OutputPath("BENCH_serve.json"), args, points);
  return 0;
}

bool ParseSizeArg(const char* text, size_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace
}  // namespace tkdc

int main(int argc, char** argv) {
  tkdc::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    size_t value = 0;
    if (arg == "--n" && next() && tkdc::ParseSizeArg(argv[i], &value)) {
      args.n = value;
    } else if (arg == "--dims" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.dims = value;
    } else if (arg == "--clients" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.clients = value;
    } else if (arg == "--ops" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.ops_per_client = value;
    } else if (arg == "--threads" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.engine_threads = value;
    } else if (arg == "--windows" && next()) {
      // Comma-separated window list, e.g. --windows 0,100,1000.
      args.windows_us.clear();
      std::string list = argv[i];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        args.windows_us.push_back(
            std::strtoull(list.substr(start, comma - start).c_str(), nullptr,
                          10));
        start = comma + 1;
        if (comma == list.size()) break;
      }
    } else {
      std::fprintf(stderr,
                   "usage: micro_serve [--n N] [--dims D] [--clients C] "
                   "[--ops OPS] [--threads T] [--windows US,US,...]\n");
      return 2;
    }
  }
  return tkdc::Run(args);
}
