// Fleet serving benchmark: N in-process tkdc_serve workers behind the
// consistent-hash router, M models, closed-loop clients over real TCP
// connections. Each worker is throttled by --pace-us (the batch pacing
// knob), so adding workers adds serving capacity even on a small host —
// the sweep measures how classify throughput scales from 1 to N workers
// when the fleet is pacing-bound rather than CPU-bound.
//
// A final chaos phase reruns the largest fleet while a worker is killed
// mid-traffic and one model is hot-reloaded (RELOAD @m), with clients
// retrying on ERR/OVERLOADED; it reports how many admitted requests were
// dropped (the fleet contract: zero — every op is eventually answered).
//
// Output: a table (workers, throughput, p50/p99) plus the chaos counts,
// and machine-readable BENCH_fleet.json. See EXPERIMENTS.md § micro_fleet
// for a recorded run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_output.h"

#include "common/timer.h"
#include "data/generators.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

struct Args {
  size_t n = 2000;            // Training points per model.
  size_t dims = 2;            // Dimensionality.
  size_t models = 8;          // Model slots spread over the fleet.
  size_t clients_per_model = 3;
  uint64_t pace_us = 1000;    // Worker batch pacing (capacity throttle).
  size_t max_batch = 2;       // With pace: ~max_batch/pace req/s capacity.
  double seconds = 2.0;       // Measured wall time per sweep point.
  std::vector<size_t> worker_counts = {1, 2, 4};
};

struct SweepPoint {
  size_t workers = 0;
  uint64_t completed = 0;
  double throughput = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct ChaosResult {
  uint64_t submitted = 0;  // Distinct client ops.
  uint64_t answered = 0;   // Ops that eventually got OK.
  uint64_t retries = 0;    // ERR/OVERLOADED retries along the way.
  uint64_t dropped = 0;    // Ops never answered OK: must be zero.
  bool reloaded = false;   // The mid-traffic RELOAD @m succeeded.
};

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t index =
      static_cast<size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

/// Captures RunTcp's "listening on 127.0.0.1:<port>" announcement.
class AnnounceStream : public std::ostream {
 public:
  AnnounceStream() : std::ostream(&buf_), buf_(this) {}

  uint16_t AwaitPort() {
    const std::string text = port_future_.get();
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos) return 0;
    return static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
  }

 private:
  class Buf : public std::stringbuf {
   public:
    explicit Buf(AnnounceStream* owner) : owner_(owner) {}
    int sync() override {
      if (!owner_->port_set_) {
        owner_->port_set_ = true;
        owner_->port_promise_.set_value(str());
      }
      return 0;
    }

   private:
    AnnounceStream* owner_;
  };

  Buf buf_;
  bool port_set_ = false;
  std::promise<std::string> port_promise_;
  std::future<std::string> port_future_ = port_promise_.get_future();
};

/// One in-process worker on an ephemeral TCP port.
class Worker {
 public:
  explicit Worker(serve::ServerOptions options) {
    options.terminate = &terminate_;
    auto created = serve::Server::Create(std::move(options));
    if (!created.ok()) {
      std::fprintf(stderr, "worker create failed: %s\n",
                   created.message().c_str());
      std::abort();
    }
    server_ = created.take();
    runner_ = std::thread([this] {
      exit_code_ = server_->RunTcp(/*port=*/0, announce_);
    });
    port_ = announce_.AwaitPort();
  }

  ~Worker() { Kill(); }

  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  void Kill() {
    if (!runner_.joinable()) return;
    terminate_.store(true);
    runner_.join();
  }

 private:
  std::atomic<bool> terminate_{false};
  std::unique_ptr<serve::Server> server_;
  AnnounceStream announce_;
  std::thread runner_;
  uint16_t port_ = 0;
  int exit_code_ = -1;
};

/// Blocking protocol client over one TCP connection (length-prefixed).
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      std::fprintf(stderr, "connect to %u failed\n", port);
      std::abort();
    }
    reader_ = std::make_unique<serve::FrameReader>(
        fd_, serve::Framing::kLengthPrefixed);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& payload) {
    const std::string frame =
        serve::EncodeFrame(payload, serve::Framing::kLengthPrefixed);
    size_t written = 0;
    while (written < frame.size()) {
      const ssize_t put =
          ::write(fd_, frame.data() + written, frame.size() - written);
      if (put <= 0) return;  // Router gone; Read will report it.
      written += static_cast<size_t>(put);
    }
  }

  /// Next frame, or "" on EOF/error.
  std::string Read() {
    auto next = reader_->Next(nullptr);
    if (!next.ok() || !next.value().has_value()) return "";
    return *next.value();
  }

  /// One blocking round trip.
  std::string Call(const std::string& payload) {
    Send(payload);
    return Read();
  }

 private:
  int fd_ = -1;
  std::unique_ptr<serve::FrameReader> reader_;
};

/// Picks `count` model ids balanced over the fleet's hash ring, so every
/// worker owns ceil(count/workers) slots at most — the sweep then
/// measures capacity scaling, not placement luck.
std::vector<std::string> BalancedModelIds(
    const std::vector<std::string>& worker_addresses, size_t count,
    size_t vnodes) {
  serve::HashRing ring(vnodes);
  for (size_t w = 0; w < worker_addresses.size(); ++w) {
    ring.Add(w, worker_addresses[w]);
  }
  const size_t per_worker =
      (count + worker_addresses.size() - 1) / worker_addresses.size();
  std::vector<size_t> owned(worker_addresses.size(), 0);
  std::vector<std::string> ids;
  for (int candidate = 0; ids.size() < count && candidate < 10000;
       ++candidate) {
    const std::string id = "m" + std::to_string(candidate);
    const size_t owner = ring.Pick(id).value();
    if (owned[owner] >= per_worker) continue;
    ++owned[owner];
    ids.push_back(id);
  }
  return ids;
}

/// One fleet: W workers (all sharing the saved model file), a TCP router
/// in front, and the balanced model ids LOADed on every worker (so any
/// worker can absorb any key after a failover).
struct Fleet {
  std::vector<std::unique_ptr<Worker>> workers;
  std::unique_ptr<serve::Router> router;
  std::thread router_thread;
  std::atomic<bool> router_terminate{false};
  uint16_t router_port = 0;
  std::vector<std::string> model_ids;

  ~Fleet() {
    router_terminate.store(true);
    if (router_thread.joinable()) router_thread.join();
    for (auto& worker : workers) worker->Kill();
  }
};

std::unique_ptr<Fleet> StartFleet(const Args& args, size_t worker_count,
                                  const std::string& model_path) {
  auto fleet = std::make_unique<Fleet>();
  serve::ServerOptions options;
  options.model_path = model_path;
  options.num_threads = 1;
  options.batcher.batch_window_us = 100;
  options.batcher.batch_pace_us = args.pace_us;
  options.batcher.max_batch = args.max_batch;
  std::vector<std::string> addresses;
  for (size_t w = 0; w < worker_count; ++w) {
    fleet->workers.push_back(std::make_unique<Worker>(options));
    addresses.push_back(fleet->workers.back()->address());
  }

  fleet->model_ids = BalancedModelIds(addresses, args.models, 64);
  // Register every slot on every worker directly (admin path, not via the
  // router): after a failover any worker may be asked for any model.
  for (const auto& worker : fleet->workers) {
    Client admin(worker->port());
    uint64_t id = 0;
    for (const std::string& model_id : fleet->model_ids) {
      const std::string response = admin.Call(std::to_string(++id) + " LOAD @" +
                                              model_id + " " + model_path);
      if (response.find("OK LOADED") == std::string::npos) {
        std::fprintf(stderr, "LOAD @%s failed: %s\n", model_id.c_str(),
                     response.c_str());
        std::abort();
      }
    }
  }

  serve::RouterOptions router_options;
  router_options.workers = addresses;
  router_options.probe_interval_ms = 100;
  router_options.terminate = &fleet->router_terminate;
  auto created = serve::Router::Create(std::move(router_options));
  if (!created.ok()) {
    std::fprintf(stderr, "router create failed: %s\n",
                 created.message().c_str());
    std::abort();
  }
  fleet->router = created.take();
  auto announce = std::make_shared<AnnounceStream>();
  serve::Router* router = fleet->router.get();
  fleet->router_thread =
      std::thread([router, announce] { router->RunTcp(0, *announce); });
  fleet->router_port = announce->AwaitPort();
  return fleet;
}

SweepPoint MeasureThroughput(const Args& args, Fleet& fleet) {
  const size_t client_count = args.models * args.clients_per_model;
  std::atomic<bool> stop{false};
  std::vector<uint64_t> completed(client_count, 0);
  std::vector<std::vector<double>> latencies(client_count);
  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  std::promise<void> go;
  std::shared_future<void> go_future = go.get_future().share();
  for (size_t c = 0; c < client_count; ++c) {
    threads.emplace_back([&, c] {
      Client client(fleet.router_port);
      const std::string& model_id = fleet.model_ids[c % args.models];
      const std::string request_tail =
          " CLASSIFY @" + model_id + " 0.25,-0.5";
      ready.fetch_add(1);
      go_future.wait();
      uint64_t id = c * 1'000'000;
      using Clock = std::chrono::steady_clock;
      while (!stop.load(std::memory_order_relaxed)) {
        const Clock::time_point start = Clock::now();
        const std::string response =
            client.Call(std::to_string(++id) + request_tail);
        if (response.find(" OK ") == std::string::npos) continue;
        ++completed[c];
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    });
  }
  while (ready.load() < client_count) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  WallTimer wall;
  go.set_value();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(args.seconds));
  stop.store(true);
  const double elapsed = wall.ElapsedSeconds();
  for (auto& thread : threads) thread.join();

  SweepPoint point;
  point.workers = fleet.workers.size();
  std::vector<double> all;
  for (size_t c = 0; c < client_count; ++c) {
    point.completed += completed[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  point.throughput = Throughput(point.completed, elapsed);
  point.p50_us = Percentile(all, 0.50);
  point.p99_us = Percentile(all, 0.99);
  return point;
}

/// Chaos run: closed-loop clients with retry-on-failure while one worker
/// is killed and one model RELOADed mid-traffic. Every op must end in OK.
ChaosResult RunChaos(const Args& args, Fleet& fleet) {
  const size_t client_count = args.models * args.clients_per_model;
  constexpr int kOpsPerClient = 400;
  constexpr int kMaxRetries = 500;
  std::vector<uint64_t> answered(client_count, 0);
  std::vector<uint64_t> retries(client_count, 0);
  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  std::promise<void> go;
  std::shared_future<void> go_future = go.get_future().share();
  for (size_t c = 0; c < client_count; ++c) {
    threads.emplace_back([&, c] {
      Client client(fleet.router_port);
      const std::string& model_id = fleet.model_ids[c % args.models];
      const std::string request_tail =
          " CLASSIFY @" + model_id + " 0.25,-0.5";
      ready.fetch_add(1);
      go_future.wait();
      uint64_t id = c * 1'000'000;
      for (int op = 0; op < kOpsPerClient; ++op) {
        for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
          const std::string response =
              client.Call(std::to_string(++id) + request_tail);
          if (response.find(" OK ") != std::string::npos) {
            ++answered[c];
            break;
          }
          // ERR (worker lost / reload window) or OVERLOADED: retry after
          // a beat — the admitted-request contract is that a retry
          // eventually lands on live capacity.
          ++retries[c];
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }
  while (ready.load() < client_count) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  go.set_value();

  // Mid-traffic chaos: hot-reload one model through the router, then kill
  // a worker outright. Give traffic a beat to start first.
  ChaosResult result;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    Client control(fleet.router_port);
    const std::string response =
        control.Call("999999999 RELOAD @" + fleet.model_ids[0]);
    result.reloaded =
        response.find("OK RELOADED") != std::string::npos;
    if (!result.reloaded) {
      std::fprintf(stderr, "chaos RELOAD failed: %s\n", response.c_str());
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  fleet.workers.back()->Kill();

  for (auto& thread : threads) thread.join();
  result.submitted =
      static_cast<uint64_t>(client_count) * kOpsPerClient;
  for (size_t c = 0; c < client_count; ++c) {
    result.answered += answered[c];
    result.retries += retries[c];
  }
  result.dropped = result.submitted - result.answered;
  return result;
}

void WriteJson(const std::string& path, const Args& args,
               const std::vector<SweepPoint>& points,
               const ChaosResult& chaos) {
  double base = 0.0;
  double scale2 = 0.0;
  double scale4 = 0.0;
  for (const SweepPoint& p : points) {
    if (p.workers == 1) base = p.throughput;
  }
  for (const SweepPoint& p : points) {
    if (base <= 0.0) break;
    if (p.workers == 2) scale2 = p.throughput / base;
    if (p.workers == 4) scale4 = p.throughput / base;
  }
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"micro_fleet\",\n"
      << "  \"n\": " << args.n << ",\n"
      << "  \"dims\": " << args.dims << ",\n"
      << "  \"models\": " << args.models << ",\n"
      << "  \"clients_per_model\": " << args.clients_per_model << ",\n"
      << "  \"pace_us\": " << args.pace_us << ",\n"
      << "  \"max_batch\": " << args.max_batch << ",\n"
      << "  \"seconds\": " << args.seconds << ",\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"workers\": " << p.workers
        << ", \"completed\": " << p.completed
        << ", \"throughput_qps\": " << p.throughput
        << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"scaling_1_to_2\": " << scale2 << ",\n"
      << "  \"scaling_1_to_4\": " << scale4 << ",\n"
      << "  \"chaos\": {\"submitted\": " << chaos.submitted
      << ", \"answered\": " << chaos.answered
      << ", \"retries\": " << chaos.retries
      << ", \"dropped\": " << chaos.dropped
      << ", \"reloaded\": " << (chaos.reloaded ? "true" : "false")
      << "}\n"
      << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(const Args& args) {
  std::printf("training one %zu x %zu-d model for every fleet slot...\n",
              args.n, args.dims);
  Rng rng(41);
  const Dataset data = SampleStandardGaussian(args.n, args.dims, rng);
  api::TrainOptions train;
  train.config.seed = 41;
  train.config.num_threads = 1;
  auto trained = api::Train(data, train);
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n", trained.message().c_str());
    return 1;
  }
  const std::string model_path =
      bench::OutputPath("fleet_model." + std::to_string(getpid()) + ".tkdc");
  if (const Status saved = api::SaveModel(model_path, *trained.value(), data,
                                          api::SaveOptions());
      !saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.message().c_str());
    return 1;
  }

  std::printf(
      "%zu models x %zu clients each; worker capacity ~%.0f req/s "
      "(pace %llu us, max_batch %zu)\n\n",
      args.models, args.clients_per_model,
      1e6 * static_cast<double>(args.max_batch) /
          static_cast<double>(args.pace_us),
      static_cast<unsigned long long>(args.pace_us), args.max_batch);
  std::printf("%8s %11s %14s %10s %10s\n", "workers", "completed", "qps",
              "p50_us", "p99_us");

  std::vector<SweepPoint> points;
  for (const size_t worker_count : args.worker_counts) {
    auto fleet = StartFleet(args, worker_count, model_path);
    const SweepPoint point = MeasureThroughput(args, *fleet);
    points.push_back(point);
    std::printf("%8zu %11llu %14.0f %10.0f %10.0f\n", point.workers,
                static_cast<unsigned long long>(point.completed),
                point.throughput, point.p50_us, point.p99_us);
  }

  const size_t chaos_workers = args.worker_counts.back();
  std::printf("\nchaos: %zu workers, kill one + RELOAD mid-traffic...\n",
              chaos_workers);
  ChaosResult chaos;
  {
    auto fleet = StartFleet(args, chaos_workers, model_path);
    chaos = RunChaos(args, *fleet);
  }
  std::printf(
      "chaos: submitted %llu answered %llu retries %llu dropped %llu "
      "reloaded %s\n",
      static_cast<unsigned long long>(chaos.submitted),
      static_cast<unsigned long long>(chaos.answered),
      static_cast<unsigned long long>(chaos.retries),
      static_cast<unsigned long long>(chaos.dropped),
      chaos.reloaded ? "yes" : "no");

  WriteJson(bench::OutputPath("BENCH_fleet.json"), args, points, chaos);
  ::unlink(model_path.c_str());
  return chaos.dropped == 0 && chaos.reloaded ? 0 : 1;
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
    } else if (arg == "--models" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.models = value;
    } else if (arg == "--clients-per-model" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.clients_per_model = value;
    } else if (arg == "--pace-us" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.pace_us = value;
    } else if (arg == "--max-batch" && next() &&
               tkdc::ParseSizeArg(argv[i], &value)) {
      args.max_batch = value;
    } else if (arg == "--seconds" && next()) {
      args.seconds = std::atof(argv[i]);
    } else if (arg == "--workers" && next()) {
      // Comma-separated worker-count sweep, e.g. --workers 1,2,4.
      args.worker_counts.clear();
      std::string list = argv[i];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        args.worker_counts.push_back(static_cast<size_t>(
            std::strtoull(list.substr(start, comma - start).c_str(), nullptr,
                          10)));
        start = comma + 1;
        if (comma == list.size()) break;
      }
    } else {
      std::fprintf(
          stderr,
          "usage: micro_fleet [--n N] [--models M] [--clients-per-model C] "
          "[--pace-us US] [--max-batch B] [--seconds S] [--workers 1,2,4]\n");
      return 2;
    }
  }
  return tkdc::Run(args);
}
