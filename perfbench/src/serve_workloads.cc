// The serve workloads. serve-read: read-only CLASSIFY @<id> traffic
// through one Router in front of two Server workers holding eight small
// gauss-2d models. serve-write: ~80% scope-less CLASSIFY and ~20% INSERT
// straight to one Server whose default model streams. Both train their
// models and write them to disk before any clock starts; the load comes
// from this process over loopback TCP, from at most min(4, cores)
// threads and connections, against workers running one engine thread.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "engine_layers.h"
#include "serve/registry.h"
#include "serve_harness.h"
#include "stats.h"
#include "tkdc_api.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = tkdc::serve;
using Clock = std::chrono::steady_clock;
using tkdc::Classification;
using tkdc::Dataset;

constexpr size_t kModels = 8;
constexpr size_t kModelRows = 2000;
constexpr size_t kPoolPoints = 4096;
/// Setups per run; setup_s is their median.
constexpr size_t kSetups = 3;
/// Pipelined requests each closed-loop connection keeps in flight.
constexpr size_t kWindow = 8;
/// Sequential round trips per traced probe.
constexpr size_t kProbes = 2000;
/// Little's law tolerance on the closed loop's measured in-flight count.
constexpr double kLittleTolerance = 0.15;
/// An open-loop run is invalid when the generator sent more than half of
/// its ops later than this after their scheduled time. A shared host's
/// timer wake-ups alone run 0.1-1 ms late at p90, so the limit is on the
/// median, which only a generator that cannot keep the rate misses.
constexpr double kMaxLagP50Us = 1000.0;

struct ServeSpec {
  /// Open-loop rate and op count, closed-loop op count (per 10 s).
  double open_rate_per_s;
  size_t open_ops;
  size_t closed_ops;
  double insert_share;
};

constexpr ServeSpec kRead = {4000.0, 16000, 40000, 0.0};
constexpr ServeSpec kWrite = {2000.0, 8000, 10000, 0.2};
/// The traced serve-layer pass sizes its phases as for --seconds 10,
/// whatever the run's length: per-layer figures need no longer phases.
constexpr int kServeLayerSeconds = 10;
/// serve-write: the overlay is rebuilt into the base once it holds a
/// quarter of the base rows.
constexpr double kRebuildFraction = 0.25;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

size_t Connections() { return std::min<size_t>(2, LoadThreads()); }

std::string PointText(std::span<const double> x) {
  std::string text;
  for (size_t j = 0; j < x.size(); ++j) {
    if (j > 0) text += ',';
    text += FormatNumber(x[j]);
  }
  return text;
}

std::vector<std::string> PointTexts(const Dataset& points) {
  std::vector<std::string> texts;
  for (size_t i = 0; i < points.size(); ++i) {
    texts.push_back(PointText(points.Row(i)));
  }
  return texts;
}

const char* LabelText(Classification label) {
  return label == Classification::kHigh ? "HIGH" : "LOW";
}

/// Seeds of the generated inputs, all derived from --seed.
uint64_t ModelSeed(uint64_t seed, size_t i) { return seed * 1000 + i; }
uint64_t PoolSeed(uint64_t seed) { return seed * 1000 + 997; }
uint64_t InsertSeed(uint64_t seed) { return seed * 1000 + 998; }

/// One engine thread and the library's default algorithm seed: --seed
/// chooses the inputs only.
tkdc::api::TrainOptions ModelOptions() {
  tkdc::api::TrainOptions options;
  options.config.num_threads = 1;
  return options;
}

/// Trains one gauss-2d model per entry and writes it to `dir`.
bool WriteModels(const std::string& dir, uint64_t seed, size_t count,
                 std::vector<std::string>* paths, std::vector<Dataset>* data,
                 Report& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (size_t i = 0; i < count; ++i) {
    data->push_back(tkdc::MakeDataset(tkdc::DatasetId::kGauss, kModelRows,
                                      ModelSeed(seed, i)));
    auto trained = tkdc::api::Train(data->back(), ModelOptions());
    const std::string path = dir + "/model" + std::to_string(i) + ".tkdc";
    if (!trained.ok()) {
      report.Fail("training a serve model failed: " +
                  trained.status().message());
      return false;
    }
    const tkdc::Status saved = tkdc::api::SaveModel(
        path, *trained.value(), data->back(), tkdc::api::SaveOptions());
    if (!saved.ok()) {
      report.Fail("saving a serve model failed: " + saved.message());
      return false;
    }
    paths->push_back(path);
  }
  return true;
}

serve::ServerOptions WorkerOptions(const std::string& default_model) {
  serve::ServerOptions options;
  options.model_path = default_model;
  options.num_threads = 1;
  return options;
}

bool Ping(uint16_t port, Tracer& tracer) {
  ScopedSpan span(tracer, "serve.first_ping");
  const std::unique_ptr<Connection> link = Connection::Dial(port);
  if (link == nullptr) return false;
  const std::optional<std::string> reply = link->Call("1 PING");
  return reply.has_value() && *reply == "1 OK PONG";
}

/// Model ids spread evenly over the ring the router builds from these
/// addresses, so each worker owns the same number of models whatever
/// ports the workers got.
std::vector<std::string> BalancedModelIds(
    const std::vector<std::string>& addresses, size_t count) {
  serve::HashRing ring(serve::RouterOptions().vnodes);
  for (size_t w = 0; w < addresses.size(); ++w) ring.Add(w, addresses[w]);
  const size_t per_worker = (count + addresses.size() - 1) / addresses.size();
  std::vector<size_t> owned(addresses.size(), 0);
  std::vector<std::string> ids;
  for (size_t candidate = 0; ids.size() < count; ++candidate) {
    const std::string id = "m" + std::to_string(candidate);
    const size_t owner = ring.Pick(id).value();
    if (owned[owner] >= per_worker) continue;
    ++owned[owner];
    ids.push_back(id);
  }
  return ids;
}

/// serve-read's fleet: two workers, every model LOADed on each, a router.
struct Fleet {
  std::vector<std::unique_ptr<InProcessServer>> workers;
  std::unique_ptr<InProcessRouter> router;
  std::vector<std::string> ids;

  ~Fleet() {
    if (router != nullptr) router->Stop();
    for (auto& worker : workers) worker->Stop();
  }
};

std::unique_ptr<Fleet> StartFleet(const std::vector<std::string>& paths,
                                  Tracer& tracer, std::string* error) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<std::string> addresses;
  for (int w = 0; w < 2; ++w) {
    ScopedSpan span(tracer, "serve.server.create");
    fleet->workers.push_back(
        InProcessServer::Start(WorkerOptions(paths[0]), error));
    if (fleet->workers.back() == nullptr) return nullptr;
    addresses.push_back(fleet->workers.back()->address());
  }
  fleet->ids = BalancedModelIds(addresses, paths.size());
  for (auto& worker : fleet->workers) {
    for (size_t i = 0; i < paths.size(); ++i) {
      ScopedSpan span(tracer, "serve.registry.load");
      const tkdc::Status loaded =
          worker->service().model_registry().Load(fleet->ids[i], paths[i]);
      if (!loaded.ok()) {
        *error = loaded.message();
        return nullptr;
      }
    }
  }
  serve::RouterOptions router_options;
  router_options.workers = addresses;
  {
    ScopedSpan span(tracer, "serve.router.create");
    fleet->router = InProcessRouter::Start(std::move(router_options), error);
  }
  if (fleet->router == nullptr) return nullptr;
  if (!Ping(fleet->router->port(), tracer)) {
    *error = "no PONG through the router";
    return nullptr;
  }
  return fleet;
}

/// A server whose default model streams. Its overlay holds at least
/// `inserts` rows, so no INSERT of a phase is refused for want of capacity
/// while a rebuild runs, however fast the host.
std::unique_ptr<InProcessServer> StartStreamingServer(const std::string& path,
                                                      size_t inserts,
                                                      Tracer& tracer,
                                                      std::string* error) {
  serve::ServerOptions options = WorkerOptions(path);
  options.rebuild_fraction = kRebuildFraction;
  options.overlay_capacity = std::max(options.overlay_capacity, inserts);
  std::unique_ptr<InProcessServer> server;
  {
    ScopedSpan span(tracer, "serve.server.create");
    server = InProcessServer::Start(std::move(options), error);
  }
  if (server != nullptr && !Ping(server->port(), tracer)) {
    *error = "no PONG from the server";
    return nullptr;
  }
  return server;
}

/// Books a load phase's counts and fails the run on any label mismatch.
void BookPhase(const std::string& name, const PhaseResult& phase,
               Report& report) {
  report.Phase(name, phase.sent, phase.ok);
  if (phase.checked != phase.matched) {
    report.Fail(name + ": " + std::to_string(phase.checked - phase.matched) +
                " wire labels differ from in-process labels");
  }
}

/// The open loop's self-check: the schedule must not have fallen behind.
void CheckGeneratorLag(const std::string& name, const PhaseResult& phase,
                       Report& report) {
  const Summary lag = Summarize(phase.lag_us);
  std::printf("%s: generator lag p50 %.1f us (limit %.0f), p90 %.1f us\n",
              name.c_str(), lag.p50, kMaxLagP50Us, lag.p90);
  if (lag.p50 > kMaxLagP50Us) {
    report.Fail(name + ": the open-loop schedule fell behind (lag p50 " +
                FormatNumber(lag.p50) + " us)");
  }
}

/// The closed loop's self-check, Little's law: completed ops per second
/// times mean latency must equal the configured in-flight count.
void CheckLittlesLaw(const std::string& name, const PhaseResult& phase,
                     size_t in_flight, Report& report) {
  if (phase.ok == 0 || phase.wall_s <= 0.0) {
    report.Fail(name + ": no op completed");
    return;
  }
  const double throughput = static_cast<double>(phase.ok) / phase.wall_s;
  const double measured = throughput * Mean(phase.latency_us) / 1e6;
  std::printf("%s: Little's law %.2f in flight measured, %zu configured\n",
              name.c_str(), measured, in_flight);
  if (std::fabs(measured / static_cast<double>(in_flight) - 1.0) >
      kLittleTolerance) {
    report.Fail(name + ": Little's law check failed (" +
                FormatNumber(measured) + " in flight, " +
                std::to_string(in_flight) + " configured)");
  }
}

/// Adds the end-to-end metrics of a serve workload.
void AddServeMetrics(const std::vector<double>& setup_s,
                     const PhaseResult& open, const PhaseResult& closed,
                     const LabelCheck& labels, Report& report) {
  const Summary latency = Summarize(open.latency_us);
  if (!latency.Supports(0.9)) report.Fail("too few latency samples for p90");
  const double setup = Median(setup_s);
  report.Add("setup_s", setup, "s");
  report.Add("throughput_per_s", Median(closed.chunk_throughput), "1/s");
  report.Add("amortized_per_s",
             static_cast<double>(closed.ok) / (setup + closed.wall_s), "1/s");
  report.Add("p50_us", latency.p50, "us");
  report.Add("p90_us", latency.p90, "us");
  report.Add("latency_samples", static_cast<double>(latency.count), "count");
  report.Add("label_agreement", labels.agreement(), "fraction");
  report.Add("bench.generator_lag_us_p90", Percentile(open.lag_us, 0.9), "us");
}

/// serve.protocol.*: ParseRequest on the workload's payloads, and
/// RenderResponse + EncodeFrame on its replies, 1000 per span.
void MeasureProtocol(const std::vector<Op>& ops, const PayloadFn& payload,
                     Tracer& tracer, Report& report) {
  constexpr size_t kPerSpan = 1000;
  std::vector<std::string> payloads;
  for (size_t i = 0; i < kPerSpan; ++i) {
    payloads.push_back(std::to_string(i + 1) + " " + payload(i % ops.size()));
  }
  size_t sink = 0;
  for (int block = 0; block < 30; ++block) {
    ScopedSpan span(tracer, "serve.protocol.parse");
    for (const std::string& p : payloads) sink += serve::ParseRequest(p).ok();
  }
  for (int block = 0; block < 30; ++block) {
    ScopedSpan span(tracer, "serve.protocol.render");
    for (size_t i = 0; i < kPerSpan; ++i) {
      const serve::Response response =
          serve::Response::Ok(i + 1, i % 2 == 0 ? "HIGH" : "LOW");
      sink += serve::EncodeFrame(serve::RenderResponse(response),
                                 serve::Framing::kLengthPrefixed)
                  .size();
    }
  }
  if (sink == 0) report.Fail("protocol probe parsed nothing");
  report.Add("serve.protocol.parse_ns",
             Median(tracer.DurationsUs("serve.protocol.parse")) * 1e3 /
                 kPerSpan,
             "ns");
  report.Add("serve.protocol.render_ns",
             Median(tracer.DurationsUs("serve.protocol.render")) * 1e3 /
                 kPerSpan,
             "ns");
}

/// serve.batcher.rtt_us_p50: MicroBatcher::Submit to completion, one
/// request at a time, on a worker's own batcher.
double ProbeBatcher(serve::MicroBatcher& batcher, const std::string& model_id,
                    const Dataset& pool, Tracer& tracer) {
  for (size_t i = 0; i < kProbes; ++i) {
    serve::Request request;
    request.id = i + 1;
    request.verb = serve::RequestVerb::kClassify;
    const auto x = pool.Row(i % pool.size());
    request.point.assign(x.begin(), x.end());
    request.model_id = model_id;
    std::promise<void> done;
    std::future<void> answered = done.get_future();
    ScopedSpan span(tracer, "serve.batcher.submit", -1, i + 1);
    batcher.Submit(std::move(request),
                   [&done](const serve::Response&) { done.set_value(); });
    answered.wait();
  }
  return Median(tracer.DurationsUs("serve.batcher.submit"));
}

/// serve.batcher.* from the workers' own metrics registries (the numbers
/// STATS reports), plus the busiest worker's share of completions.
void AddBatcherMetrics(const std::vector<InProcessServer*>& workers,
                       const std::vector<uint64_t>& completed_before,
                       Report& report) {
  double batch_sum = 0.0;
  uint64_t batch_count = 0;
  std::vector<double> wait_bounds;
  std::vector<uint64_t> wait_buckets;
  uint64_t shed = 0;
  uint64_t offered = 0;
  uint64_t completed_total = 0;
  uint64_t completed_max = 0;
  for (size_t w = 0; w < workers.size(); ++w) {
    serve::Server& server = workers[w]->service();
    const serve::MicroBatcher::Snapshot snapshot = server.batcher().snapshot();
    const auto batches =
        server.registry().HistogramValue(serve::metric_names::kBatchSize);
    batch_sum += batches.sum;
    batch_count += batches.count;
    const auto waits =
        server.registry().HistogramValue(serve::metric_names::kQueueWaitUs);
    wait_bounds = waits.upper_bounds;
    wait_buckets.resize(waits.buckets.size(), 0);
    for (size_t b = 0; b < waits.buckets.size(); ++b) {
      wait_buckets[b] += waits.buckets[b];
    }
    shed += snapshot.shed;
    offered += snapshot.admitted + snapshot.shed;
    const uint64_t completed = snapshot.completed - completed_before[w];
    completed_total += completed;
    completed_max = std::max(completed_max, completed);
  }
  report.Add("serve.batcher.mean_batch_size",
             batch_count > 0 ? batch_sum / static_cast<double>(batch_count)
                             : 0.0,
             "count");
  report.Add("serve.batcher.queue_wait_us_p50",
             HistogramPercentile(wait_bounds, wait_buckets, 0.5), "us");
  report.Add("serve.batcher.shed_fraction",
             offered > 0
                 ? static_cast<double>(shed) / static_cast<double>(offered)
                 : 0.0,
             "fraction");
  if (workers.size() > 1) {
    report.Add("serve.router.worker_share_max",
               completed_total > 0 ? static_cast<double>(completed_max) /
                                         static_cast<double>(completed_total)
                                   : 0.0,
               "fraction");
  }
}

std::vector<uint64_t> CompletedCounts(
    const std::vector<InProcessServer*>& workers) {
  std::vector<uint64_t> counts;
  for (InProcessServer* worker : workers) {
    counts.push_back(worker->service().batcher().snapshot().completed);
  }
  return counts;
}

/// serve-write's gate: with no request in flight, wire CLASSIFY labels
/// must equal in-process ClassifyWithOverlay labels of the server's
/// current generation. Retries when a background rebuild swaps the
/// generation mid-check.
LabelCheck CheckStreamingLabels(InProcessServer& server, const Dataset& pool,
                                const std::vector<std::string>& texts,
                                size_t sample) {
  LabelCheck check;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const std::shared_ptr<serve::ServingModel> model =
        server.service().batcher().model();
    const std::unique_ptr<Connection> link = Connection::Dial(server.port());
    if (link == nullptr) return check;
    std::vector<std::string> wire;
    for (size_t k = 0; k < sample; ++k) {
      const std::optional<std::string> reply = link->Call(
          std::to_string(k + 1) + " CLASSIFY " + texts[k % texts.size()]);
      const std::optional<ParsedResponse> parsed =
          reply.has_value() ? ParseResponse(*reply) : std::nullopt;
      wire.push_back(parsed.has_value() && parsed->code == "OK" ? parsed->body
                                                                : "");
    }
    if (server.service().batcher().model() != model) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    check = LabelCheck();
    for (size_t k = 0; k < sample; ++k) {
      const auto x = pool.Row(k % pool.size());
      const Classification label =
          model->overlay != nullptr
              ? tkdc::api::ClassifyWithOverlay(*model->classifier, x,
                                               *model->overlay)
              : tkdc::api::Classify(*model->classifier, x);
      ++check.checked;
      if (wire[k] == LabelText(label)) ++check.agreed;
    }
    if (server.service().batcher().model() == model) return check;
  }
  check.checked = sample;
  check.agreed = 0;
  return check;
}

/// Everything the serve workloads send, generated from --seed: eight
/// gauss-2d models trained and written to disk, the in-process label of
/// every (model, query point) pair, a pool of query points and a pool of
/// points to INSERT, all pre-formatted as request text.
struct ServeFixture {
  std::vector<std::string> paths;
  std::vector<Dataset> data;
  std::vector<std::vector<Classification>> expected;
  Dataset pool{2};
  Dataset inserts{2};
  std::vector<std::string> texts;
  std::vector<std::string> insert_texts;
};

bool MakeFixture(const RunArgs& args, ServeFixture* fixture, Report& report) {
  if (!WriteModels(args.scratch + "/serve", args.seed, kModels,
                   &fixture->paths, &fixture->data, report)) {
    return false;
  }
  fixture->pool = tkdc::MakeDataset(tkdc::DatasetId::kGauss, kPoolPoints,
                                    PoolSeed(args.seed));
  fixture->inserts = tkdc::MakeDataset(tkdc::DatasetId::kGauss, kPoolPoints,
                                       InsertSeed(args.seed));
  fixture->texts = PointTexts(fixture->pool);
  fixture->insert_texts = PointTexts(fixture->inserts);
  for (const std::string& path : fixture->paths) {
    auto loaded = tkdc::api::LoadAny(path);
    if (!loaded.ok()) {
      report.Fail("LoadAny failed: " + loaded.status().message());
      return false;
    }
    fixture->expected.push_back(
        loaded.value().single()->ClassifyBatch(fixture->pool));
  }
  return true;
}

/// The open-loop and closed-loop op plans of a serve workload.
struct Plans {
  std::vector<Op> open;
  std::vector<Op> closed;
};

Plans MakePlans(uint64_t seed, int seconds, const ServeSpec& spec,
                size_t models) {
  OpPlanOptions options;
  options.models = models;
  options.points = kPoolPoints;
  options.insert_share = spec.insert_share;
  options.count = ScaledCount(spec.open_ops, seconds);
  options.rate_per_s = spec.open_rate_per_s;
  Plans plans;
  plans.open = MakeOpPlan(seed, options);
  options.count = ScaledCount(spec.closed_ops, seconds);
  options.rate_per_s = 0.0;
  plans.closed = MakeOpPlan(seed + 1, options);
  return plans;
}

/// INSERT ops in a plan.
size_t Inserts(const std::vector<Op>& ops) {
  return static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](const Op& op) { return op.kind == OpKind::kInsert; }));
}

/// serve-read traffic: CLASSIFY @<id>, each label checked against the
/// in-process label of the same model and point.
PayloadFn ReadPayload(const ServeFixture& fixture, const Fleet& fleet,
                      const std::vector<Op>& ops) {
  return [&fixture, &fleet, &ops](size_t i) {
    return "CLASSIFY @" + fleet.ids[ops[i].model] + " " +
           fixture.texts[ops[i].point];
  };
}

CheckFn ReadCheck(const ServeFixture& fixture, const std::vector<Op>& ops) {
  return [&fixture, &ops](size_t i, std::string_view body) {
    return body == LabelText(fixture.expected[ops[i].model][ops[i].point]);
  };
}

/// serve-write traffic: scope-less CLASSIFY and INSERT. Labels during
/// traffic depend on how the inserts interleave, so they are checked at
/// quiescent points instead (CheckStreamingLabels).
PayloadFn WritePayload(const ServeFixture& fixture,
                       const std::vector<Op>& ops) {
  return [&fixture, &ops](size_t i) {
    return ops[i].kind == OpKind::kInsert
               ? "INSERT " + fixture.insert_texts[ops[i].point]
               : "CLASSIFY " + fixture.texts[ops[i].point];
  };
}

/// Runs the streaming-label gate on `server` and books it.
void QuiescentCheck(InProcessServer& server, const ServeFixture& fixture,
                    const std::string& name, LabelCheck* total,
                    Report& report) {
  const LabelCheck check =
      CheckStreamingLabels(server, fixture.pool, fixture.texts, 200);
  report.Phase(name, check.checked, check.agreed);
  total->checked += check.checked;
  total->agreed += check.agreed;
  if (check.agreed != check.checked) {
    report.Fail(name + ": wire labels differ from in-process labels");
  }
}

double Rebuilds(InProcessServer& server) {
  return static_cast<double>(server.service().registry().CounterValue(
      serve::metric_names::kRebuilds));
}

/// Sets up the fleet kSetups times, timing each; keeps the last one.
std::unique_ptr<Fleet> SetUpFleets(const ServeFixture& fixture,
                                   std::vector<double>* setup_s,
                                   Tracer& tracer, Report& report) {
  std::unique_ptr<Fleet> fleet;
  for (size_t k = 0; k < kSetups; ++k) {
    fleet.reset();
    std::string error;
    const Clock::time_point start = Clock::now();
    fleet = StartFleet(fixture.paths, tracer, &error);
    setup_s->push_back(Seconds(Clock::now() - start));
    if (fleet == nullptr) {
      report.Phase("setup.fleet", k + 1, k);
      report.Fail("fleet setup failed: " + error);
      return nullptr;
    }
  }
  report.Phase("setup.fleet", kSetups, kSetups);
  return fleet;
}

}  // namespace

void RunServeRead(const RunArgs& args, Tracer& tracer, Report& report) {
  if (args.trace) {
    const Dataset train = tkdc::MakeDataset(
        tkdc::DatasetId::kGauss, kModelRows, ModelSeed(args.seed, 0));
    const Dataset pool = tkdc::MakeDataset(tkdc::DatasetId::kGauss,
                                           kPoolPoints, PoolSeed(args.seed));
    report.Add("bench.trace_overhead",
               MeasureEngineLayers(
                   {&train, &pool, ModelOptions().config, nullptr},
                   tracer, report),
               "ratio");
    return;
  }
  ServeFixture fixture;
  if (!MakeFixture(args, &fixture, report)) return;
  const Plans plans = MakePlans(args.seed, args.seconds, kRead, kModels);
  std::vector<double> setup_s;
  const std::unique_ptr<Fleet> fleet =
      SetUpFleets(fixture, &setup_s, tracer, report);
  if (fleet == nullptr) return;

  const size_t connections = Connections();
  const uint16_t port = fleet->router->port();
  const PhaseResult open = RunOpenLoop(
      port, connections, plans.open, ReadPayload(fixture, *fleet, plans.open),
      ReadCheck(fixture, plans.open), tracer, "serve.open_loop");
  BookPhase("open_loop", open, report);
  CheckGeneratorLag("open_loop", open, report);
  const PhaseResult closed =
      RunClosedLoop(port, connections, kWindow, plans.closed,
                    ReadPayload(fixture, *fleet, plans.closed),
                    ReadCheck(fixture, plans.closed), tracer,
                    "serve.closed_loop");
  BookPhase("closed_loop", closed, report);
  CheckLittlesLaw("closed_loop", closed, connections * kWindow, report);
  LabelCheck labels;
  labels.checked = open.checked + closed.checked;
  labels.agreed = open.matched + closed.matched;
  AddServeMetrics(setup_s, open, closed, labels, report);
}

void RunServeWrite(const RunArgs& args, Tracer& tracer, Report& report) {
  if (args.trace) {
    const Dataset train = tkdc::MakeDataset(
        tkdc::DatasetId::kGauss, kModelRows, ModelSeed(args.seed, 0));
    const Dataset pool = tkdc::MakeDataset(tkdc::DatasetId::kGauss,
                                           kPoolPoints, PoolSeed(args.seed));
    const Dataset inserts = tkdc::MakeDataset(
        tkdc::DatasetId::kGauss, kPoolPoints, InsertSeed(args.seed));
    // The overlay fill the engine folds: half the rebuild trigger, the
    // mean fill between two rebuilds.
    tkdc::DeltaOverlay overlay(2, kPoolPoints);
    for (size_t i = 0; i < kRebuildFraction * kModelRows / 2; ++i) {
      overlay.Insert(inserts.Row(i));
    }
    report.Add("bench.trace_overhead",
               MeasureEngineLayers(
                   {&train, &pool, ModelOptions().config, &overlay},
                   tracer, report),
               "ratio");
    return;
  }
  ServeFixture fixture;
  if (!MakeFixture(args, &fixture, report)) return;
  const Plans plans = MakePlans(args.seed, args.seconds, kWrite, 1);
  const size_t inserts =
      std::max(Inserts(plans.open), Inserts(plans.closed));

  // The first server takes the open loop, the second the closed loop, the
  // third only times setup, so each phase starts from an empty overlay.
  std::vector<std::unique_ptr<InProcessServer>> servers;
  std::vector<double> setup_s;
  for (size_t k = 0; k < kSetups; ++k) {
    std::string error;
    const Clock::time_point start = Clock::now();
    servers.push_back(
        StartStreamingServer(fixture.paths[0], inserts, tracer, &error));
    setup_s.push_back(Seconds(Clock::now() - start));
    if (servers.back() == nullptr) {
      report.Phase("setup.server", k + 1, k);
      report.Fail("server setup failed: " + error);
      return;
    }
  }
  report.Phase("setup.server", kSetups, kSetups);
  servers[2]->Stop();

  const size_t connections = Connections();
  LabelCheck gate;
  const PhaseResult open = RunOpenLoop(
      servers[0]->port(), connections, plans.open,
      WritePayload(fixture, plans.open), nullptr, tracer, "serve.open_loop");
  BookPhase("open_loop", open, report);
  CheckGeneratorLag("open_loop", open, report);
  QuiescentCheck(*servers[0], fixture, "quiescent_check.open_loop", &gate,
                 report);
  servers[0]->Stop();

  const PhaseResult closed = RunClosedLoop(
      servers[1]->port(), connections, kWindow, plans.closed,
      WritePayload(fixture, plans.closed), nullptr, tracer,
      "serve.closed_loop");
  BookPhase("closed_loop", closed, report);
  CheckLittlesLaw("closed_loop", closed, connections * kWindow, report);
  std::printf("closed_loop: %.0f background rebuilds\n", Rebuilds(*servers[1]));
  QuiescentCheck(*servers[1], fixture, "quiescent_check.closed_loop", &gate,
                 report);
  AddServeMetrics(setup_s, open, closed, gate, report);
}

void MeasureServeLayers(const RunArgs& args, Tracer& tracer, Report& report) {
  ServeFixture fixture;
  if (!MakeFixture(args, &fixture, report)) return;
  const size_t connections = Connections();

  // Fleet: registry, protocol, batcher, server and router layers under
  // serve-read traffic.
  {
    const Plans plans =
        MakePlans(args.seed, kServeLayerSeconds, kRead, kModels);
    std::vector<double> setup_s;
    const std::unique_ptr<Fleet> fleet =
        SetUpFleets(fixture, &setup_s, tracer, report);
    if (fleet == nullptr) return;
    std::vector<InProcessServer*> workers = {fleet->workers[0].get(),
                                             fleet->workers[1].get()};
    report.Add("serve.registry.load_ms",
               Median(tracer.DurationsUs("serve.registry.load")) / 1e3, "ms");
    double bytes = 0.0;
    for (const std::string& id : fleet->ids) {
      bytes += static_cast<double>(serve::ApproxModelBytes(
          *workers[0]->service().model_registry().Resident(id)));
    }
    report.Add("serve.registry.model_mb",
               bytes / static_cast<double>(fleet->ids.size()) / (1 << 20),
               "MB");
    MeasureProtocol(plans.closed, ReadPayload(fixture, *fleet, plans.closed),
                    tracer, report);

    const std::vector<uint64_t> before = CompletedCounts(workers);
    const PhaseResult closed = RunClosedLoop(
        fleet->router->port(), connections, kWindow, plans.closed,
        ReadPayload(fixture, *fleet, plans.closed),
        ReadCheck(fixture, plans.closed), tracer, "serve.closed_loop");
    BookPhase("fleet.closed_loop", closed, report);
    AddBatcherMetrics(workers, before, report);

    // Hops, one request in flight: the batcher alone, direct TCP to the
    // worker that owns the model, then through the router.
    serve::HashRing ring(serve::RouterOptions().vnodes);
    ring.Add(0, workers[0]->address());
    ring.Add(1, workers[1]->address());
    size_t owned = 0;
    while (ring.Pick(fleet->ids[owned]).value() != 0) ++owned;
    const std::string scope = fleet->ids[owned];
    const PayloadFn probe = [&](size_t i) {
      return "CLASSIFY @" + scope + " " + fixture.texts[i % kPoolPoints];
    };
    const double batcher_us = ProbeBatcher(workers[0]->service().batcher(),
                                           scope, fixture.pool, tracer);
    const double server_us = Median(ProbeRoundTrips(
        workers[0]->port(), kProbes, probe, tracer, "serve.server.rtt"));
    const double router_us = Median(ProbeRoundTrips(
        fleet->router->port(), kProbes, probe, tracer, "serve.router.rtt"));
    report.Add("serve.batcher.rtt_us_p50", batcher_us, "us");
    report.Add("serve.server.rtt_us_p50", server_us, "us");
    report.Add("serve.server.hop_us", server_us - batcher_us, "us");
    report.Add("serve.router.rtt_us_p50", router_us, "us");
    report.Add("serve.router.hop_us", router_us - server_us, "us");
  }

  // Streaming: the overlay, background rebuilds and hot swaps under
  // serve-write traffic, each phase on a fresh server.
  const Plans plans = MakePlans(args.seed, kServeLayerSeconds, kWrite, 1);
  const size_t inserts = std::max(Inserts(plans.open), Inserts(plans.closed));
  std::string error;
  std::unique_ptr<InProcessServer> server =
      StartStreamingServer(fixture.paths[0], inserts, tracer, &error);
  if (server == nullptr) {
    report.Fail("server setup failed: " + error);
    return;
  }
  const PhaseResult open = RunOpenLoop(
      server->port(), connections, plans.open,
      WritePayload(fixture, plans.open), nullptr, tracer, "stream.open_loop");
  BookPhase("stream.open_loop", open, report);
  CheckGeneratorLag("stream.open_loop", open, report);
  report.Add("bench.generator_lag_us_p90", Percentile(open.lag_us, 0.9), "us");
  // The phase's per-kind round trips: the durations of its client.insert
  // and client.classify spans.
  report.Add("serve.stream.insert_rtt_us_p50",
             Median(open.rtt_us[static_cast<int>(OpKind::kInsert)]), "us");
  report.Add("serve.stream.classify_rtt_us_p50",
             Median(open.rtt_us[static_cast<int>(OpKind::kClassify)]), "us");
  server = StartStreamingServer(fixture.paths[0], inserts, tracer, &error);
  if (server == nullptr) {
    report.Fail("server setup failed: " + error);
    return;
  }
  const PhaseResult closed = RunClosedLoop(
      server->port(), connections, kWindow, plans.closed,
      WritePayload(fixture, plans.closed), nullptr, tracer,
      "stream.closed_loop");
  BookPhase("stream.closed_loop", closed, report);
  report.Add("serve.stream.rebuilds", Rebuilds(*server), "count");
  LabelCheck gate;
  QuiescentCheck(*server, fixture, "stream.quiescent_check", &gate, report);
  {
    ScopedSpan span(tracer, "serve.stream.rebuild");
    const auto rebuilt = server->service().RebuildNow();
    if (!rebuilt.ok()) {
      report.Fail("rebuild failed: " + rebuilt.status().message());
    }
  }
  report.Add("serve.stream.rebuild_ms",
             Median(tracer.DurationsUs("serve.stream.rebuild")) / 1e3, "ms");
}

}  // namespace perfbench
