#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tkdc/classifier.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

/// Reservoir size of the online threshold estimator.
constexpr size_t kThresholdReservoir = 1024;

/// Failure probability of the online threshold band.
constexpr double kThresholdDelta = 0.05;

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Result<std::unique_ptr<Server>> Server::Create(ServerOptions options) {
  // A client that disconnects mid-response must not kill the daemon with
  // SIGPIPE; failed writes are handled per-connection (FrameWriter).
  std::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<Server> server(new Server(std::move(options)));
  Server* raw = server.get();
  // Every slot loads through LoadServingModel, so all generations get
  // identical threading/metrics/streaming setup. Registered metrics appear
  // append-only, which the late registration contract permits
  // mid-serving.
  RegistryOptions registry_options;
  registry_options.max_resident_bytes = server->options_.max_resident_bytes;
  registry_options.preload = server->options_.preload_models;
  server->model_registry_ = std::make_unique<ModelRegistry>(
      registry_options,
      [raw](const std::string& path)
          -> Result<std::shared_ptr<ServingModel>> {
        return raw->LoadServingModel(path);
      },
      &server->registry_);
  auto model = server->LoadServingModel(server->options_.model_path);
  if (!model.ok()) return model.status();
  // The startup model becomes the pinned default slot.
  const Status published =
      server->model_registry_->Publish(kDefaultModelId, model.take());
  if (!published.ok()) return published;
  if (!server->options_.model_dir.empty()) {
    const Status scan =
        server->model_registry_->ScanModelDir(server->options_.model_dir);
    if (!scan.ok()) return scan;
  }
  server->batcher_ = std::make_unique<MicroBatcher>(
      server->options_.batcher, server->model_registry_.get(),
      &server->registry_);
  // The rebuild worker always runs: even when the default model is
  // static, LOAD can register streaming slots at any time.
  server->batcher_->SetRebuildRequestCallback(
      [raw](const std::string& id) { raw->RequestRebuild(id); });
  server->rebuild_worker_ = std::thread([raw] { raw->RebuildWorker(); });
  server->batcher_->Start();
  return server;
}

Result<std::shared_ptr<ServingModel>> Server::LoadServingModel(
    const std::string& path) {
  auto loaded = api::LoadAny(path);
  if (!loaded.ok()) return loaded.status();
  api::ModelHandle handle = loaded.take();
  handle.SetNumThreads(options_.num_threads);
  handle.AttachMetrics(&registry_);
  auto model = std::make_shared<ServingModel>();
  model->source_path = path;
  if (handle.kind() == ModelKind::kMultiClass) {
    model->mc_classifier = handle.TakeMulti();
  } else {
    model->classifier = handle.TakeSingle();
  }
  model->generation =
      generation_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  model->last_rebuild_ms = NowUnixMs();
  // Multi-class generations never stream: mutations have no class label in
  // the wire grammar, so INSERT/DELETE/FLUSH are answered with ERR.
  if (options_.overlay_capacity > 0 && model->classifier != nullptr &&
      model->classifier->supports_overlay()) {
    // Fresh streaming generation: a (re)load discards any prior overlay —
    // the file on disk is the new truth — and seeds a new estimator.
    SetUpStreaming(*model, nullptr);
  }
  return model;
}

void Server::SetUpStreaming(
    ServingModel& model, std::shared_ptr<OnlineThresholdEstimator> estimator) {
  DensityClassifier& classifier = *model.classifier;
  const size_t dims = classifier.dims();
  model.overlay =
      std::make_shared<DeltaOverlay>(dims, options_.overlay_capacity);
  model.streaming = true;

  Dataset base(dims);
  if (classifier.ExportTrainingData(&base)) {
    model.base_data = std::make_shared<const Dataset>(std::move(base));
    model.live_counts =
        std::make_unique<std::unordered_map<std::string, int64_t>>();
    model.live_counts->reserve(model.base_data->size());
    for (size_t i = 0; i < model.base_data->size(); ++i) {
      ++(*model.live_counts)[PointKey(model.base_data->Row(i))];
    }
    if (options_.rebuild_fraction > 0.0) {
      const double fraction =
          options_.rebuild_fraction *
          static_cast<double>(model.base_data->size());
      model.rebuild_trigger =
          std::min(options_.overlay_capacity,
                   std::max<size_t>(16, static_cast<size_t>(fraction)));
    }
  }

  // Seed densities for the online t(p) reservoir: the cached training
  // densities when the model carries them (tkdc/nocut), else fresh
  // estimates over a prefix of the exported base rows. Engines exporting
  // neither (binned) start with an empty reservoir that fills from
  // arrivals.
  std::vector<double> seed;
  if (const auto* tkdc_classifier =
          dynamic_cast<const TkdcClassifier*>(&classifier);
      tkdc_classifier != nullptr &&
      !tkdc_classifier->training_densities().empty()) {
    const auto& densities = tkdc_classifier->training_densities();
    seed.assign(densities.begin(), densities.end());
  } else if (model.base_data != nullptr) {
    const size_t rows =
        std::min(kThresholdReservoir, model.base_data->size());
    seed.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      seed.push_back(classifier.EstimateDensity(model.base_data->Row(i)));
    }
  }
  if (estimator == nullptr) {
    auto options = api::RecoverTrainOptions(classifier);
    const double p = options.ok() ? options.value().config.p : 0.01;
    estimator = std::make_shared<OnlineThresholdEstimator>(
        p, kThresholdDelta, kThresholdReservoir,
        options.ok() ? options.value().config.seed : 0);
  }
  estimator->Reseed(seed);
  model.estimator = std::move(estimator);
}

Status Server::Reload(const std::string& path, const std::string& id) {
  // Serialized: concurrent RELOAD requests (or RELOAD racing SIGHUP or a
  // rebuild) publish one at a time.
  std::lock_guard<std::mutex> lock(reload_mutex_);
  return model_registry_->Reload(id, path);
}

Result<uint64_t> Server::RebuildNow(const std::string& model_id) {
  // Same lock as Reload: publications are serialized, so at most one
  // PublishRebuild is pending at any time (the batcher checks this).
  std::lock_guard<std::mutex> lock(reload_mutex_);
  // Resident slots only: a rebuild folds live overlay state, which a
  // non-resident (or unknown) slot does not have.
  const std::shared_ptr<ServingModel> old_model =
      model_registry_->Resident(model_id);
  if (old_model == nullptr) {
    return Errorf() << "model \"" << model_id
                    << "\" is not resident; nothing to flush";
  }
  if (!old_model->streaming) {
    return Errorf() << "model is not streaming-capable; nothing to flush";
  }
  if (old_model->base_data == nullptr) {
    return Errorf() << "model retains no training points ("
                    << old_model->classifier->name()
                    << "); cannot rebuild from the overlay";
  }
  const DeltaOverlay& overlay = *old_model->overlay;
  const DeltaOverlay::Snapshot snap = overlay.snapshot();

  // Merge: base ∪ inserted[0, snap.inserted) minus one point per
  // tombstone (coordinate multiset match — the same identity the kernel
  // cancellation uses). Tombstones loaded before inserts in the snapshot,
  // so every tombstone's target is present.
  const Dataset& base = *old_model->base_data;
  const size_t dims = base.dims();
  std::unordered_map<std::string, int64_t> tombstones;
  std::vector<double> row(dims);
  for (size_t i = 0; i < snap.tombstones; ++i) {
    overlay.CopyTombstoneRow(i, row);
    ++tombstones[PointKey(std::span<const double>(row))];
  }
  const auto keep = [&tombstones](std::span<const double> r) {
    if (tombstones.empty()) return true;
    const auto it = tombstones.find(PointKey(r));
    if (it == tombstones.end() || it->second <= 0) return true;
    --it->second;
    return false;
  };
  Dataset merged(dims);
  merged.Reserve(base.size() + snap.inserted);
  for (size_t i = 0; i < base.size(); ++i) {
    const std::span<const double> r = base.Row(i);
    if (keep(r)) merged.AppendRow(r);
  }
  for (size_t i = 0; i < snap.inserted; ++i) {
    overlay.CopyInsertedRow(i, row);
    if (keep(row)) merged.AppendRow(row);
  }
  if (merged.size() < 2) {
    return Errorf() << "rebuild needs at least 2 points, overlay leaves "
                    << merged.size();
  }

  auto options = api::RecoverTrainOptions(*old_model->classifier);
  if (!options.ok()) return options.status();
  auto trained = api::Train(merged, options.value());
  if (!trained.ok()) return trained.status();

  auto fresh = std::make_shared<ServingModel>();
  fresh->classifier = trained.take();
  fresh->source_path = old_model->source_path;
  fresh->classifier->SetNumThreads(options_.num_threads);
  fresh->classifier->AttachMetrics(&registry_);
  fresh->generation =
      generation_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  fresh->last_rebuild_ms = NowUnixMs();
  // Carry the estimator: SetUpStreaming reseeds it from the rebuilt
  // model, re-tightening the band the staleness widening had loosened.
  SetUpStreaming(*fresh, old_model->estimator);
  const uint64_t new_base = fresh->classifier->training_size();
  if (!batcher_->PublishRebuild(std::move(fresh), model_id, snap.inserted,
                                snap.tombstones)) {
    return Errorf() << "server stopping; rebuild not installed";
  }
  return new_base;
}

void Server::RequestRebuild(const std::string& model_id) {
  {
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    if (rebuild_worker_exit_) return;
    for (const std::string& pending : rebuild_requested_ids_) {
      if (pending == model_id) return;  // Already queued.
    }
    rebuild_requested_ids_.push_back(model_id);
  }
  rebuild_cv_.notify_one();
}

void Server::RebuildWorker() {
  std::unique_lock<std::mutex> lock(rebuild_mutex_);
  while (true) {
    rebuild_cv_.wait(lock, [this] {
      return rebuild_worker_exit_ || !rebuild_requested_ids_.empty();
    });
    if (rebuild_worker_exit_) return;
    const std::string model_id = rebuild_requested_ids_.front();
    rebuild_requested_ids_.erase(rebuild_requested_ids_.begin());
    lock.unlock();
    const Result<uint64_t> result = RebuildNow(model_id);
    if (!result.ok()) {
      // Keep serving base + overlay; an operator-visible note, never an
      // abort. The next trigger retries.
      std::fprintf(stderr, "background rebuild for @%s failed: %s\n",
                   model_id.c_str(), result.status().message().c_str());
    }
    lock.lock();
  }
}

bool Server::PollStop() {
  if (options_.reload != nullptr &&
      options_.reload->exchange(false, std::memory_order_relaxed)) {
    if (const Status status = Reload(""); !status.ok()) {
      // Keep serving the old model; the operator asked for a swap that
      // failed, which must not take the daemon down.
      std::fprintf(stderr, "reload failed: %s\n", status.message().c_str());
    }
  }
  return options_.terminate != nullptr &&
         options_.terminate->load(std::memory_order_relaxed);
}

void Server::WriteModelJson(std::ostream& json,
                            const ServingModel& model) const {
  const DeltaOverlay::Snapshot overlay =
      model.overlay != nullptr ? model.overlay->snapshot()
                               : DeltaOverlay::Snapshot{};
  const size_t base_n = model.base_points();
  json << "{\"generation\":" << model.generation
       << ",\"algorithm\":\"" << model.algorithm() << "\""
       << ",\"base_points\":" << base_n
       << ",\"streaming\":" << (model.streaming ? "true" : "false")
       << ",\"overlay_inserted\":" << overlay.inserted
       << ",\"overlay_tombstones\":" << overlay.tombstones
       << ",\"last_rebuild_unix_ms\":" << model.last_rebuild_ms;
  const auto budget_json = [&json](const ErrorBudget& budget,
                                   const CoresetInfo& coreset,
                                   uint64_t points) {
    json << ",\"error_budget\":{\"total\":" << budget.total
         << ",\"traversal\":" << budget.traversal
         << ",\"coreset\":" << budget.coreset
         << ",\"fast_math\":" << budget.fast_math << "}"
         << ",\"coreset\":{\"enabled\":"
         << (coreset.enabled ? "true" : "false")
         << ",\"points\":" << points
         << ",\"original_points\":" << coreset.original_size
         << ",\"compression_ratio\":" << coreset.CompressionRatio(points)
         << ",\"achieved_error\":" << coreset.achieved_error
         << ",\"halvings\":" << coreset.halvings << "}";
  };
  double coreset_band = 0.0;
  if (model.classifier != nullptr) {
    json << ",\"trained_threshold\":" << model.classifier->threshold();
    if (const auto* tkdc_classifier = dynamic_cast<const TkdcClassifier*>(
            model.classifier.get())) {
      const CoresetInfo& coreset = tkdc_classifier->coreset_info();
      budget_json(tkdc_classifier->error_budget(), coreset,
                  tkdc_classifier->training_size());
      if (coreset.enabled) {
        coreset_band = tkdc_classifier->error_budget().coreset;
      }
    }
  } else {
    const MultiClassClassifier& mc = *model.mc_classifier;
    json << ",\"classes\":" << mc.num_classes();
    // Aggregate across classes: summed point counts, and compression
    // counts as engaged if any class compressed.
    CoresetInfo merged;
    uint64_t points = 0;
    for (size_t c = 0; c < mc.num_classes(); ++c) {
      const CoresetInfo& part = mc.class_part(c).coreset_info();
      merged.enabled = merged.enabled || part.enabled;
      merged.original_size += part.original_size;
      merged.achieved_error =
          std::max(merged.achieved_error, part.achieved_error);
      merged.halvings = std::max(merged.halvings, part.halvings);
      points += mc.class_part(c).training_size();
    }
    budget_json(mc.config().ResolveBudget(), merged, points);
  }
  if (model.estimator != nullptr) {
    const double n_eff = static_cast<double>(base_n) +
                         static_cast<double>(overlay.inserted) -
                         static_cast<double>(overlay.tombstones);
    const double staleness =
        n_eff > 0.0 ? static_cast<double>(overlay.size()) / n_eff : 0.0;
    // A compressed model's densities (and so the reservoir feeding the
    // online estimator) deviate from the exact KDE by up to the coreset
    // share; widen the published band by it so the interval still
    // covers the exact-KDE threshold.
    const OnlineThresholdEstimator::Band band =
        model.estimator->Estimate(staleness, coreset_band);
    json << ",\"online_threshold\":" << band.threshold
         << ",\"online_threshold_lower\":" << band.lower
         << ",\"online_threshold_upper\":" << band.upper
         << ",\"online_threshold_sample\":" << band.sample_size
         << ",\"observed_inserts\":" << band.observed;
  }
  json << "}";
}

void Server::Dispatch(std::string_view payload,
                      const std::shared_ptr<FrameWriter>& writer) {
  auto parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    writer->Write(
        Response::Error(BestEffortRequestId(payload), parsed.message()));
    return;
  }
  Request request = parsed.take();
  const std::string scope(ModelIdOrDefault(request.model_id));
  switch (request.verb) {
    case RequestVerb::kPing:
      writer->Write(Response::Ok(request.id, "PONG"));
      return;
    case RequestVerb::kStats: {
      // snapshot() folds pending serve counters into the registry first,
      // so the JSON is current as of this request.
      batcher_->snapshot();
      std::ostringstream json;
      json << std::setprecision(17);
      if (scope != kDefaultModelId) {
        const std::shared_ptr<ServingModel> model =
            model_registry_->Resident(scope);
        if (model == nullptr) {
          writer->Write(Response::Error(
              request.id, "model \"" + scope +
                              "\" is not resident (unknown, unloaded, or "
                              "evicted)"));
          return;
        }
        json << "{\"model_id\":\"" << scope << "\",\"model\":";
        WriteModelJson(json, *model);
      } else {
        // The flat block keeps the default model's single-model shape for
        // scope-less clients; the "models" map nests one block per
        // resident model, the default first.
        json << "{\"model\":";
        WriteModelJson(json, *batcher_->model());
        json << ",\"models\":{";
        const char* separator = "";
        for (const std::string& id : model_registry_->ResidentIds()) {
          const std::shared_ptr<ServingModel> resident =
              model_registry_->Resident(id);
          if (resident == nullptr) continue;  // Evicted since listing.
          json << separator << "\"" << id << "\":";
          WriteModelJson(json, *resident);
          separator = ",";
        }
        json << "}";
      }
      json << ",\"metrics\":";
      registry_.WriteJson(json);
      json << "}";
      writer->Write(Response::Ok(request.id, json.str()));
      return;
    }
    case RequestVerb::kModels: {
      std::ostringstream json;
      json << "{\"models\":[";
      const char* separator = "";
      for (const ModelRegistry::Entry& entry : model_registry_->List()) {
        json << separator << "{\"id\":\"" << entry.id << "\",\"path\":\""
             << entry.path
             << "\",\"resident\":" << (entry.resident ? "true" : "false")
             << ",\"generation\":" << entry.generation
             << ",\"approx_bytes\":" << entry.approx_bytes << "}";
        separator = ",";
      }
      json << "],\"registry_resident_bytes\":"
           << model_registry_->resident_bytes()
           << ",\"max_resident_bytes\":" << options_.max_resident_bytes
           << "}";
      writer->Write(Response::Ok(request.id, json.str()));
      return;
    }
    case RequestVerb::kLoad: {
      const Status status =
          model_registry_->Load(request.model_id, request.path);
      writer->Write(status.ok()
                        ? Response::Ok(request.id, "LOADED " + request.model_id)
                        : Response::Error(request.id, status.message()));
      return;
    }
    case RequestVerb::kUnload: {
      const Status status = model_registry_->Unload(request.model_id);
      writer->Write(
          status.ok()
              ? Response::Ok(request.id, "UNLOADED " + request.model_id)
              : Response::Error(request.id, status.message()));
      return;
    }
    case RequestVerb::kReload: {
      const Status status = Reload(request.path, scope);
      writer->Write(status.ok()
                        ? Response::Ok(request.id, "RELOADED")
                        : Response::Error(request.id, status.message()));
      return;
    }
    case RequestVerb::kFlush: {
      // Control plane, but potentially slow (a full retrain): runs on this
      // connection thread, serialized with RELOAD. The data plane keeps
      // batching against base + overlay until the swap installs.
      const Result<uint64_t> result = RebuildNow(scope);
      writer->Write(result.ok()
                        ? Response::Ok(request.id,
                                       "REBUILT " +
                                           std::to_string(result.value()))
                        : Response::Error(request.id, result.message()));
      return;
    }
    case RequestVerb::kClassify:
    case RequestVerb::kClassifyTraining:
    case RequestVerb::kClassifyMc:
    case RequestVerb::kEstimateDensity:
    case RequestVerb::kInsert:
    case RequestVerb::kDelete:
      // Data plane: through admission control and the micro-batcher. The
      // completion (OK/ERR/OVERLOADED/TIMEOUT) is written exactly once —
      // inline on rejection, from the dispatcher otherwise. The writer is
      // captured shared so it outlives this connection's read loop if the
      // response lands during the final drain.
      batcher_->Submit(std::move(request), [writer](const Response& response) {
        writer->Write(response);
      });
      return;
  }
}

void Server::ServeConnection(int in_fd, int out_fd, Framing framing) {
  ServeFrames(in_fd, out_fd, framing, [this] { return PollStop(); },
              [this](std::string_view payload,
                     const std::shared_ptr<FrameWriter>& writer) {
                Dispatch(payload, writer);
              });
}

int Server::RunPipe(int in_fd, int out_fd) {
  ServeConnection(in_fd, out_fd, Framing::kLine);
  Shutdown();
  return 0;
}

int Server::RunTcp(uint16_t port, std::ostream& announce) {
  // Sessions observe the same terminate flag within a poll interval; their
  // admitted requests are answered by Shutdown()'s drain through the
  // writers the completions hold alive.
  const int code = RunAcceptLoop(
      port, announce, [this] { return PollStop(); },
      [this](int fd) { ServeConnection(fd, fd, Framing::kLengthPrefixed); });
  Shutdown();
  return code;
}

void Server::Shutdown() {
  if (shutdown_done_.exchange(true)) return;
  // Retire the rebuild worker first: flag it, then stop the batcher so a
  // PublishRebuild it may be blocked in returns, then join.
  {
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    rebuild_worker_exit_ = true;
  }
  rebuild_cv_.notify_all();
  if (batcher_ == nullptr) {
    if (rebuild_worker_.joinable()) rebuild_worker_.join();
    return;  // Create() failed before assembly.
  }
  batcher_->Stop();  // Drains: every admitted request answered.
  if (rebuild_worker_.joinable()) rebuild_worker_.join();
  // Final fold of the current model's query-path counters (the dispatcher
  // flushed per batch; this catches work since the last batch).
  batcher_->model()->FlushMetrics();
  if (options_.metrics_out.empty()) return;
  std::ofstream out(options_.metrics_out);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options_.metrics_out.c_str());
    return;
  }
  registry_.WriteJson(out);
  out << "\n";
}

}  // namespace tkdc::serve
