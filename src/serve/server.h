#ifndef TKDC_SERVE_SERVER_H_
#define TKDC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace tkdc::serve {

struct ServerOptions {
  /// Trained model file of the default slot (kDefaultModelId): loaded at
  /// startup and by a flagless default RELOAD/SIGHUP.
  std::string model_path;
  /// Directory of additional "<id>.tkdc" model slots, addressed per
  /// request as @<id>. Empty = no startup scan; LOAD can still register
  /// slots at runtime.
  std::string model_dir;
  /// Resident-set byte budget for the evictable slots (0 = unbounded); LRU
  /// slots are evicted past it. The default slot is pinned: never evicted
  /// and not counted.
  size_t max_resident_bytes = 0;
  /// Load every scanned model-dir slot at startup instead of on first
  /// use.
  bool preload_models = false;
  /// Micro-batcher knobs (window, max batch, queue depth, default
  /// timeout).
  BatcherOptions batcher;
  /// Worker threads inside the batch engine (0 = hardware concurrency,
  /// 1 = serial). Labels are identical for every value.
  size_t num_threads = 0;
  /// When non-empty, the merged metrics registry is written there as JSON
  /// at shutdown.
  std::string metrics_out;
  /// Externally owned shutdown flag (SIGTERM handler sets it; tests set it
  /// directly). Null = only EOF / connection close stops the server.
  const std::atomic<bool>* terminate = nullptr;
  /// Externally owned reload flag (SIGHUP). Checked by the accept and
  /// connection loops; when set, the default slot is reloaded from
  /// `model_path` and the flag cleared. Null = reload only via RELOAD
  /// requests.
  std::atomic<bool>* reload = nullptr;

  // --- Streaming (INSERT / DELETE / FLUSH) knobs ------------------------
  /// Rows each overlay buffer (inserts, tombstones) can stage before
  /// mutations are rejected pending a rebuild. 0 disables streaming
  /// entirely (INSERT/DELETE answered with ERR, as for static models).
  size_t overlay_capacity = 4096;
  /// Background rebuild trigger: when the overlay holds more than this
  /// fraction of the base point count (but at least 16 rows), the base
  /// model is retrained on base ∪ overlay and hot-swapped. 0 = only
  /// explicit FLUSH rebuilds.
  double rebuild_fraction = 0.1;
};

/// The long-lived `tkdc_serve` daemon: owns the metrics registry, the
/// model registry (every served model, the default one included), and the
/// micro-batcher; speaks the serve protocol over TCP connections
/// (length-prefixed frames) or a pipe pair (line frames).
///
/// Request routing: classify/estimate verbs go through the admission
/// queue and the micro-batcher; control verbs (PING, STATS, RELOAD) are
/// answered inline on the connection thread so they stay responsive under
/// data-plane overload.
///
/// Shutdown contract (SIGTERM or EOF): stop admitting, execute everything
/// already admitted, write every response, then return 0 — a clean drain,
/// never an abort. Reload contract (SIGHUP or RELOAD): the new model is
/// published RCU-style; zero in-flight requests are dropped.
class Server {
 public:
  /// Loads the model and assembles the serving stack. Errors (bad path,
  /// malformed model) return Status instead of aborting.
  static Result<std::unique_ptr<Server>> Create(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Pipe mode: serves line-framed requests from `in_fd` / responses to
  /// `out_fd` until EOF or terminate, then drains. Returns the process
  /// exit code (0 on clean drain).
  int RunPipe(int in_fd, int out_fd);

  /// TCP mode: listens on 127.0.0.1:`port` (0 = ephemeral) and serves
  /// length-prefixed frames, one thread per live connection
  /// (RunAcceptLoop), until terminate.
  /// Announces "listening on 127.0.0.1:<port>" on `announce` once bound.
  /// Returns the process exit code.
  int RunTcp(uint16_t port, std::ostream& announce);

  /// Loads `path` (empty = the slot's registered path) and publishes it
  /// into the slot `id`. In-flight and queued requests all complete;
  /// serialized internally. A path override does not change what the slot
  /// reloads from next time. A reload discards any staged overlay (the
  /// file on disk is the new truth) and starts a fresh streaming
  /// generation.
  Status Reload(const std::string& path,
                const std::string& id = kDefaultModelId);

  /// Synchronously retrains `model_id`'s base model on base ∪ overlay and
  /// publishes it through the dispatcher (zero requests dropped; overlay
  /// mutations racing the retrain migrate into the new generation).
  /// Returns the new base point count. The FLUSH verb and the background
  /// rebuild worker both land here; calls serialize internally. Rebuilds
  /// target resident slots only.
  Result<uint64_t> RebuildNow(const std::string& model_id = kDefaultModelId);

  /// Drains the batcher and, when configured, writes --metrics-out.
  /// Idempotent; the Run loops call it on exit.
  void Shutdown();

  MicroBatcher& batcher() { return *batcher_; }
  MetricsRegistry& registry() { return registry_; }
  ModelRegistry& model_registry() { return *model_registry_; }

 private:
  explicit Server(ServerOptions options);

  /// Builds a ServingModel from `path`: load, thread-pool sizing, metrics
  /// attachment, and — when the engine supports the overlay fold —
  /// streaming state (overlay buffers, exported base data, DELETE
  /// validation counts, online threshold estimator).
  Result<std::shared_ptr<ServingModel>> LoadServingModel(
      const std::string& path);

  /// Fills the streaming fields of `model` (fresh generation, overlay,
  /// exported base data, estimator seeded/reseeded from `estimator`).
  void SetUpStreaming(ServingModel& model,
                      std::shared_ptr<OnlineThresholdEstimator> estimator);

  /// Non-blocking rebuild request from the dispatcher; flags the worker
  /// with the model id to rebuild.
  void RequestRebuild(const std::string& model_id);
  /// Background rebuild worker loop.
  void RebuildWorker();

  /// Writes one model's STATS object ("{...}") — generation, algorithm,
  /// overlay counts, thresholds — to `json`.
  void WriteModelJson(std::ostream& json, const ServingModel& model) const;

  /// Serves one connection until EOF/terminate; does not drain the
  /// batcher (responses for still-queued requests are written later by
  /// the dispatcher through the connection's shared writer).
  void ServeConnection(int in_fd, int out_fd, Framing framing);

  /// Answers one request payload: parse errors and control verbs inline,
  /// data verbs via the batcher.
  void Dispatch(std::string_view payload,
                const std::shared_ptr<FrameWriter>& writer);

  /// The loops' stop predicate: consumes a pending SIGHUP-style reload
  /// flag, if any (so it is served within one poll interval even when
  /// idle), then reports whether to shut down.
  bool PollStop();

  ServerOptions options_;
  MetricsRegistry registry_;
  /// Every served model, the pinned default slot included; constructed
  /// before the batcher, which resolves every batch through it.
  std::unique_ptr<ModelRegistry> model_registry_;
  std::unique_ptr<MicroBatcher> batcher_;
  /// Serializes model publications: RELOAD, SIGHUP, FLUSH, and the
  /// background rebuild all load/train one at a time.
  std::mutex reload_mutex_;
  /// Monotonic generation counter feeding ServingModel::generation.
  std::atomic<uint64_t> generation_counter_{0};

  // Rebuild worker state.
  std::mutex rebuild_mutex_;
  std::condition_variable rebuild_cv_;
  /// Model ids with a rebuild pending, deduped.
  std::vector<std::string> rebuild_requested_ids_;
  bool rebuild_worker_exit_ = false;
  std::thread rebuild_worker_;

  std::atomic<bool> shutdown_done_{false};
};

}  // namespace tkdc::serve

#endif  // TKDC_SERVE_SERVER_H_
