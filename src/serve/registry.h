#ifndef TKDC_SERVE_REGISTRY_H_
#define TKDC_SERVE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "serve/batcher.h"

namespace tkdc::serve {

/// Name of a per-model metric: "serve.model.<id>.<suffix>".
std::string ModelMetricName(const std::string& id, const char* suffix);

/// Per-model metric suffixes registered for every slot.
namespace model_metric_names {
inline constexpr char kRequests[] = "requests";
inline constexpr char kLoads[] = "loads";
inline constexpr char kEvictions[] = "evictions";
inline constexpr char kReloads[] = "reloads";
}  // namespace model_metric_names

struct RegistryOptions {
  /// Resident-set budget in bytes (estimated from point counts); 0 =
  /// unbounded. When a load pushes the estimate over, least-recently-used
  /// models are evicted — but never one with staged overlay mutations
  /// (its inserts/tombstones exist nowhere else).
  size_t max_resident_bytes = 0;
  /// Load every scanned model-dir slot eagerly at startup instead of on
  /// first use.
  bool preload = false;
};

/// In-process model registry: named slots keyed by model id, each holding
/// its own shared_ptr<ServingModel> with independent RCU hot-reload. It is
/// the only owner of served models: the default model (kDefaultModelId,
/// the --model flag) is a slot like any other, resolved through Acquire
/// by every batch.
///
/// A slot is (id, source path, optionally a resident generation). Slots
/// come from a --model-dir scan (every "<id>.tkdc" stem), the LOAD verb,
/// or — for the default slot only — its first Publish; Acquire() resolves
/// an id to its resident generation, lazily loading it through the
/// injected Loader on first use. Publication is RCU-style throughout:
/// swapping or evicting a slot's shared_ptr never invalidates the
/// generations in-flight batches still reference.
///
/// The default slot is pinned: LOAD/UNLOAD refuse its id, eviction never
/// touches it, and it stays out of the LRU order and resident_bytes().
///
/// Eviction: when `max_resident_bytes` is set, every load re-checks the
/// resident estimate and drops least-recently-used generations (clean
/// overlays only) until back under budget — the slot stays registered and
/// reloads on its next Acquire. The budget is soft: models that cannot be
/// evicted (dirty overlays) may hold the estimate above it.
///
/// Metrics: each slot registers serve.model.<id>.{requests,loads,
/// evictions,reloads} in the process registry at registration time —
/// late, append-only registration per the metrics contract, so slots can
/// appear (LOAD) long after serving started. Every Reload also books the
/// process-wide serve.model_reloads.
///
/// Thread safety: every method is mutex-guarded. LOAD and RELOAD
/// deserialize outside the mutex and then publish, so they never stall
/// the batches resolving through it. A cold Acquire (lazy load) runs
/// under the mutex; it is issued by the dispatcher, which would wait for
/// that load anyway.
class ModelRegistry {
 public:
  /// Builds a ServingModel from a model file. The server's loader injects
  /// thread-pool sizing, metrics attachment, and streaming setup.
  using Loader =
      std::function<Result<std::shared_ptr<ServingModel>>(const std::string&)>;

  ModelRegistry(RegistryOptions options, Loader loader,
                MetricsRegistry* metrics);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers every "<id>.tkdc" file directly under `dir` as a slot
  /// (stem = id; invalid stems and the pinned "default" are skipped with a
  /// note on stderr). With options.preload the models load now,
  /// eviction policy applied as they do; otherwise on first Acquire.
  Status ScanModelDir(const std::string& dir);

  /// Registers and loads a new slot (the LOAD verb). Errors if the id is
  /// invalid, the default, or already registered (use RELOAD to refresh
  /// an existing slot).
  Status Load(const std::string& id, const std::string& path);

  /// Loads `path` (empty = the slot's registered path) and publishes it
  /// into the existing slot `id` (the RELOAD verb). A path override does
  /// not change what the slot reloads from next time. Errors on unknown
  /// ids and failed loads; the old generation keeps serving then.
  Status Reload(const std::string& id, const std::string& path);

  /// Drops a slot entirely (the UNLOAD verb): its generation, its LRU
  /// entry, and its registration. In-flight batches keep the dropped
  /// generation alive until they finish. Errors on unknown ids.
  Status Unload(const std::string& id);

  /// Resolves `id` to its resident generation, lazily loading it if
  /// needed; touches the LRU order and adds `requests` to the slot's
  /// request counter. Errors on unknown ids and failed loads.
  Result<std::shared_ptr<ServingModel>> Acquire(const std::string& id,
                                                uint64_t requests);

  /// The resident generation of `id`, or null when the slot is unknown
  /// or not resident. Never loads; used by scoped rebuilds, which must
  /// target live state only.
  std::shared_ptr<ServingModel> Resident(const std::string& id) const;

  /// Publishes a fresh generation into an existing slot (streaming
  /// rebuild installs). RCU: the previous generation stays alive through
  /// in-flight references. Errors on unknown ids, except the default id,
  /// whose first publication (the startup model) registers the pinned
  /// slot with the model's source path.
  Status Publish(const std::string& id, std::shared_ptr<ServingModel> model);

  struct Entry {
    std::string id;
    std::string path;
    bool resident = false;
    /// Generation of the resident model; 0 when not resident.
    uint64_t generation = 0;
    /// Resident-byte estimate; 0 when not resident.
    size_t approx_bytes = 0;
  };
  /// Every slot, the default first and the rest in id order (MODELS).
  std::vector<Entry> List() const;

  /// Ids of the resident models, ordered as List() (STATS blocks).
  std::vector<std::string> ResidentIds() const;

  /// Resident-set byte estimate of the evictable slots (the default slot
  /// is not counted).
  size_t resident_bytes() const;

  size_t slot_count() const;

 private:
  struct Slot {
    std::string path;
    std::shared_ptr<ServingModel> model;  // Null when not resident.
    size_t approx_bytes = 0;
    /// Position in lru_ when resident.
    std::list<std::string>::iterator lru_pos;
    // Metric ids in metrics_ (0s when metrics_ is null).
    size_t requests_id = 0, loads_id = 0, evictions_id = 0, reloads_id = 0;
  };

  /// Adds an empty slot for `id` and registers its metric names
  /// (refreshing the shard: the schema grew, so the old one no longer
  /// spans it).
  Slot& AddSlotLocked(const std::string& id, std::string path);
  /// Books `count` onto a slot counter and folds it into the registry
  /// immediately (control-plane rates are low; immediacy beats shaving a
  /// mutex acquisition).
  void IncLocked(size_t metric_id, uint64_t count);
  /// Loads a non-resident slot through loader_ and installs it.
  Status LoadSlotLocked(const std::string& id, Slot& slot);
  /// Makes `model` the slot's resident generation and, for evictable
  /// slots, updates the byte estimate and LRU order and applies eviction.
  void InstallLocked(const std::string& id, Slot& slot,
                     std::shared_ptr<ServingModel> model);
  /// Marks `id` most recently used (no-op for the pinned default).
  void TouchLocked(const std::string& id, Slot& slot);
  /// Evicts LRU generations with clean overlays until under budget.
  /// `keep` is the id just loaded — evicting it would thrash.
  void EvictOverBudgetLocked(const std::string& keep);

  const RegistryOptions options_;
  const Loader loader_;
  MetricsRegistry* const metrics_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> slots_;
  /// Resident ids, least recently used first.
  std::list<std::string> lru_;
  size_t resident_bytes_ = 0;
  /// Vehicle for counter folds; recreated whenever a new slot's names
  /// grow the schema.
  std::unique_ptr<MetricsShard> shard_;
  /// serve.model_reloads in metrics_ (0 when metrics_ is null).
  size_t reloads_id_ = 0;
};

/// Resident-byte estimate of one generation: coordinate storage across
/// the dataset, tree, and SoA mirrors (x3), the overlay's reserved
/// buffers, plus a fixed allowance for node/threshold state.
size_t ApproxModelBytes(const ServingModel& model);

}  // namespace tkdc::serve

#endif  // TKDC_SERVE_REGISTRY_H_
