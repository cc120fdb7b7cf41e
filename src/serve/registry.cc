#include "serve/registry.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/macros.h"

namespace tkdc::serve {
namespace {

/// Fixed per-model allowance for tree nodes, thresholds, and bookkeeping
/// the point-count estimate does not see.
constexpr size_t kModelOverheadBytes = 64 * 1024;

/// Model files are "<id>.tkdc"; the stem is the wire id.
constexpr char kModelSuffix[] = ".tkdc";

/// The default slot first, then id order.
bool DefaultFirst(const std::string& a, const std::string& b) {
  const bool a_default = a == kDefaultModelId;
  const bool b_default = b == kDefaultModelId;
  return a_default != b_default ? a_default : a < b;
}

}  // namespace

std::string ModelMetricName(const std::string& id, const char* suffix) {
  std::string name = "serve.model.";
  name += id;
  name += '.';
  name += suffix;
  return name;
}

size_t ApproxModelBytes(const ServingModel& model) {
  // Coordinates are stored roughly three times: the training rows, the
  // spatial index's reordered copy, and the SoA leaf mirror. An estimate
  // is all the budget needs — it gates eviction, not allocation.
  size_t bytes =
      model.base_points() * model.dims() * sizeof(double) * 3;
  if (model.overlay != nullptr) {
    // Two buffers (inserts, tombstones), reserved up front.
    bytes += model.overlay->capacity() * model.overlay->dims() *
             sizeof(double) * 2;
  }
  if (model.base_data != nullptr) {
    bytes += model.base_data->size() * model.base_data->dims() *
             sizeof(double);
  }
  return bytes + kModelOverheadBytes;
}

ModelRegistry::ModelRegistry(RegistryOptions options, Loader loader,
                             MetricsRegistry* metrics)
    : options_(options), loader_(std::move(loader)), metrics_(metrics) {
  TKDC_CHECK_MSG(loader_ != nullptr, "ModelRegistry needs a loader");
}

ModelRegistry::Slot& ModelRegistry::AddSlotLocked(const std::string& id,
                                                  std::string path) {
  Slot& slot = slots_[id];
  slot.path = std::move(path);
  slot.lru_pos = lru_.end();
  if (metrics_ == nullptr) return slot;
  // Registered with the first slot, not at construction: a server's query
  // schema must be the first one its metrics registry holds, and that
  // schema arrives with the first model load.
  reloads_id_ = metrics_->AddCounter(metric_names::kReloads);
  slot.requests_id = metrics_->AddCounter(
      ModelMetricName(id, model_metric_names::kRequests));
  slot.loads_id =
      metrics_->AddCounter(ModelMetricName(id, model_metric_names::kLoads));
  slot.evictions_id = metrics_->AddCounter(
      ModelMetricName(id, model_metric_names::kEvictions));
  slot.reloads_id = metrics_->AddCounter(
      ModelMetricName(id, model_metric_names::kReloads));
  // The schema grew: the previous shard no longer spans it.
  shard_ = metrics_->NewShard();
  return slot;
}

void ModelRegistry::IncLocked(size_t metric_id, uint64_t count) {
  if (metrics_ == nullptr || shard_ == nullptr || count == 0) return;
  shard_->Inc(metric_id, count);
  metrics_->Absorb(*shard_);
  shard_->Reset();
}

Status ModelRegistry::ScanModelDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Errorf() << "cannot open model dir " << dir;
  }
  std::vector<std::string> ids;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const size_t suffix_len = sizeof(kModelSuffix) - 1;
    if (name.size() <= suffix_len ||
        name.compare(name.size() - suffix_len, suffix_len, kModelSuffix) !=
            0) {
      continue;
    }
    const std::string id = name.substr(0, name.size() - suffix_len);
    if (!IsValidModelId(id) || id == kDefaultModelId) {
      std::fprintf(stderr,
                   "model dir: skipping %s (stem is not a usable model id)\n",
                   name.c_str());
      continue;
    }
    ids.push_back(id);
  }
  ::closedir(handle);
  std::sort(ids.begin(), ids.end());

  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& id : ids) {
    if (slots_.count(id) != 0) continue;  // LOAD beat the scan; keep it.
    Slot& slot = AddSlotLocked(id, prefix + id + kModelSuffix);
    if (options_.preload) {
      if (const Status status = LoadSlotLocked(id, slot); !status.ok()) {
        return Errorf() << "preload of " << id << " failed: "
                        << status.message();
      }
    }
  }
  return Status::Ok();
}

Status ModelRegistry::Load(const std::string& id, const std::string& path) {
  if (!IsValidModelId(id)) {
    return Errorf() << "bad model id \"" << id
                    << "\" (want 1-64 chars of [A-Za-z0-9_.-])";
  }
  if (id == kDefaultModelId) {
    return Errorf() << "\"default\" is the --model slot; use RELOAD";
  }
  const auto already = [&id]() -> Status {
    return Errorf() << "model \"" << id
                    << "\" is already registered; use RELOAD @" << id;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.count(id) != 0) return already();
  }
  // Deserialize without the mutex (every batch resolves through it), then
  // publish. A LOAD that cannot load registers nothing, so a corrected
  // retry is not forced through RELOAD.
  auto loaded = loader_(path);
  if (!loaded.ok()) return loaded.status();
  std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.count(id) != 0) return already();  // A racing LOAD won.
  Slot& slot = AddSlotLocked(id, path);
  InstallLocked(id, slot, loaded.take());
  IncLocked(slot.loads_id, 1);
  return Status::Ok();
}

Status ModelRegistry::Reload(const std::string& id, const std::string& path) {
  const auto unknown = [&id]() -> Status {
    return Errorf() << "unknown model \"" << id << "\"";
  };
  std::string effective = path;
  if (effective.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(id);
    if (it == slots_.end()) return unknown();
    effective = it->second.path;
  }
  auto loaded = loader_(effective);
  if (!loaded.ok()) return loaded.status();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(id);
  if (it == slots_.end()) return unknown();  // UNLOADed while loading.
  InstallLocked(id, it->second, loaded.take());
  IncLocked(it->second.reloads_id, 1);
  IncLocked(reloads_id_, 1);
  return Status::Ok();
}

Status ModelRegistry::Unload(const std::string& id) {
  if (id == kDefaultModelId) {
    return Errorf() << "cannot unload the default model";
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    return Errorf() << "unknown model \"" << id << "\"";
  }
  Slot& slot = it->second;
  if (slot.model != nullptr) {
    resident_bytes_ -= slot.approx_bytes;
    lru_.erase(slot.lru_pos);
  }
  // In-flight batches holding the shared_ptr keep the generation alive;
  // dropping the slot only severs the registry's reference.
  slots_.erase(it);
  return Status::Ok();
}

Result<std::shared_ptr<ServingModel>> ModelRegistry::Acquire(
    const std::string& id, uint64_t requests) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    return Errorf() << "unknown model \"" << id
                    << "\" (LOAD it or add it to --model-dir)";
  }
  Slot& slot = it->second;
  if (slot.model == nullptr) {
    if (const Status status = LoadSlotLocked(id, slot); !status.ok()) {
      return status;
    }
  }
  TouchLocked(id, slot);
  IncLocked(slot.requests_id, requests);
  return slot.model;
}

std::shared_ptr<ServingModel> ModelRegistry::Resident(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.model;
}

Status ModelRegistry::Publish(const std::string& id,
                              std::shared_ptr<ServingModel> model) {
  TKDC_CHECK(model != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    if (id != kDefaultModelId) {
      return Errorf() << "unknown model \"" << id << "\"";
    }
    AddSlotLocked(id, model->source_path);
    it = slots_.find(id);
  }
  InstallLocked(id, it->second, std::move(model));
  return Status::Ok();
}

std::vector<ModelRegistry::Entry> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> entries;
  entries.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) {
    Entry entry;
    entry.id = id;
    entry.path = slot.path;
    entry.resident = slot.model != nullptr;
    entry.generation = entry.resident ? slot.model->generation : 0;
    entry.approx_bytes = entry.resident ? slot.approx_bytes : 0;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return DefaultFirst(a.id, b.id);
            });
  return entries;
}

std::vector<std::string> ModelRegistry::ResidentIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  for (const auto& [id, slot] : slots_) {
    if (slot.model != nullptr) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), DefaultFirst);
  return ids;
}

size_t ModelRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

size_t ModelRegistry::slot_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

Status ModelRegistry::LoadSlotLocked(const std::string& id, Slot& slot) {
  auto loaded = loader_(slot.path);
  if (!loaded.ok()) return loaded.status();
  InstallLocked(id, slot, loaded.take());
  IncLocked(slot.loads_id, 1);
  return Status::Ok();
}

void ModelRegistry::InstallLocked(const std::string& id, Slot& slot,
                                  std::shared_ptr<ServingModel> model) {
  const bool pinned = id == kDefaultModelId;
  if (slot.model != nullptr && !pinned) resident_bytes_ -= slot.approx_bytes;
  slot.model = std::move(model);
  slot.approx_bytes = ApproxModelBytes(*slot.model);
  if (pinned) return;  // Never budgeted, never evicted.
  resident_bytes_ += slot.approx_bytes;
  TouchLocked(id, slot);
  EvictOverBudgetLocked(id);
}

void ModelRegistry::TouchLocked(const std::string& id, Slot& slot) {
  if (id == kDefaultModelId) return;  // Pinned: not in the LRU order.
  if (slot.lru_pos != lru_.end()) lru_.erase(slot.lru_pos);
  slot.lru_pos = lru_.insert(lru_.end(), id);
}

void ModelRegistry::EvictOverBudgetLocked(const std::string& keep) {
  if (options_.max_resident_bytes == 0) return;
  auto it = lru_.begin();
  while (resident_bytes_ > options_.max_resident_bytes &&
         it != lru_.end()) {
    const std::string& id = *it;
    Slot& slot = slots_.at(id);
    const bool dirty =
        slot.model->overlay != nullptr && !slot.model->overlay->snapshot().empty();
    if (id == keep || dirty) {
      // Staged mutations exist nowhere but this overlay; evicting would
      // lose them. Skip and look further up the LRU order.
      ++it;
      continue;
    }
    resident_bytes_ -= slot.approx_bytes;
    slot.model.reset();  // In-flight references keep it alive (RCU).
    slot.approx_bytes = 0;
    IncLocked(slot.evictions_id, 1);
    it = lru_.erase(it);
    slot.lru_pos = lru_.end();
  }
}

}  // namespace tkdc::serve
