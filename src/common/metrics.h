#ifndef TKDC_COMMON_METRICS_H_
#define TKDC_COMMON_METRICS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tkdc {

class MetricsShard;

/// Registry of named counters and fixed-bucket histograms for query-path
/// observability (prune depth, cutoff reasons, per-query work, ...).
///
/// Threading model: the registry only defines the metric *schema* and holds
/// the merged totals. All hot-path recording happens on MetricsShards —
/// plain arrays owned by exactly one QueryContext (and therefore one
/// thread), so Inc()/Observe() are lock-free loads and stores. Shards fold
/// into each other through MetricsShard::Merge (the batch executor's
/// fork/join does this via QueryContext::MergeCounters) and reach the
/// registry totals only through Absorb(), which takes the registry mutex —
/// a rare event (end of a batch, an explicit flush), never per query.
///
/// Overhead policy: detached is the default and costs one null-pointer
/// branch per query at the recording sites; nothing else is touched. See
/// DESIGN.md § "Observability".
///
/// Lifecycle: registration is append-only and may happen at any point — a
/// hot-swapped model can introduce names (e.g. per-class mc.* counters)
/// the process has never seen. Shards are sized to the schema at their
/// creation; one created before a later registration is a schema *prefix*
/// of a newer one and Absorb() folds it in by index, growing the totals
/// first. The registry must outlive its shards. Registration is idempotent
/// by name, so independent attach points can re-register a shared schema
/// and receive the same ids.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a counter, returning its stable id. Re-registering an
  /// existing name returns the original id.
  size_t AddCounter(const std::string& name);

  /// Registers a histogram with the given bucket upper bounds (strictly
  /// increasing; a final +inf overflow bucket is implicit). Re-registering
  /// an existing name returns the original id (bounds must match).
  size_t AddHistogram(const std::string& name,
                      std::vector<double> upper_bounds);

  size_t counter_count() const { return counter_names_.size(); }
  size_t histogram_count() const { return histogram_names_.size(); }

  /// A fresh zeroed shard matching the current schema.
  std::unique_ptr<MetricsShard> NewShard() const;

  /// Folds a shard into the merged totals (thread-safe). The shard's
  /// schema must match the registry's (it came from NewShard()).
  void Absorb(const MetricsShard& shard);

  /// Merged total of a counter; 0 for unknown names.
  uint64_t CounterValue(const std::string& name) const;

  /// Point-in-time copy of one histogram's merged state.
  struct HistogramSnapshot {
    std::vector<double> upper_bounds;
    /// upper_bounds.size() + 1 entries; the last is the +inf overflow.
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  /// Merged snapshot of a histogram; empty snapshot for unknown names.
  HistogramSnapshot HistogramValue(const std::string& name) const;

  /// Serializes every merged counter and histogram as JSON:
  ///   {"counters": {name: value, ...},
  ///    "histograms": {name: {"count": n, "sum": s, "min": m, "max": M,
  ///                          "buckets": [{"le": bound, "count": c}, ...]}}}
  /// The final bucket's "le" is the string "inf". `indent` spaces prefix
  /// every line so callers can embed the object in a larger document.
  void WriteJson(std::ostream& out, int indent = 0) const;

  /// Exponential bucket bounds 1, 2, 4, ..., 2^(n-1) — the standard layout
  /// for per-query work counts (node expansions, kernel evaluations).
  static std::vector<double> PowerOfTwoBounds(size_t n);

  /// Decade bounds 10^lo, 10^(lo+1), ..., 10^hi for ratio-like values
  /// (relative bound gaps).
  static std::vector<double> DecadeBounds(int lo, int hi);

  /// 1-2-5 bounds 1*10^lo, 2*10^lo, 5*10^lo, 1*10^(lo+1), ..., 10^hi: three
  /// buckets per decade, for latencies whose percentiles must resolve
  /// changes smaller than 10x.
  static std::vector<double> OneTwoFiveBounds(int lo, int hi);

 private:
  friend class MetricsShard;

  size_t FindName(const std::vector<std::string>& names,
                  const std::string& name) const;

  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::vector<double>> histogram_bounds_;

  mutable std::mutex mutex_;
  std::unique_ptr<MetricsShard> totals_;  // Guarded by mutex_; lazily built.
};

/// One thread's slice of a registry's metrics: flat arrays indexed by the
/// ids AddCounter/AddHistogram returned. Owned by a single QueryContext —
/// never shared across threads — so recording needs no atomics.
class MetricsShard {
 public:
  /// Use MetricsRegistry::NewShard() instead of constructing directly.
  explicit MetricsShard(const MetricsRegistry& registry);

  void Inc(size_t counter_id, uint64_t delta = 1) {
    counters_[counter_id] += delta;
  }

  uint64_t counter(size_t counter_id) const { return counters_[counter_id]; }

  /// Records `value` into histogram `histogram_id` (linear scan over the
  /// fixed bounds: bucket layouts are small, ~20 entries).
  void Observe(size_t histogram_id, double value);

  /// Adds another shard into this one. `other` may have been created
  /// against an older (smaller) schema; its ids merge by index.
  void Merge(const MetricsShard& other);

  /// Zeroes every counter and bucket (schema unchanged).
  void Reset();

 private:
  friend class MetricsRegistry;

  struct HistogramState {
    std::vector<uint64_t> buckets;  // bounds.size() + 1, last = overflow.
    uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  /// Appends zeroed slots for ids registered after this shard was created.
  /// Only ever called on the registry's totals, under the registry mutex.
  void GrowTo(const MetricsRegistry& registry);

  std::vector<uint64_t> counters_;
  std::vector<HistogramState> histograms_;
  /// Bucket bounds copied at creation so Observe() never touches the
  /// registry's schema vectors, which may reallocate under late
  /// registration on another thread.
  std::vector<std::vector<double>> bounds_;
};

}  // namespace tkdc

#endif  // TKDC_COMMON_METRICS_H_
