#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace tkdc {

size_t MetricsRegistry::FindName(const std::vector<std::string>& names,
                                 const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

size_t MetricsRegistry::AddCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t existing = FindName(counter_names_, name);
  if (existing < counter_names_.size()) return existing;
  counter_names_.push_back(name);
  return counter_names_.size() - 1;
}

size_t MetricsRegistry::AddHistogram(const std::string& name,
                                     std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t existing = FindName(histogram_names_, name);
  if (existing < histogram_names_.size()) {
    TKDC_CHECK_MSG(histogram_bounds_[existing] == upper_bounds,
                   "histogram re-registered with different buckets");
    return existing;
  }
  TKDC_CHECK_MSG(std::is_sorted(upper_bounds.begin(), upper_bounds.end()),
                 "histogram bounds must be increasing");
  histogram_names_.push_back(name);
  histogram_bounds_.push_back(std::move(upper_bounds));
  return histogram_names_.size() - 1;
}

std::unique_ptr<MetricsShard> MetricsRegistry::NewShard() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::make_unique<MetricsShard>(*this);
}

void MetricsRegistry::Absorb(const MetricsShard& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (totals_ == nullptr) {
    totals_ = std::make_unique<MetricsShard>(*this);
  } else {
    totals_->GrowTo(*this);
  }
  totals_->Merge(shard);
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t id = FindName(counter_names_, name);
  if (id == counter_names_.size() || totals_ == nullptr ||
      id >= totals_->counters_.size()) {
    return 0;
  }
  return totals_->counters_[id];
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::HistogramValue(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snapshot;
  const size_t id = FindName(histogram_names_, name);
  if (id == histogram_names_.size()) return snapshot;
  snapshot.upper_bounds = histogram_bounds_[id];
  snapshot.buckets.assign(snapshot.upper_bounds.size() + 1, 0);
  if (totals_ == nullptr || id >= totals_->histograms_.size()) {
    return snapshot;
  }
  const MetricsShard::HistogramState& state = totals_->histograms_[id];
  snapshot.buckets = state.buckets;
  snapshot.count = state.count;
  snapshot.sum = state.sum;
  snapshot.min = state.min;
  snapshot.max = state.max;
  return snapshot;
}

namespace {

// Doubles that are whole numbers print as integers; everything else keeps
// enough digits to round trip. JSON has no inf/nan, so non-finite values
// (an untouched histogram's min/max) print as 0.
void WriteJsonNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << 0;
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    out << static_cast<long long>(value);
    return;
  }
  const auto precision = out.precision(17);
  out << value;
  out.precision(precision);
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out, int indent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string pad(static_cast<size_t>(indent), ' ');
  out << pad << "{\n";
  out << pad << "  \"counters\": {";
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n"
        << pad << "    \"" << counter_names_[i] << "\": "
        << (totals_ != nullptr && i < totals_->counters_.size()
                ? totals_->counters_[i]
                : 0);
  }
  out << (counter_names_.empty() ? "" : "\n" + pad + "  ") << "},\n";
  out << pad << "  \"histograms\": {";
  for (size_t i = 0; i < histogram_names_.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n" << pad << "    \"" << histogram_names_[i] << "\": {";
    const std::vector<double>& bounds = histogram_bounds_[i];
    MetricsShard::HistogramState empty;
    empty.buckets.assign(bounds.size() + 1, 0);
    const MetricsShard::HistogramState* state =
        totals_ != nullptr && i < totals_->histograms_.size()
            ? &totals_->histograms_[i]
            : &empty;
    out << "\"count\": " << state->count << ", \"sum\": ";
    WriteJsonNumber(out, state->sum);
    out << ", \"min\": ";
    WriteJsonNumber(out, state->count > 0 ? state->min : 0.0);
    out << ", \"max\": ";
    WriteJsonNumber(out, state->count > 0 ? state->max : 0.0);
    out << ", \"buckets\": [";
    for (size_t b = 0; b < state->buckets.size(); ++b) {
      if (b > 0) out << ", ";
      out << "{\"le\": ";
      if (b < bounds.size()) {
        WriteJsonNumber(out, bounds[b]);
      } else {
        out << "\"inf\"";
      }
      out << ", \"count\": " << state->buckets[b] << "}";
    }
    out << "]}";
  }
  out << (histogram_names_.empty() ? "" : "\n" + pad + "  ") << "}\n";
  out << pad << "}";
}

std::vector<double> MetricsRegistry::PowerOfTwoBounds(size_t n) {
  std::vector<double> bounds(n);
  double bound = 1.0;
  for (size_t i = 0; i < n; ++i, bound *= 2.0) bounds[i] = bound;
  return bounds;
}

std::vector<double> MetricsRegistry::DecadeBounds(int lo, int hi) {
  TKDC_CHECK(lo <= hi);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(hi - lo + 1));
  for (int e = lo; e <= hi; ++e) {
    bounds.push_back(std::pow(10.0, static_cast<double>(e)));
  }
  return bounds;
}

std::vector<double> MetricsRegistry::OneTwoFiveBounds(int lo, int hi) {
  TKDC_CHECK(lo <= hi);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(3 * (hi - lo) + 1));
  for (int e = lo; e < hi; ++e) {
    const double decade = std::pow(10.0, static_cast<double>(e));
    for (double step : {1.0, 2.0, 5.0}) bounds.push_back(step * decade);
  }
  bounds.push_back(std::pow(10.0, static_cast<double>(hi)));
  return bounds;
}

MetricsShard::MetricsShard(const MetricsRegistry& registry) {
  counters_.assign(registry.counter_names_.size(), 0);
  bounds_ = registry.histogram_bounds_;
  histograms_.resize(bounds_.size());
  for (size_t i = 0; i < histograms_.size(); ++i) {
    histograms_[i].buckets.assign(bounds_[i].size() + 1, 0);
  }
}

void MetricsShard::GrowTo(const MetricsRegistry& registry) {
  counters_.resize(registry.counter_names_.size(), 0);
  for (size_t i = bounds_.size(); i < registry.histogram_bounds_.size();
       ++i) {
    bounds_.push_back(registry.histogram_bounds_[i]);
    HistogramState state;
    state.buckets.assign(bounds_[i].size() + 1, 0);
    histograms_.push_back(std::move(state));
  }
}

void MetricsShard::Observe(size_t histogram_id, double value) {
  HistogramState& state = histograms_[histogram_id];
  const std::vector<double>& bounds = bounds_[histogram_id];
  size_t bucket = bounds.size();  // Overflow unless a bound admits it.
  for (size_t b = 0; b < bounds.size(); ++b) {
    if (value <= bounds[b]) {
      bucket = b;
      break;
    }
  }
  ++state.buckets[bucket];
  ++state.count;
  state.sum += value;
  state.min = std::min(state.min, value);
  state.max = std::max(state.max, value);
}

void MetricsShard::Merge(const MetricsShard& other) {
  // Ids are append-only, so a shard created before a later registration is
  // a schema prefix of a newer one and folds in by index.
  TKDC_CHECK_MSG(counters_.size() >= other.counters_.size() &&
                     histograms_.size() >= other.histograms_.size(),
                 "merging a newer-schema shard into an older one");
  for (size_t i = 0; i < other.counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  for (size_t i = 0; i < other.histograms_.size(); ++i) {
    HistogramState& mine = histograms_[i];
    const HistogramState& theirs = other.histograms_[i];
    for (size_t b = 0; b < mine.buckets.size(); ++b) {
      mine.buckets[b] += theirs.buckets[b];
    }
    mine.count += theirs.count;
    mine.sum += theirs.sum;
    mine.min = std::min(mine.min, theirs.min);
    mine.max = std::max(mine.max, theirs.max);
  }
}

void MetricsShard::Reset() {
  std::fill(counters_.begin(), counters_.end(), 0);
  for (HistogramState& state : histograms_) {
    std::fill(state.buckets.begin(), state.buckets.end(), 0);
    state.count = 0;
    state.sum = 0.0;
    state.min = std::numeric_limits<double>::infinity();
    state.max = -std::numeric_limits<double>::infinity();
  }
}

}  // namespace tkdc
