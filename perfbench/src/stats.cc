#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  summary.p50 = Percentile(values, 0.5);
  summary.p90 = Percentile(std::move(values), 0.9);
  return summary;
}

double HistogramPercentile(const std::vector<double>& upper_bounds,
                           const std::vector<uint64_t>& buckets, double q) {
  const uint64_t total = std::accumulate(buckets.begin(), buckets.end(),
                                         static_cast<uint64_t>(0));
  if (total == 0 || upper_bounds.empty()) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return upper_bounds[std::min(b, upper_bounds.size() - 1)];
  }
  return upper_bounds.back();
}

}  // namespace perfbench
