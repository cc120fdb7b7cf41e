#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q * count
/// samples at or below it. q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A timing sample reduced the way the benchmark reports it: median, p90
/// and the sample count behind them.
struct Summary {
  double p50 = 0.0;
  double p90 = 0.0;
  size_t count = 0;

  /// Whether the sample has at least ten values beyond quantile q, the
  /// smallest count at which that percentile is reported at all.
  bool Supports(double q) const {
    // The slack absorbs rounding in 1 - q (1 - 0.9 is 0.09999...).
    return static_cast<double>(count) * (1.0 - q) >= 10.0 - 1e-9;
  }
};

Summary Summarize(std::vector<double> values);

/// Percentile of a fixed-bucket histogram (the library's metrics layout:
/// `buckets` has one entry per upper bound plus the overflow bucket).
/// Returns the upper bound of the bucket holding the q-quantile, so the
/// result is an upper estimate with the histogram's resolution; the
/// overflow bucket reports the last finite bound.
double HistogramPercentile(const std::vector<double>& upper_bounds,
                           const std::vector<uint64_t>& buckets, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
