#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(Stats, NearestRankPercentiles) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 0.5), 50.0);
  EXPECT_EQ(Percentile(values, 0.9), 90.0);
  EXPECT_EQ(Percentile(values, 1.0), 100.0);
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
}

TEST(Stats, SummaryCarriesItsSampleCount) {
  std::vector<double> values = {4, 1, 3, 2, 5, 6, 8, 7, 10, 9};
  const Summary summary = Summarize(values);
  EXPECT_EQ(summary.count, 10u);
  EXPECT_EQ(summary.p50, 5.0);
  EXPECT_EQ(summary.p90, 9.0);
  EXPECT_DOUBLE_EQ(Mean(values), 5.5);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  Summary summary;
  summary.count = 99;
  EXPECT_TRUE(summary.Supports(0.5));
  EXPECT_FALSE(summary.Supports(0.9));
  summary.count = 100;
  EXPECT_TRUE(summary.Supports(0.9));
  EXPECT_FALSE(summary.Supports(0.99));
  summary.count = 1000;
  EXPECT_TRUE(summary.Supports(0.99));
}

TEST(Stats, HistogramPercentileReportsBucketUpperBound) {
  const std::vector<double> bounds = {1, 2, 4, 8};
  // 10 in (0,1], 30 in (1,2], 50 in (2,4], 10 in (4,8], 0 overflow.
  const std::vector<uint64_t> buckets = {10, 30, 50, 10, 0};
  EXPECT_EQ(HistogramPercentile(bounds, buckets, 0.1), 1.0);
  EXPECT_EQ(HistogramPercentile(bounds, buckets, 0.4), 2.0);
  EXPECT_EQ(HistogramPercentile(bounds, buckets, 0.5), 4.0);
  EXPECT_EQ(HistogramPercentile(bounds, buckets, 0.95), 8.0);
  EXPECT_EQ(HistogramPercentile(bounds, {0, 0, 0, 0, 5}, 0.5), 8.0);
  EXPECT_EQ(HistogramPercentile(bounds, {0, 0, 0, 0, 0}, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
