// Unit tests for the MetricsRegistry / MetricsShard pair: schema
// registration, shard recording, merge/absorb algebra, and JSON export.

#include "common/metrics.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tkdc {
namespace {

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry registry;
  const size_t a = registry.AddCounter("a");
  const size_t b = registry.AddCounter("b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(registry.AddCounter("a"), a);
  EXPECT_EQ(registry.counter_count(), 2u);

  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const size_t h = registry.AddHistogram("h", bounds);
  EXPECT_EQ(h, 0u);
  EXPECT_EQ(registry.AddHistogram("h", bounds), h);
  EXPECT_EQ(registry.histogram_count(), 1u);
}

TEST(MetricsRegistry, CountersAbsorbAcrossShards) {
  MetricsRegistry registry;
  const size_t hits = registry.AddCounter("hits");
  std::unique_ptr<MetricsShard> shard1 = registry.NewShard();
  std::unique_ptr<MetricsShard> shard2 = registry.NewShard();
  shard1->Inc(hits);
  shard1->Inc(hits, 4);
  shard2->Inc(hits, 10);
  registry.Absorb(*shard1);
  registry.Absorb(*shard2);
  EXPECT_EQ(registry.CounterValue("hits"), 15u);
  EXPECT_EQ(registry.CounterValue("unknown"), 0u);
}

TEST(MetricsRegistry, HistogramBucketsCountAndOverflow) {
  MetricsRegistry registry;
  const size_t h = registry.AddHistogram("work", {1.0, 10.0, 100.0});
  std::unique_ptr<MetricsShard> shard = registry.NewShard();
  shard->Observe(h, 0.5);    // <= 1
  shard->Observe(h, 1.0);    // <= 1 (bounds are inclusive)
  shard->Observe(h, 7.0);    // <= 10
  shard->Observe(h, 100.0);  // <= 100
  shard->Observe(h, 101.0);  // overflow
  registry.Absorb(*shard);

  const auto snapshot = registry.HistogramValue("work");
  ASSERT_EQ(snapshot.buckets.size(), 4u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
  EXPECT_EQ(snapshot.buckets[3], 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 7.0 + 100.0 + 101.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.max, 101.0);
}

TEST(MetricsShard, MergeIsOrderInsensitive) {
  MetricsRegistry registry;
  const size_t c = registry.AddCounter("c");
  const size_t h = registry.AddHistogram("h", {2.0, 8.0});

  auto make = [&](uint64_t inc, double obs) {
    std::unique_ptr<MetricsShard> shard = registry.NewShard();
    shard->Inc(c, inc);
    shard->Observe(h, obs);
    return shard;
  };
  std::unique_ptr<MetricsShard> a = make(3, 1.0);
  std::unique_ptr<MetricsShard> b = make(5, 9.0);
  std::unique_ptr<MetricsShard> ab = registry.NewShard();
  ab->Merge(*a);
  ab->Merge(*b);
  std::unique_ptr<MetricsShard> ba = registry.NewShard();
  ba->Merge(*b);
  ba->Merge(*a);

  EXPECT_EQ(ab->counter(c), 8u);
  EXPECT_EQ(ba->counter(c), 8u);
  registry.Absorb(*ab);
  const auto snapshot = registry.HistogramValue("h");
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[2], 1u);  // 9.0 overflows past 8.0.
}

TEST(MetricsShard, ResetZeroesEverything) {
  MetricsRegistry registry;
  const size_t c = registry.AddCounter("c");
  const size_t h = registry.AddHistogram("h", {1.0});
  std::unique_ptr<MetricsShard> shard = registry.NewShard();
  shard->Inc(c, 7);
  shard->Observe(h, 0.5);
  shard->Reset();
  EXPECT_EQ(shard->counter(c), 0u);
  registry.Absorb(*shard);
  const auto snapshot = registry.HistogramValue("h");
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.buckets[0], 0u);
}

TEST(MetricsRegistry, BucketHelpers) {
  const std::vector<double> pow2 = MetricsRegistry::PowerOfTwoBounds(4);
  EXPECT_EQ(pow2, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const std::vector<double> decades = MetricsRegistry::DecadeBounds(-1, 1);
  ASSERT_EQ(decades.size(), 3u);
  EXPECT_DOUBLE_EQ(decades[0], 0.1);
  EXPECT_DOUBLE_EQ(decades[1], 1.0);
  EXPECT_DOUBLE_EQ(decades[2], 10.0);
}

TEST(MetricsRegistry, OneTwoFiveBoundsResolveThreeStepsPerDecade) {
  EXPECT_EQ(MetricsRegistry::OneTwoFiveBounds(0, 2),
            (std::vector<double>{1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}));
  EXPECT_EQ(MetricsRegistry::OneTwoFiveBounds(3, 3),
            (std::vector<double>{1000.0}));
  // The serve queue-wait layout: 1 us to 1e7 us, strictly increasing, so
  // a p50 of 200 us and one of 500 us land in different buckets.
  const std::vector<double> wait = MetricsRegistry::OneTwoFiveBounds(0, 7);
  ASSERT_EQ(wait.size(), 22u);
  EXPECT_EQ(wait.front(), 1.0);
  EXPECT_EQ(wait.back(), 1e7);
  for (size_t i = 1; i < wait.size(); ++i) EXPECT_LT(wait[i - 1], wait[i]);
  MetricsRegistry registry;
  const size_t h = registry.AddHistogram("wait", wait);
  std::unique_ptr<MetricsShard> shard = registry.NewShard();
  shard->Observe(h, 150.0);
  shard->Observe(h, 400.0);
  registry.Absorb(*shard);
  const auto snapshot = registry.HistogramValue("wait");
  ASSERT_EQ(snapshot.buckets.size(), wait.size() + 1);
  EXPECT_EQ(snapshot.buckets[7], 1u);  // (100, 200]
  EXPECT_EQ(snapshot.buckets[8], 1u);  // (200, 500]
}

TEST(MetricsRegistry, WriteJsonEmitsCountersAndHistograms) {
  MetricsRegistry registry;
  registry.AddCounter("queries");
  registry.AddHistogram("depth", {1.0, 2.0});
  std::unique_ptr<MetricsShard> shard = registry.NewShard();
  shard->Inc(0, 3);
  shard->Observe(0, 1.5);
  registry.Absorb(*shard);

  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"queries\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\": 2, \"count\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\": \"inf\", \"count\": 0}"), std::string::npos)
      << json;
  // Balanced braces/brackets — a cheap structural sanity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistry, WriteJsonBeforeAnyAbsorbIsAllZero) {
  MetricsRegistry registry;
  registry.AddCounter("queries");
  registry.AddHistogram("depth", {1.0});
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"queries\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos) << json;
}

}  // namespace
}  // namespace tkdc
