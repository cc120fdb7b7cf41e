#include "serve/registry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "kde/delta_overlay.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

/// Trains a tiny 2-d model once and saves it for every test; individual
/// slots are byte-copies of this file under different stems.
class RegistryTest : public ::testing::Test {
 protected:
  static std::string ModelPath() {
    static const std::string* path = [] {
      Rng rng(17);
      const Dataset data = SampleStandardGaussian(400, 2, rng);
      api::TrainOptions options;
      options.config.p = 0.1;
      options.config.seed = 7;
      options.config.num_threads = 1;
      auto trained = api::Train(data, options);
      EXPECT_TRUE(trained.ok()) << trained.message();
      auto* result = new std::string(testing::TempDir() + "/registry_model." +
                                     std::to_string(getpid()) + ".tkdc");
      const Status saved = api::SaveModel(*result, *trained.value(), data,
                                          api::SaveOptions());
      EXPECT_TRUE(saved.ok()) << saved.message();
      return result;
    }();
    return *path;
  }

  /// Fresh per-test model directory.
  std::string MakeModelDir() {
    const std::string dir =
        testing::TempDir() + "/registry_dir." + std::to_string(getpid()) +
        "." + std::to_string(dir_counter_++);
    mkdir(dir.c_str(), 0755);
    return dir;
  }

  static void CopyModel(const std::string& to) {
    std::ifstream in(ModelPath(), std::ios::binary);
    std::ofstream out(to, std::ios::binary);
    out << in.rdbuf();
    ASSERT_TRUE(out.good()) << to;
  }

  /// A loader that deserializes through the public API and counts calls.
  ModelRegistry::Loader CountingLoader(std::atomic<int>* loads) {
    return [loads, this](const std::string& path)
               -> Result<std::shared_ptr<ServingModel>> {
      auto handle = api::LoadAny(path);
      if (!handle.ok()) return handle.status();
      auto model = std::make_shared<ServingModel>();
      if (handle.value().kind() == ModelKind::kMultiClass) {
        model->mc_classifier = handle.value().TakeMulti();
      } else {
        model->classifier = handle.value().TakeSingle();
      }
      model->source_path = path;
      model->generation = ++generation_;
      if (loads != nullptr) loads->fetch_add(1);
      return model;
    };
  }

  // Loaders may run concurrently (the registry drops its lock around the
  // load call), so the fixture's generation counter must be atomic.
  std::atomic<uint64_t> generation_{0};
  int dir_counter_ = 0;
};

TEST_F(RegistryTest, ScanRegistersTkdcStemsAndSkipsReservedIds) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/users-eu.tkdc");
  CopyModel(dir + "/users_us.tkdc");
  CopyModel(dir + "/default.tkdc");  // Reserved: skipped with a note.
  CopyModel(dir + "/notes.txt");     // Wrong extension: ignored.

  std::atomic<int> loads{0};
  ModelRegistry registry(RegistryOptions{}, CountingLoader(&loads), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());

  const auto entries = registry.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, "users-eu");
  EXPECT_EQ(entries[1].id, "users_us");
  // Lazy by default: registration does not load.
  EXPECT_FALSE(entries[0].resident);
  EXPECT_FALSE(entries[1].resident);
  EXPECT_EQ(loads.load(), 0);
  EXPECT_EQ(registry.resident_bytes(), 0u);
}

TEST_F(RegistryTest, PreloadLoadsEveryScannedSlotEagerly) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/a.tkdc");
  CopyModel(dir + "/b.tkdc");

  RegistryOptions options;
  options.preload = true;
  std::atomic<int> loads{0};
  ModelRegistry registry(options, CountingLoader(&loads), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());
  EXPECT_EQ(loads.load(), 2);
  for (const auto& entry : registry.List()) {
    EXPECT_TRUE(entry.resident) << entry.id;
    EXPECT_GT(entry.approx_bytes, 0u) << entry.id;
  }
  EXPECT_GT(registry.resident_bytes(), 0u);
}

TEST_F(RegistryTest, AcquireLazyLoadsOnceAndReportsUnknownIds) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/a.tkdc");
  std::atomic<int> loads{0};
  ModelRegistry registry(RegistryOptions{}, CountingLoader(&loads), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());

  auto first = registry.Acquire("a", 1);
  ASSERT_TRUE(first.ok()) << first.message();
  ASSERT_NE(first.value(), nullptr);
  EXPECT_NE(first.value()->classifier, nullptr);
  auto second = registry.Acquire("a", 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(loads.load(), 1);

  auto unknown = registry.Acquire("nope", 1);
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("nope"), std::string::npos)
      << unknown.message();
}

TEST_F(RegistryTest, LoadRefusesInvalidReservedAndDuplicateIds) {
  std::atomic<int> loads{0};
  ModelRegistry registry(RegistryOptions{}, CountingLoader(&loads), nullptr);
  EXPECT_FALSE(registry.Load("default", ModelPath()).ok());
  EXPECT_FALSE(registry.Load("bad/id", ModelPath()).ok());
  EXPECT_FALSE(registry.Load("", ModelPath()).ok());

  ASSERT_TRUE(registry.Load("good.id-1", ModelPath()).ok());
  EXPECT_FALSE(registry.Load("good.id-1", ModelPath()).ok())
      << "duplicate LOAD must be refused";
  EXPECT_EQ(registry.slot_count(), 1u);

  // A load failure must not leave a half-registered slot behind.
  EXPECT_FALSE(
      registry.Load("ghost", testing::TempDir() + "/absent.tkdc").ok());
  EXPECT_EQ(registry.slot_count(), 1u);

  ASSERT_TRUE(registry.Unload("good.id-1").ok());
  EXPECT_FALSE(registry.Unload("good.id-1").ok());
  EXPECT_EQ(registry.slot_count(), 0u);
}

TEST_F(RegistryTest, LruEvictionKeepsTheBudgetAndSlotsReload) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/a.tkdc");
  CopyModel(dir + "/b.tkdc");

  std::atomic<int> loads{0};
  RegistryOptions options;
  // Roomy enough for one 400x2 model (~84 KiB estimated), not two.
  options.max_resident_bytes = 120 << 10;
  ModelRegistry registry(options, CountingLoader(&loads), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());

  auto a = registry.Acquire("a", 1);
  ASSERT_TRUE(a.ok()) << a.message();
  auto b = registry.Acquire("b", 1);
  ASSERT_TRUE(b.ok()) << b.message();

  // Loading b evicted a (LRU), but a stays registered and reloadable.
  EXPECT_EQ(registry.Resident("a"), nullptr);
  EXPECT_NE(registry.Resident("b"), nullptr);
  EXPECT_LE(registry.resident_bytes(), options.max_resident_bytes);
  // The evicted generation we still hold is intact (RCU).
  EXPECT_NE(a.value()->classifier, nullptr);

  auto again = registry.Acquire("a", 1);
  ASSERT_TRUE(again.ok()) << again.message();
  EXPECT_EQ(loads.load(), 3);
  EXPECT_EQ(registry.Resident("b"), nullptr) << "b is now the LRU victim";
}

TEST_F(RegistryTest, EvictionNeverDropsDirtyOverlays) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/a.tkdc");
  CopyModel(dir + "/b.tkdc");

  RegistryOptions options;
  options.max_resident_bytes = 1;  // Everything is over budget.
  ModelRegistry registry(options, CountingLoader(nullptr), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());

  auto a = registry.Acquire("a", 1);
  ASSERT_TRUE(a.ok()) << a.message();
  // Stage a mutation: the overlay row exists nowhere but in this
  // generation, so eviction must skip it.
  a.value()->overlay = std::make_shared<DeltaOverlay>(2, 16);
  const double row[2] = {0.5, 0.5};
  ASSERT_TRUE(a.value()->overlay->Insert(row));

  auto b = registry.Acquire("b", 1);
  ASSERT_TRUE(b.ok()) << b.message();
  EXPECT_NE(registry.Resident("a"), nullptr)
      << "dirty model was evicted; staged rows lost";
}

TEST_F(RegistryTest, PublishSwapsRcuStyleAndCountsReloads) {
  std::atomic<int> loads{0};
  ModelRegistry registry(RegistryOptions{}, CountingLoader(&loads), nullptr);
  ASSERT_TRUE(registry.Load("a", ModelPath()).ok());
  auto old_model = registry.Acquire("a", 1);
  ASSERT_TRUE(old_model.ok());

  auto fresh = CountingLoader(&loads)(ModelPath());
  ASSERT_TRUE(fresh.ok());
  const uint64_t fresh_generation = fresh.value()->generation;
  ASSERT_TRUE(registry.Publish("a", fresh.take()).ok());

  EXPECT_EQ(registry.Resident("a")->generation, fresh_generation);
  // The generation in flight survives the swap.
  EXPECT_NE(old_model.value()->classifier, nullptr);
  EXPECT_NE(old_model.value()->generation, fresh_generation);

  auto stray = CountingLoader(&loads)(ModelPath());
  ASSERT_TRUE(stray.ok());
  EXPECT_FALSE(registry.Publish("unknown", stray.take()).ok());
}

TEST_F(RegistryTest, ConcurrentAcquireReloadEvictIsRaceFree) {
  const std::string dir = MakeModelDir();
  CopyModel(dir + "/a.tkdc");
  CopyModel(dir + "/b.tkdc");
  CopyModel(dir + "/c.tkdc");

  RegistryOptions options;
  options.max_resident_bytes = 120 << 10;  // Evictions happen constantly.
  ModelRegistry registry(options, CountingLoader(nullptr), nullptr);
  ASSERT_TRUE(registry.ScanModelDir(dir).ok());

  // In-flight "requests" classify through whatever generation they
  // acquired while reloads and evictions churn the slots underneath.
  std::atomic<bool> stop{false};
  std::atomic<int> classified{0};
  const char* ids[] = {"a", "b", "c"};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const double point[2] = {0.1 * t, -0.1};
      while (!stop.load(std::memory_order_relaxed)) {
        auto acquired = registry.Acquire(ids[t], 1);
        ASSERT_TRUE(acquired.ok()) << acquired.message();
        acquired.value()->classifier->Classify(point);
        classified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread reloader([&] {
    auto loader = CountingLoader(nullptr);
    for (int i = 0; i < 20; ++i) {
      auto fresh = loader(ModelPath());
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(registry.Publish(ids[i % 3], fresh.take()).ok());
    }
    stop.store(true);
  });
  reloader.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(classified.load(), 0);
}

}  // namespace
}  // namespace tkdc::serve
