#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tkdc/classifier.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

using std::chrono::milliseconds;

const std::function<bool()> kNeverStop = [] { return false; };

/// The deterministic training set behind every saved model here; tests
/// regenerate it to learn exact base-point coordinates for DELETE.
Dataset TrainingData() {
  Rng rng(11);
  return SampleStandardGaussian(400, 2, rng);
}

/// Trains and saves a small streaming-capable (tkdc) model once per
/// process; see server_test.cc for the per-process-path rationale.
std::string ModelPath() {
  static const std::string* path = [] {
    api::TrainOptions options;
    options.config.p = 0.1;
    options.config.seed = 7;
    options.config.num_threads = 1;
    const Dataset data = TrainingData();
    auto trained = api::Train(data, options);
    EXPECT_TRUE(trained.ok()) << trained.message();
    auto* result = new std::string(testing::TempDir() + "/stream_model." +
                                   std::to_string(getpid()) + ".tkdc");
    const Status saved = api::SaveModel(*result, *trained.value(), data,
                                        api::SaveOptions());
    EXPECT_TRUE(saved.ok()) << saved.message();
    return result;
  }();
  return *path;
}

ServerOptions StreamingOptions() {
  ServerOptions options;
  options.model_path = ModelPath();
  options.num_threads = 2;
  options.batcher.batch_window_us = 100;
  options.rebuild_fraction = 0.0;  // Rebuilds only when a test asks.
  return options;
}

/// Round-trippable wire text for a point (17 significant digits re-parse
/// to the same doubles, so DELETE's exact-coordinate match succeeds).
std::string WirePoint(std::span<const double> x) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (size_t i = 0; i < x.size(); ++i) out << (i > 0 ? "," : "") << x[i];
  return out.str();
}

/// Minimal pipe-mode client (one request in flight at a time, so the
/// response order is deterministic even though INSERT flows through the
/// batcher while STATS/FLUSH are answered inline).
class PipeStream {
 public:
  explicit PipeStream(ServerOptions options) {
    EXPECT_EQ(pipe(to_server_), 0);
    EXPECT_EQ(pipe(from_server_), 0);
    auto created = Server::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.message();
    server_ = created.take();
    reader_ = std::make_unique<FrameReader>(from_server_[0], Framing::kLine);
    runner_ = std::thread([this] {
      exit_code_ = server_->RunPipe(to_server_[0], from_server_[1]);
      close(from_server_[1]);
      close(to_server_[0]);
    });
  }

  ~PipeStream() {
    if (runner_.joinable()) Finish();
    close(from_server_[0]);
  }

  /// Sends one request line and blocks for its response payload.
  std::string RoundTrip(const std::string& line) {
    const std::string framed = line + "\n";
    EXPECT_EQ(write(to_server_[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
    auto next = reader_->Next(kNeverStop);
    EXPECT_TRUE(next.ok()) << next.message();
    EXPECT_TRUE(next.value().has_value());
    return next.value().value_or("");
  }

  int Finish() {
    close(to_server_[1]);
    runner_.join();
    return exit_code_;
  }

 private:
  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  std::unique_ptr<Server> server_;
  std::unique_ptr<FrameReader> reader_;
  std::thread runner_;
  int exit_code_ = -1;
};

TEST(StreamServeTest, InsertDeleteFlushLifecycleOverThePipe) {
  PipeStream client(StreamingOptions());
  const Dataset base = TrainingData();

  std::string stats = client.RoundTrip("1 STATS");
  EXPECT_NE(stats.find("\"streaming\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"generation\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overlay_inserted\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"online_threshold\""), std::string::npos) << stats;

  EXPECT_EQ(client.RoundTrip("2 INSERT 2.25,-1.5"), "2 OK INSERTED");
  EXPECT_EQ(client.RoundTrip("3 DELETE " + WirePoint(base.Row(0))),
            "3 OK DELETED");
  // A point that was never trained or inserted cannot be tombstoned.
  const std::string bad = client.RoundTrip("4 DELETE 99.0,99.0");
  EXPECT_NE(bad.find("4 ERR"), std::string::npos) << bad;
  EXPECT_NE(bad.find("not in the model"), std::string::npos) << bad;

  stats = client.RoundTrip("5 STATS");
  EXPECT_NE(stats.find("\"overlay_inserted\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overlay_tombstones\":1"), std::string::npos)
      << stats;

  // FLUSH retrains on base ∪ overlay: 400 + 1 insert - 1 tombstone.
  EXPECT_EQ(client.RoundTrip("6 FLUSH"), "6 OK REBUILT 400");

  stats = client.RoundTrip("7 STATS");
  EXPECT_NE(stats.find("\"generation\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overlay_inserted\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overlay_tombstones\":0"), std::string::npos)
      << stats;

  EXPECT_EQ(client.Finish(), 0);
}

TEST(StreamServeTest, ZeroOverlayCapacityDisablesStreamingVerbs) {
  ServerOptions options = StreamingOptions();
  options.overlay_capacity = 0;
  PipeStream client(options);
  const std::string stats = client.RoundTrip("1 STATS");
  EXPECT_NE(stats.find("\"streaming\":false"), std::string::npos) << stats;
  const std::string response = client.RoundTrip("2 INSERT 1.0,1.0");
  EXPECT_NE(response.find("2 ERR"), std::string::npos) << response;
  EXPECT_NE(response.find("streaming"), std::string::npos) << response;
  EXPECT_EQ(client.Finish(), 0);
}

TEST(StreamServeTest, InsertsRaiseTheEstimatedDensityNearby) {
  PipeStream client(StreamingOptions());
  const std::string far = "5.0,5.0";
  const double before =
      std::stod(client.RoundTrip("1 ESTIMATE " + far).substr(5));
  uint64_t id = 2;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(client.RoundTrip(std::to_string(id) + " INSERT " + far),
              std::to_string(id) + " OK INSERTED");
    ++id;
  }
  const double after = std::stod(
      client.RoundTrip(std::to_string(id) + " ESTIMATE " + far).substr(
          std::to_string(id).size() + 4));
  EXPECT_GT(after, before);
  EXPECT_EQ(client.Finish(), 0);
}

/// The streaming analog of the hot-swap drop test: clients hammer
/// CLASSIFY while another thread streams INSERTs and the caller's thread
/// forces full rebuilds. Every admitted request must complete exactly
/// once with OK — across `rebuilds` generation swaps. Returns the server
/// (post-shutdown) so callers can inspect the final generation's model;
/// nullptr when construction failed.
std::unique_ptr<Server> HammerRebuildsExpectNoDrops(ServerOptions options,
                                                    int rebuilds) {
  auto created = Server::Create(std::move(options));
  EXPECT_TRUE(created.ok()) << created.message();
  if (!created.ok()) return nullptr;
  auto server = created.take();

  std::mutex mutex;
  std::condition_variable cv;
  std::map<uint64_t, Response> responses;
  int duplicates = 0;
  const auto sink = [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!responses.emplace(response.id, response).second) ++duplicates;
    cv.notify_all();
  };
  const auto make_request = [](uint64_t id, RequestVerb verb,
                               std::vector<double> point) {
    Request request;
    request.id = id;
    request.verb = verb;
    request.point = std::move(point);
    return request;
  };

  // Open-loop flood: the bounded queue may shed some submissions with
  // OVERLOADED (that is the admission contract, rebuild or not) — but
  // every *admitted* request must complete exactly once with OK.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> attempts{0};
  std::mutex admitted_mutex;
  std::vector<uint64_t> admitted_ids;
  std::vector<std::thread> clients;
  for (uint64_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      uint64_t id = 1 + t * 1'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<double> point = {rng.NextGaussian(),
                                           rng.NextGaussian()};
        attempts.fetch_add(1, std::memory_order_relaxed);
        if (server->batcher().Submit(
                make_request(id, RequestVerb::kClassify, point), sink)) {
          std::lock_guard<std::mutex> lock(admitted_mutex);
          admitted_ids.push_back(id);
        }
        ++id;
      }
    });
  }
  clients.emplace_back([&] {
    Rng rng(555);
    uint64_t id = 10'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<double> point = {3.0 + rng.NextGaussian(),
                                         3.0 + rng.NextGaussian()};
      attempts.fetch_add(1, std::memory_order_relaxed);
      if (server->batcher().Submit(
              make_request(id, RequestVerb::kInsert, point), sink)) {
        std::lock_guard<std::mutex> lock(admitted_mutex);
        admitted_ids.push_back(id);
      }
      ++id;
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  for (int rebuild = 0; rebuild < rebuilds; ++rebuild) {
    std::this_thread::sleep_for(milliseconds(20));
    const auto result = server->RebuildNow();
    EXPECT_TRUE(result.ok()) << result.message();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  server->Shutdown();  // Drains the batcher: everything admitted completes.

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(responses.size(), attempts.load());  // Shed ones answered too.
  EXPECT_EQ(duplicates, 0);
  EXPECT_GT(admitted_ids.size(), 0u);
  for (const uint64_t id : admitted_ids) {
    const auto it = responses.find(id);
    if (it == responses.end()) {
      ADD_FAILURE() << "admitted id " << id << " unanswered";
      continue;
    }
    EXPECT_EQ(it->second.code, ResponseCode::kOk)
        << "id " << id << ": " << it->second.body;
  }
  EXPECT_EQ(server->batcher().model()->generation,
            1u + static_cast<uint64_t>(rebuilds));
  return server;
}

TEST(StreamServeTest, RebuildMidTrafficDropsNoRequests) {
  ASSERT_NE(HammerRebuildsExpectNoDrops(StreamingOptions(), 3), nullptr);
}

/// Trains and saves a compressed (epsilon-coreset) streaming model once
/// per process: 8000 gaussian rows at a 0.8 / 0.6 budget split engage one
/// halving, so the served tree holds ~4000 points.
std::string CompressedModelPath() {
  static const std::string* path = [] {
    api::TrainOptions options;
    options.config.p = 0.1;
    options.config.epsilon = 0.8;
    options.config.coreset_epsilon = 0.6;
    options.config.seed = 7;
    options.config.num_threads = 1;
    Rng rng(19);
    const Dataset data = SampleStandardGaussian(8000, 2, rng);
    auto trained = api::Train(data, options);
    EXPECT_TRUE(trained.ok()) << trained.message();
    const auto* classifier =
        dynamic_cast<const TkdcClassifier*>(trained.value().get());
    EXPECT_NE(classifier, nullptr);
    EXPECT_TRUE(classifier->coreset_info().enabled);
    EXPECT_LT(classifier->training_size(), data.size());
    auto* result = new std::string(testing::TempDir() + "/stream_coreset." +
                                   std::to_string(getpid()) + ".tkdc");
    const Status saved = api::SaveModel(*result, *trained.value(), data,
                                        api::SaveOptions());
    EXPECT_TRUE(saved.ok()) << saved.message();
    return result;
  }();
  return *path;
}

/// The zero-drop contract must survive FLUSH-style rebuilds that re-run
/// the coreset compression: the rebuild retrains on the compressed base
/// plus the overlay, so the swapped-in generation keeps the small tree
/// while every admitted request still completes exactly once.
TEST(StreamServeTest, CompressedModelRebuildMidTrafficDropsNoRequests) {
  ServerOptions options = StreamingOptions();
  options.model_path = CompressedModelPath();
  auto server = HammerRebuildsExpectNoDrops(std::move(options), 2);
  ASSERT_NE(server, nullptr);

  // The rebuilds consumed the compressed training set (plus the trickle of
  // inserts) — the served tree must not have re-inflated toward the
  // original 8000 rows.
  const auto model = server->batcher().model();
  ASSERT_NE(model->classifier, nullptr);
  const auto* classifier =
      dynamic_cast<const TkdcClassifier*>(model->classifier.get());
  ASSERT_NE(classifier, nullptr);
  EXPECT_LT(classifier->training_size(), 6000u);
}

}  // namespace
}  // namespace tkdc::serve
