// Serving the multi-class container: CLASSIFY_MC over pipe and TCP,
// verb/model-kind mismatch rejection, mixed CLASSIFY / CLASSIFY_MC
// traffic through one batcher, and RELOAD hot-swapping a multi-class
// model mid-traffic with zero dropped requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

using std::chrono::milliseconds;

const std::function<bool()> kNeverStop = [] { return false; };

Dataset Blob(size_t n, double cx, double cy, Rng& rng) {
  Dataset data(2);
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double row[2] = {cx + rng.NextGaussian(), cy + rng.NextGaussian()};
    data.AppendRow(row);
  }
  return data;
}

/// Three well-separated classes; queries at the class centers decide
/// deterministically, so responses can be asserted exactly.
std::string McModelPath() {
  static const std::string* path = [] {
    Rng rng(301);
    Dataset data(2);
    std::vector<std::string> labels;
    for (const auto& [cx, cy, label] :
         {std::tuple{0.0, 0.0, "alpha"}, std::tuple{8.0, 0.0, "beta"},
          std::tuple{0.0, 8.0, "gamma"}}) {
      const Dataset blob = Blob(150, cx, cy, rng);
      for (size_t i = 0; i < blob.size(); ++i) {
        data.AppendRow(blob.Row(i));
        labels.emplace_back(label);
      }
    }
    TkdcConfig config;
    config.seed = 3;
    config.num_threads = 1;
    auto trained = api::TrainMultiClass(data, labels, config);
    EXPECT_TRUE(trained.ok()) << trained.message();
    auto* result = new std::string(testing::TempDir() + "/mc_serve_model." +
                                   std::to_string(getpid()) + ".tkdc");
    const Status saved = api::SaveMultiClassModel(*result, *trained.value(),
                                                   api::SaveOptions());
    EXPECT_TRUE(saved.ok()) << saved.message();
    return result;
  }();
  return *path;
}

/// A single-class model over the same 2-d space (for mismatch and
/// hot-swap tests).
std::string SingleClassModelPath() {
  static const std::string* path = [] {
    Rng rng(302);
    const Dataset data = Blob(300, 0.0, 0.0, rng);
    api::TrainOptions options;
    options.config.p = 0.1;
    options.config.seed = 3;
    options.config.num_threads = 1;
    auto trained = api::Train(data, options);
    EXPECT_TRUE(trained.ok()) << trained.message();
    auto* result = new std::string(testing::TempDir() + "/mc_serve_single." +
                                   std::to_string(getpid()) + ".tkdc");
    const Status saved = api::SaveModel(*result, *trained.value(), data,
                                        api::SaveOptions());
    EXPECT_TRUE(saved.ok()) << saved.message();
    return result;
  }();
  return *path;
}

ServerOptions McOptions() {
  ServerOptions options;
  options.model_path = McModelPath();
  options.num_threads = 2;
  options.batcher.batch_window_us = 100;
  return options;
}

/// Minimal pipe-mode client (see stream_serve_test.cc).
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

TEST(McServeTest, ClassifyMcOverThePipe) {
  PipeStream client(McOptions());
  EXPECT_EQ(client.RoundTrip("1 CLASSIFY_MC 0.0,0.0"), "1 OK alpha");
  EXPECT_EQ(client.RoundTrip("2 CLASSIFY_MC 8.0,0.0"), "2 OK beta");
  EXPECT_EQ(client.RoundTrip("3 CLASSIFY_MC 0.0,8.0"), "3 OK gamma");

  const std::string stats = client.RoundTrip("4 STATS");
  EXPECT_NE(stats.find("\"algorithm\":\"tkdc-mc\""), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"classes\":3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"base_points\":450"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"streaming\":false"), std::string::npos) << stats;
  EXPECT_NE(stats.find("mc.queries"), std::string::npos) << stats;
  EXPECT_EQ(client.Finish(), 0);
}

TEST(McServeTest, VerbModelKindMismatchesAreRejectedNotMisrouted) {
  PipeStream client(McOptions());
  for (const char* verb : {"CLASSIFY", "CLASSIFY_TRAINING", "ESTIMATE"}) {
    const std::string response =
        client.RoundTrip("1 " + std::string(verb) + " 0.0,0.0");
    EXPECT_NE(response.find("1 ERR"), std::string::npos) << response;
    EXPECT_NE(response.find("multi-class"), std::string::npos) << response;
    EXPECT_NE(response.find("CLASSIFY_MC"), std::string::npos) << response;
  }
  // Multi-class generations never stream.
  const std::string insert = client.RoundTrip("2 INSERT 1.0,1.0");
  EXPECT_NE(insert.find("2 ERR"), std::string::npos) << insert;
  const std::string flush = client.RoundTrip("3 FLUSH");
  EXPECT_NE(flush.find("3 ERR"), std::string::npos) << flush;
  EXPECT_EQ(client.Finish(), 0);
}

TEST(McServeTest, ClassifyMcAgainstSingleClassModelIsRejected) {
  ServerOptions options = McOptions();
  options.model_path = SingleClassModelPath();
  PipeStream client(options);
  const std::string response = client.RoundTrip("1 CLASSIFY_MC 0.0,0.0");
  EXPECT_NE(response.find("1 ERR"), std::string::npos) << response;
  EXPECT_NE(response.find("single-class"), std::string::npos) << response;
  // The right verb still works.
  const std::string ok = client.RoundTrip("2 CLASSIFY 0.0,0.0");
  EXPECT_TRUE(ok == "2 OK HIGH" || ok == "2 OK LOW") << ok;
  EXPECT_EQ(client.Finish(), 0);
}

TEST(McServeTest, MalformedClassifyMcRequestsAreRejected) {
  PipeStream client(McOptions());
  for (const std::string& bad :
       {std::string("1 CLASSIFY_MC"),                 // Missing point.
        std::string("2 CLASSIFY_MC 1,2 500 extra"),   // Too many tokens.
        std::string("3 CLASSIFY_MC 1,nope"),          // Bad coordinate.
        std::string("4 CLASSIFY_MC 1,inf"),           // Non-finite.
        std::string("5 CLASSIFY_MC 1,2 -1")}) {       // Bad timeout.
    const std::string response = client.RoundTrip(bad);
    EXPECT_NE(response.find("ERR"), std::string::npos) << bad << " -> "
                                                       << response;
  }
  // Dimensionality mismatch is an execution-time error, not a crash.
  const std::string wrong_dims = client.RoundTrip("6 CLASSIFY_MC 1,2,3");
  EXPECT_NE(wrong_dims.find("6 ERR"), std::string::npos) << wrong_dims;
  EXPECT_EQ(client.Finish(), 0);
}

TEST(McServeTest, ReloadSwapsBetweenModelKinds) {
  ServerOptions options = McOptions();
  options.model_path = SingleClassModelPath();
  PipeStream client(options);
  const std::string ok = client.RoundTrip("1 CLASSIFY 0.0,0.0");
  EXPECT_TRUE(ok == "1 OK HIGH" || ok == "1 OK LOW") << ok;

  EXPECT_EQ(client.RoundTrip("2 RELOAD " + McModelPath()), "2 OK RELOADED");
  EXPECT_EQ(client.RoundTrip("3 CLASSIFY_MC 8.0,0.0"), "3 OK beta");
  const std::string rejected = client.RoundTrip("4 CLASSIFY 0.0,0.0");
  EXPECT_NE(rejected.find("4 ERR"), std::string::npos) << rejected;

  // And back again: the single-class model resumes HIGH/LOW service.
  EXPECT_EQ(client.RoundTrip("5 RELOAD " + SingleClassModelPath()),
            "5 OK RELOADED");
  const std::string again = client.RoundTrip("6 CLASSIFY 0.0,0.0");
  EXPECT_TRUE(again == "6 OK HIGH" || again == "6 OK LOW") << again;
  EXPECT_EQ(client.Finish(), 0);
}

// --- TCP mode ------------------------------------------------------------

class AnnounceStream : public std::ostream {
 public:
  AnnounceStream() : std::ostream(&buf_), buf_(this) {}

  uint16_t AwaitPort() {
    const std::string text = port_future_.get();
    const size_t colon = text.rfind(':');
    EXPECT_NE(colon, std::string::npos) << text;
    return static_cast<uint16_t>(std::stoi(text.substr(colon + 1)));
  }

 private:
  class Buf : public std::stringbuf {
   public:
    explicit Buf(AnnounceStream* owner) : owner_(owner) {}
    int sync() override {
      if (!owner_->port_set_) {
        owner_->port_set_ = true;
        owner_->port_promise_.set_value(str());
      }
      return 0;
    }

   private:
    AnnounceStream* owner_;
  };

  Buf buf_;
  bool port_set_ = false;
  std::promise<std::string> port_promise_;
  std::future<std::string> port_future_ = port_promise_.get_future();
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

TEST(McServeTest, ClassifyMcOverTcp) {
  std::atomic<bool> terminate{false};
  ServerOptions options = McOptions();
  options.terminate = &terminate;
  auto created = Server::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.message();
  Server& server = *created.value();

  AnnounceStream announce;
  int exit_code = -1;
  std::thread runner([&] { exit_code = server.RunTcp(/*port=*/0, announce); });
  const uint16_t port = announce.AwaitPort();
  ASSERT_GT(port, 0);

  const int fd = ConnectLoopback(port);
  const auto send = [&](const std::string& payload) {
    const std::string frame = EncodeFrame(payload, Framing::kLengthPrefixed);
    EXPECT_EQ(write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
  };
  send("1 CLASSIFY_MC 0.0,0.0");
  send("2 CLASSIFY_MC 8.0,0.0");
  send("3 CLASSIFY 1.0,1.0");  // Wrong kind: ERR, connection stays up.
  send("4 PING");
  FrameReader reader(fd, Framing::kLengthPrefixed);
  std::map<uint64_t, std::string> got;
  for (int i = 0; i < 4; ++i) {
    auto next = reader.Next(kNeverStop);
    ASSERT_TRUE(next.ok()) << next.message();
    ASSERT_TRUE(next.value().has_value());
    const std::string& line = *next.value();
    const size_t space = line.find(' ');
    got[std::stoull(line.substr(0, space))] = line.substr(space + 1);
  }
  EXPECT_EQ(got.at(1), "OK alpha");
  EXPECT_EQ(got.at(2), "OK beta");
  EXPECT_NE(got.at(3).find("ERR"), std::string::npos) << got.at(3);
  EXPECT_EQ(got.at(4), "OK PONG");
  close(fd);

  terminate.store(true);
  runner.join();
  EXPECT_EQ(exit_code, 0);
}

// --- Mixed traffic and hot swap ------------------------------------------

/// Mixed CLASSIFY / CLASSIFY_MC traffic through one batcher while RELOAD
/// swaps between a single-class and a multi-class generation: every
/// admitted request is answered exactly once (OK for the matching kind,
/// ERR for the other — never dropped, never misrouted into a crash).
TEST(McServeTest, MixedTrafficSurvivesHotSwapWithZeroDrops) {
  ServerOptions options = McOptions();
  options.model_path = SingleClassModelPath();
  auto created = Server::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.message();
  auto server = created.take();

  std::mutex mutex;
  std::map<uint64_t, Response> responses;
  int duplicates = 0;
  const auto sink = [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!responses.emplace(response.id, response).second) ++duplicates;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> attempts{0};
  std::mutex admitted_mutex;
  std::vector<uint64_t> admitted_ids;
  std::vector<std::thread> clients;
  for (uint64_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(500 + t);
      uint64_t id = 1 + t * 1'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        Request request;
        request.id = id;
        // Half the threads speak CLASSIFY, half CLASSIFY_MC: whichever
        // generation is live, some requests match and some must be
        // answered with a kind-mismatch ERR.
        request.verb =
            t % 2 == 0 ? RequestVerb::kClassify : RequestVerb::kClassifyMc;
        request.point = {rng.NextGaussian(), rng.NextGaussian()};
        attempts.fetch_add(1, std::memory_order_relaxed);
        if (server->batcher().Submit(std::move(request), sink)) {
          std::lock_guard<std::mutex> lock(admitted_mutex);
          admitted_ids.push_back(id);
        }
        ++id;
      }
    });
  }

  // Three hot swaps mid-flood: single -> mc -> single -> mc.
  for (const std::string& path :
       {McModelPath(), SingleClassModelPath(), McModelPath()}) {
    std::this_thread::sleep_for(milliseconds(20));
    const Status status = server->Reload(path);
    EXPECT_TRUE(status.ok()) << status.message();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  server->Shutdown();  // Drains: everything admitted completes.

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(responses.size(), attempts.load());
  EXPECT_EQ(duplicates, 0);
  ASSERT_GT(admitted_ids.size(), 0u);
  size_t ok_count = 0, err_count = 0;
  for (const uint64_t id : admitted_ids) {
    const auto it = responses.find(id);
    ASSERT_NE(it, responses.end()) << "admitted id " << id << " unanswered";
    if (it->second.code == ResponseCode::kOk) {
      ++ok_count;
    } else {
      // The only legal non-OK completion here is the kind-mismatch ERR.
      ASSERT_EQ(it->second.code, ResponseCode::kError)
          << "id " << id << ": " << it->second.body;
      EXPECT_NE(it->second.body.find("class"), std::string::npos)
          << it->second.body;
      ++err_count;
    }
  }
  // Both verbs got real service at some point across the swaps.
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(err_count, 0u);
  EXPECT_EQ(server->batcher().model()->generation, 4u);  // 1 + 3 reloads.
}

}  // namespace
}  // namespace tkdc::serve
