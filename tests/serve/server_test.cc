#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "serve/protocol.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

using std::chrono::milliseconds;

const std::function<bool()> kNeverStop = [] { return false; };

/// Trains a small 2-d model once and saves it for every test.
class ServeServerTest : public ::testing::Test {
 protected:
  static std::string ModelPath() {
    static const std::string* path = [] {
      Rng rng(11);
      const Dataset data = SampleStandardGaussian(400, 2, rng);
      api::TrainOptions options;
      options.config.p = 0.1;
      options.config.seed = 7;
      options.config.num_threads = 1;
      auto trained = api::Train(data, options);
      EXPECT_TRUE(trained.ok()) << trained.message();
      // Per-process path: ctest runs each test as its own process, and
      // concurrent writers to one shared fixture file would corrupt it.
      auto* result = new std::string(testing::TempDir() + "/serve_model." +
                                     std::to_string(getpid()) + ".tkdc");
      const Status saved = api::SaveModel(*result, *trained.value(), data,
                                          api::SaveOptions());
      EXPECT_TRUE(saved.ok()) << saved.message();
      return result;
    }();
    return *path;
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.model_path = ModelPath();
    options.num_threads = 2;
    options.batcher.batch_window_us = 100;
    return options;
  }
};

/// A pipe-mode server driven from the test thread: requests go down one
/// pipe, responses come back up another, exactly as a shell would drive
/// `tkdc_serve --pipe`.
class PipeClient {
 public:
  explicit PipeClient(ServerOptions options) {
    EXPECT_EQ(pipe(to_server_), 0);
    EXPECT_EQ(pipe(from_server_), 0);
    auto created = Server::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.message();
    server_ = created.take();
    runner_ = std::thread([this] {
      exit_code_ = server_->RunPipe(to_server_[0], from_server_[1]);
      // RunPipe does not own the fds; release them so the client's reader
      // sees EOF once the drain has written every response.
      close(from_server_[1]);
      close(to_server_[0]);
    });
  }

  ~PipeClient() {
    if (runner_.joinable()) Finish();
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(write(to_server_[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  /// Closes the request pipe (EOF → drain) and waits for the server.
  int Finish() {
    if (to_server_[1] >= 0) {
      close(to_server_[1]);
      to_server_[1] = -1;
    }
    runner_.join();
    return exit_code_;
  }

  /// Reads response lines until EOF; call after Finish().
  std::vector<std::string> DrainResponses() {
    std::vector<std::string> responses;
    while (true) {
      auto next = reader().Next(kNeverStop);
      EXPECT_TRUE(next.ok()) << next.message();
      if (!next.ok() || !next.value().has_value()) break;
      responses.push_back(*next.value());
    }
    close(from_server_[0]);
    from_server_[0] = -1;
    return responses;
  }

  /// Blocking read of exactly one response line (server still running).
  std::string ReadResponse() {
    auto next = reader().Next(kNeverStop);
    EXPECT_TRUE(next.ok()) << next.message();
    EXPECT_TRUE(next.value().has_value());
    return next.value().value_or("");
  }

  Server& server() { return *server_; }

 private:
  // One reader for the connection's lifetime: a per-call reader would drop
  // whatever extra bytes it had buffered past the frame it returned.
  FrameReader& reader() {
    if (reader_ == nullptr) {
      reader_ =
          std::make_unique<FrameReader>(from_server_[0], Framing::kLine);
    }
    return *reader_;
  }

  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  std::unique_ptr<Server> server_;
  std::unique_ptr<FrameReader> reader_;
  std::thread runner_;
  int exit_code_ = -1;
};

std::map<uint64_t, std::string> ById(const std::vector<std::string>& lines) {
  std::map<uint64_t, std::string> result;
  for (const std::string& line : lines) {
    const size_t space = line.find(' ');
    EXPECT_NE(space, std::string::npos) << line;
    result[std::stoull(line.substr(0, space))] = line.substr(space + 1);
  }
  return result;
}

TEST_F(ServeServerTest, CreateRejectsMissingModel) {
  ServerOptions options = BaseOptions();
  options.model_path = testing::TempDir() + "/absent.tkdc";
  auto created = Server::Create(std::move(options));
  EXPECT_FALSE(created.ok());
  EXPECT_FALSE(created.message().empty());
}

TEST_F(ServeServerTest, PipeModeAnswersEveryRequestAndDrainsCleanly) {
  PipeClient client(BaseOptions());
  client.Send("1 PING");
  client.Send("2 CLASSIFY 0.1,-0.2");
  client.Send("3 ESTIMATE 0.1,-0.2");
  client.Send("4 CLASSIFY_TRAINING 0.1,-0.2");
  client.Send("this is not a request");
  client.Send("5 CLASSIFY 1,2,3");  // Wrong dims: per-request error.
  client.Send("6 FROBNICATE");      // Unknown verb: error keeps the id.
  EXPECT_EQ(client.Finish(), 0);

  const auto responses = ById(client.DrainResponses());
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses.at(1), "OK PONG");
  EXPECT_TRUE(responses.at(2) == "OK HIGH" || responses.at(2) == "OK LOW")
      << responses.at(2);
  EXPECT_EQ(responses.at(3).find("OK "), 0u) << responses.at(3);
  EXPECT_GT(std::stod(responses.at(3).substr(3)), 0.0);
  EXPECT_TRUE(responses.at(4) == "OK HIGH" || responses.at(4) == "OK LOW");
  EXPECT_EQ(responses.at(0).find("ERR"), 0u) << responses.at(0);
  EXPECT_EQ(responses.at(5).find("ERR"), 0u) << responses.at(5);
  EXPECT_NE(responses.at(5).find("dims"), std::string::npos);
  EXPECT_EQ(responses.at(6).find("ERR"), 0u) << responses.at(6);
  EXPECT_NE(responses.at(6).find("unknown verb"), std::string::npos);
}

TEST_F(ServeServerTest, PipeLabelsMatchSerialClassify) {
  // Serial reference, through the kind-agnostic handle API.
  auto loaded = api::LoadAny(ModelPath());
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  ASSERT_EQ(loaded.value().kind(), ModelKind::kSingleClass);
  const auto reference_model = loaded.value().TakeSingle();
  Rng rng(29);
  const Dataset queries = SampleStandardGaussian(50, 2, rng);

  ServerOptions options = BaseOptions();
  options.num_threads = 3;  // Labels must be thread-count invariant.
  PipeClient client(std::move(options));
  for (size_t i = 0; i < queries.size(); ++i) {
    std::ostringstream line;
    line << (i + 1) << " CLASSIFY " << queries.At(i, 0) << ","
         << queries.At(i, 1);
    client.Send(line.str());
  }
  EXPECT_EQ(client.Finish(), 0);
  const auto responses = ById(client.DrainResponses());
  ASSERT_EQ(responses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool high =
        reference_model->Classify(queries.Row(i)) == Classification::kHigh;
    EXPECT_EQ(responses.at(i + 1), high ? "OK HIGH" : "OK LOW") << i;
  }
}

TEST_F(ServeServerTest, StatsReportsServeCounters) {
  PipeClient client(BaseOptions());
  client.Send("1 CLASSIFY 0.5,0.5");
  client.ReadResponse();  // Wait until the classify completed.
  client.Send("2 STATS");
  const std::string stats = client.ReadResponse();
  EXPECT_EQ(stats.find("2 OK "), 0u) << stats;
  EXPECT_NE(stats.find("\"serve.requests_admitted\": 1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"serve.requests_completed\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"serve.batch_size\""), std::string::npos);
  EXPECT_NE(stats.find("\"serve.queue_wait_us\""), std::string::npos);
  EXPECT_NE(stats.find("\"query.queries\": 1"), std::string::npos) << stats;
  EXPECT_EQ(client.Finish(), 0);
}

TEST_F(ServeServerTest, ReloadRequestSwapsModelAndBadPathIsSoftError) {
  PipeClient client(BaseOptions());
  client.Send("1 RELOAD");  // Flagless: reload the serving path.
  EXPECT_EQ(client.ReadResponse(), "1 OK RELOADED");

  client.Send("2 RELOAD " + testing::TempDir() + "/no_such_model.tkdc");
  const std::string error = client.ReadResponse();
  EXPECT_EQ(error.find("2 ERR"), 0u) << error;

  // The failed reload left the old model serving.
  client.Send("3 CLASSIFY 0.0,0.0");
  const std::string label = client.ReadResponse();
  EXPECT_TRUE(label == "3 OK HIGH" || label == "3 OK LOW") << label;
  EXPECT_EQ(client.Finish(), 0);
}

TEST_F(ServeServerTest, SighupStyleReloadFlagIsConsumedMidTraffic) {
  std::atomic<bool> reload{false};
  ServerOptions options = BaseOptions();
  options.reload = &reload;
  PipeClient client(std::move(options));

  client.Send("1 CLASSIFY 0.25,0.25");
  client.ReadResponse();
  reload.store(true);
  // The idle read loop polls the flag within ~50 ms.
  for (int i = 0; i < 100 && reload.load(); ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_FALSE(reload.load()) << "reload flag was never consumed";

  client.Send("2 CLASSIFY 0.25,0.25");
  const std::string label = client.ReadResponse();
  EXPECT_TRUE(label == "2 OK HIGH" || label == "2 OK LOW") << label;
  client.Send("3 STATS");
  const std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("\"serve.model_reloads\": 1"), std::string::npos)
      << stats;
  EXPECT_EQ(client.Finish(), 0);
}

TEST_F(ServeServerTest, TerminateFlagDrainsPipeMode) {
  std::atomic<bool> terminate{false};
  ServerOptions options = BaseOptions();
  options.batcher.batch_window_us = 20'000;  // Requests sit in the window.
  options.terminate = &terminate;
  PipeClient client(std::move(options));
  for (int i = 1; i <= 8; ++i) {
    client.Send(std::to_string(i) + " CLASSIFY 0.1,0.1");
  }
  std::this_thread::sleep_for(milliseconds(30));  // Let the reader ingest.
  terminate.store(true);  // SIGTERM: drain, answer everything, exit 0.
  EXPECT_EQ(client.Finish(), 0);
  const auto responses = ById(client.DrainResponses());
  for (const auto& [id, body] : responses) {
    EXPECT_TRUE(body == "OK HIGH" || body == "OK LOW") << id << " " << body;
  }
  // Everything the reader admitted before the terminate was answered; with
  // a 30 ms head start over a 50 ms poll interval that is all 8 requests.
  EXPECT_EQ(responses.size(), 8u);
}

TEST_F(ServeServerTest, MetricsOutWrittenAtShutdown) {
  const std::string metrics_path = testing::TempDir() + "/serve_metrics.json";
  ServerOptions options = BaseOptions();
  options.metrics_out = metrics_path;
  {
    PipeClient client(std::move(options));
    client.Send("1 CLASSIFY 0.3,0.3");
    client.ReadResponse();
    EXPECT_EQ(client.Finish(), 0);
  }
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"serve.requests_admitted\": 1"),
            std::string::npos)
      << buffer.str();
}

// --- TCP mode ------------------------------------------------------------

/// Captures the "listening on 127.0.0.1:<port>" announcement, which RunTcp
/// flushes from its own thread, via a promise set on sync().
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

TEST_F(ServeServerTest, TcpModeServesConcurrentConnections) {
  std::atomic<bool> terminate{false};
  ServerOptions options = BaseOptions();
  options.terminate = &terminate;
  auto created = Server::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.message();
  Server& server = *created.value();

  AnnounceStream announce;
  int exit_code = -1;
  std::thread runner([&] {
    exit_code = server.RunTcp(/*port=*/0, announce);
  });
  const uint16_t port = announce.AwaitPort();
  ASSERT_GT(port, 0);

  const auto run_client = [port](uint64_t base_id) {
    const int fd = ConnectLoopback(port);
    const auto send = [&](const std::string& payload) {
      const std::string frame =
          EncodeFrame(payload, Framing::kLengthPrefixed);
      EXPECT_EQ(write(fd, frame.data(), frame.size()),
                static_cast<ssize_t>(frame.size()));
    };
    send(std::to_string(base_id) + " PING");
    send(std::to_string(base_id + 1) + " CLASSIFY 0.2,-0.1");
    FrameReader reader(fd, Framing::kLengthPrefixed);
    std::map<uint64_t, std::string> got;
    for (int i = 0; i < 2; ++i) {
      auto next = reader.Next(kNeverStop);
      ASSERT_TRUE(next.ok()) << next.message();
      ASSERT_TRUE(next.value().has_value());
      const std::string& line = *next.value();
      const size_t space = line.find(' ');
      got[std::stoull(line.substr(0, space))] = line.substr(space + 1);
    }
    EXPECT_EQ(got.at(base_id), "OK PONG");
    EXPECT_TRUE(got.at(base_id + 1) == "OK HIGH" ||
                got.at(base_id + 1) == "OK LOW");
    close(fd);
  };

  std::thread first([&] { run_client(10); });
  std::thread second([&] { run_client(20); });
  first.join();
  second.join();

  terminate.store(true);
  runner.join();
  EXPECT_EQ(exit_code, 0);
}

}  // namespace
}  // namespace tkdc::serve
