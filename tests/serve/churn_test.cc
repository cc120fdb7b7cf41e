// Connection churn against the two TCP accept loops (Server::RunTcp and
// Router::RunTcp): many short-lived connections, opened strictly one after
// another, must not grow the process with its lifetime connection count.
//
// A session thread that has exited but was never joined keeps its stack
// mapping (8 MB of address space by default), and it no longer shows in
// the thread count, so the check reads VmSize: a loop that keeps every
// finished session until shutdown adds ~8 MB per connection here.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

/// Connections opened before the baseline reading (thread stack caches and
/// allocator arenas settle) and after it (the measured churn).
constexpr int kWarmupConnections = 20;
constexpr int kChurnConnections = 200;

/// Allowed VmSize growth over the measured churn. A loop that retains
/// finished sessions adds ~8 MB per connection, ~1.6 GB over the churn.
constexpr size_t kMaxGrowthKb = 256 * 1024;

/// VmSize of this process in kB.
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

/// Captures the "listening on 127.0.0.1:<port>" announcement, which
/// RunTcp flushes from its own thread.
class AnnounceStream : public std::ostream {
 public:
  AnnounceStream() : std::ostream(&buf_), buf_(&port_) {}

  uint16_t AwaitPort() {
    const std::string text = port_.get_future().get();
    return static_cast<uint16_t>(std::stoi(text.substr(text.rfind(':') + 1)));
  }

 private:
  class Buf : public std::stringbuf {
   public:
    explicit Buf(std::promise<std::string>* port) : port_(port) {}
    int sync() override {
      if (port_ != nullptr) port_->set_value(str());
      port_ = nullptr;
      return 0;
    }

   private:
    std::promise<std::string>* port_;
  };

  std::promise<std::string> port_;
  Buf buf_;
};

/// A Server or Router running RunTcp on its own thread; the destructor
/// raises its terminate flag and joins it.
template <typename Service>
class TcpRunner {
 public:
  TcpRunner(Service& service, std::atomic<bool>* terminate)
      : terminate_(terminate),
        thread_([this, &service] { service.RunTcp(0, announce_); }),
        port_(announce_.AwaitPort()) {}

  ~TcpRunner() {
    terminate_->store(true);
    thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  std::atomic<bool>* terminate_;
  AnnounceStream announce_;
  std::thread thread_;
  uint16_t port_;
};

/// Opens `count` connections to `port`, one at a time: each sends one
/// PING, waits for its PONG, and closes before the next one opens.
void Churn(uint16_t port, int count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::function<bool()> timed_out = [deadline] {
    return std::chrono::steady_clock::now() > deadline;
  };
  for (int i = 1; i <= count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string frame = EncodeFrame(std::to_string(i) + " PING",
                                          Framing::kLengthPrefixed);
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    FrameReader reader(fd, Framing::kLengthPrefixed);
    const auto reply = reader.Next(timed_out);
    ::close(fd);
    ASSERT_TRUE(reply.ok()) << reply.message();
    ASSERT_TRUE(reply.value().has_value()) << "no reply to connection " << i;
    ASSERT_EQ(*reply.value(), std::to_string(i) + " OK PONG");
  }
}

/// Warms up, then asserts the measured churn leaves VmSize bounded.
void ExpectBoundedChurn(uint16_t port) {
  ASSERT_NO_FATAL_FAILURE(Churn(port, kWarmupConnections));
  const size_t before = VmSizeKb();
  ASSERT_GT(before, 0u) << "no VmSize in /proc/self/status";
  ASSERT_NO_FATAL_FAILURE(Churn(port, kChurnConnections));
  const size_t after = VmSizeKb();
  EXPECT_LT(after, before + kMaxGrowthKb)
      << "VmSize grew from " << before << " kB to " << after << " kB over "
      << kChurnConnections << " sequential connections";
}

class ServeChurnTest : public ::testing::Test {
 protected:
  static ServerOptions WorkerOptions(std::atomic<bool>* terminate) {
    static const std::string* path = [] {
      Rng rng(5);
      const Dataset data = SampleStandardGaussian(200, 2, rng);
      api::TrainOptions options;
      options.config.p = 0.1;
      options.config.num_threads = 1;
      auto trained = api::Train(data, options);
      EXPECT_TRUE(trained.ok()) << trained.message();
      auto* result = new std::string(testing::TempDir() + "/churn_model." +
                                     std::to_string(getpid()) + ".tkdc");
      const Status saved = api::SaveModel(*result, *trained.value(), data,
                                          api::SaveOptions());
      EXPECT_TRUE(saved.ok()) << saved.message();
      return result;
    }();
    ServerOptions options;
    options.model_path = *path;
    options.num_threads = 1;
    options.batcher.batch_window_us = 0;
    options.terminate = terminate;
    return options;
  }
};

TEST_F(ServeChurnTest, ServerJoinsFinishedSessions) {
  std::atomic<bool> terminate{false};
  auto server = Server::Create(WorkerOptions(&terminate));
  ASSERT_TRUE(server.ok()) << server.message();
  TcpRunner<Server> runner(*server.value(), &terminate);
  ExpectBoundedChurn(runner.port());
}

TEST_F(ServeChurnTest, RouterJoinsFinishedSessions) {
  std::atomic<bool> terminate{false};
  auto worker = Server::Create(WorkerOptions(&terminate));
  ASSERT_TRUE(worker.ok()) << worker.message();
  TcpRunner<Server> worker_runner(*worker.value(), &terminate);

  std::atomic<bool> router_terminate{false};
  RouterOptions options;
  options.workers = {std::to_string(worker_runner.port())};
  options.terminate = &router_terminate;
  auto router = Router::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.message();
  TcpRunner<Router> runner(*router.value(), &router_terminate);
  ExpectBoundedChurn(runner.port());
}

}  // namespace
}  // namespace tkdc::serve
