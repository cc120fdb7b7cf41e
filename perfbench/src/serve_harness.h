#ifndef PERFBENCH_SERVE_HARNESS_H_
#define PERFBENCH_SERVE_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "schedule.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

/// Captures the "listening on 127.0.0.1:<port>" line RunTcp announces.
class PortAnnouncement : public std::ostream {
 public:
  PortAnnouncement();

  /// Blocks until RunTcp announced (or returned without announcing: 0).
  uint16_t AwaitPort();
  /// Unblocks AwaitPort when RunTcp returned before announcing.
  void Abandon();

 private:
  class Buffer : public std::stringbuf {
   public:
    explicit Buffer(PortAnnouncement* owner) : owner_(owner) {}
    int sync() override;

   private:
    PortAnnouncement* owner_;
  };

  void Publish(const std::string& text);

  Buffer buffer_;
  std::atomic<bool> published_{false};
  std::promise<std::string> promise_;
  std::future<std::string> future_;
};

/// A tkdc_serve worker (Server) or the fleet Router inside this process,
/// serving TCP on an ephemeral loopback port from its own thread. Stop()
/// (and the destructor) drains and joins it.
template <typename Service, typename Options>
class InProcess {
 public:
  /// Null with `*error` set when Create fails.
  static std::unique_ptr<InProcess> Start(Options options,
                                          std::string* error) {
    std::unique_ptr<InProcess> self(new InProcess());
    options.terminate = &self->terminate_;
    auto created = Service::Create(std::move(options));
    if (!created.ok()) {
      *error = created.status().message();
      return nullptr;
    }
    self->service_ = created.take();
    InProcess* raw = self.get();
    self->runner_ = std::thread([raw] {
      raw->service_->RunTcp(0, raw->announce_);
      raw->announce_.Abandon();
    });
    self->port_ = self->announce_.AwaitPort();
    if (self->port_ == 0) {
      *error = "no port announced";
      return nullptr;
    }
    return self;
  }

  ~InProcess() { Stop(); }

  InProcess(const InProcess&) = delete;
  InProcess& operator=(const InProcess&) = delete;

  Service& service() { return *service_; }
  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  void Stop() {
    terminate_.store(true);
    if (runner_.joinable()) runner_.join();
  }

 private:
  InProcess() = default;

  std::atomic<bool> terminate_{false};
  std::unique_ptr<Service> service_;
  PortAnnouncement announce_;
  std::thread runner_;
  uint16_t port_ = 0;
};

using InProcessServer =
    InProcess<tkdc::serve::Server, tkdc::serve::ServerOptions>;
using InProcessRouter =
    InProcess<tkdc::serve::Router, tkdc::serve::RouterOptions>;

/// One client TCP connection speaking length-prefixed frames. One thread
/// may send while another reads.
class Connection {
 public:
  /// Null when the connect fails.
  static std::unique_ptr<Connection> Dial(uint16_t port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(std::string_view payload);
  /// Next response payload; nullopt on EOF, error, or when `stop` turns
  /// true while waiting.
  std::optional<std::string> Read(const std::function<bool()>& stop = nullptr);
  /// One request, one response.
  std::optional<std::string> Call(std::string_view payload);

 private:
  explicit Connection(int fd);

  int fd_;
  tkdc::serve::FrameReader reader_;
};

/// A response payload split into its parts.
struct ParsedResponse {
  uint64_t id = 0;
  std::string code;
  std::string body;
};
std::optional<ParsedResponse> ParseResponse(std::string_view payload);

/// Builds the request text of op `i` (without its leading id).
using PayloadFn = std::function<std::string(size_t i)>;
/// Whether an OK body is the right answer for op `i`; mismatches count
/// against label_agreement.
using CheckFn = std::function<bool(size_t i, std::string_view body)>;

/// Counts and timings of one load phase.
struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  /// OK answers whose label CheckFn compared, and how many matched.
  uint64_t checked = 0;
  uint64_t matched = 0;
  /// Per answered op: open loop from its scheduled send time, closed loop
  /// from its actual send time.
  std::vector<double> latency_us;
  /// Per op kind (index: OpKind), from the actual send time.
  std::vector<double> rtt_us[2];
  /// Open loop: how late each send was against its schedule.
  std::vector<double> lag_us;
  /// Closed loop: completed ops per second in each of a fixed number of
  /// equal-count chunks of the phase.
  std::vector<double> chunk_throughput;
  double wall_s = 0.0;
};

/// Closed loop: `connections` connections to `port`, each keeping
/// `window` requests in flight until the ops are spent; op i goes over
/// connection i % connections. With a tracer, every op records a span
/// (request id = op id) under one phase span named `phase`.
PhaseResult RunClosedLoop(uint16_t port, size_t connections, size_t window,
                          const std::vector<Op>& ops, const PayloadFn& payload,
                          const CheckFn& check, Tracer& tracer,
                          const char* phase);

/// Open loop: one sender thread sends op i at ops[i].due_ns after the
/// phase starts, round robin over `connections` connections, whatever the
/// replies; one reader thread per connection. Latency runs from the
/// scheduled send time.
PhaseResult RunOpenLoop(uint16_t port, size_t connections,
                        const std::vector<Op>& ops, const PayloadFn& payload,
                        const CheckFn& check, Tracer& tracer,
                        const char* phase);

/// Sequential round trips (one request in flight) over one connection;
/// returns per-call RTTs in us and records a span named `span` for each.
std::vector<double> ProbeRoundTrips(uint16_t port, size_t count,
                                    const PayloadFn& payload, Tracer& tracer,
                                    const char* span);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_HARNESS_H_
