#ifndef TKDC_SERVE_ROUTER_H_
#define TKDC_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace tkdc::serve {

/// Consistent-hash ring over worker indices. Each worker contributes
/// `vnodes` points hashed from its seed string; a key routes to the first
/// point clockwise from its own hash, so removing a worker only moves the
/// keys that worker owned. Not internally synchronized — the router
/// guards it with its ring mutex.
class HashRing {
 public:
  explicit HashRing(size_t vnodes) : vnodes_(vnodes) {}

  /// Adds `worker`'s vnodes (seed is its address — stable across
  /// remove/re-add, so a recovered worker owns its old arcs again).
  void Add(size_t worker, const std::string& seed);
  /// Removes every vnode owned by `worker`.
  void Remove(size_t worker);
  /// Owner of `key`, or nullopt when the ring is empty.
  std::optional<size_t> Pick(std::string_view key) const;

  bool empty() const { return ring_.empty(); }
  size_t size() const { return ring_.size(); }

  /// FNV-1a, the repo-standard cheap string hash.
  static uint64_t Hash(std::string_view bytes);

 private:
  size_t vnodes_;
  /// vnode hash -> worker index, ordered for lower_bound routing.
  std::map<uint64_t, size_t> ring_;
};

struct RouterOptions {
  /// Worker addresses, "127.0.0.1:PORT" (or bare "PORT"); all loopback.
  std::vector<std::string> workers;
  /// Vnodes per worker on the ring.
  size_t vnodes = 64;
  /// Outstanding-request cap per worker; excess requests are answered
  /// OVERLOADED at the router without touching the worker.
  size_t max_outstanding = 256;
  /// Health-probe cadence; a worker missing 3 consecutive probe windows
  /// is failed, and a failed worker is redialed at this cadence.
  uint64_t probe_interval_ms = 500;
  /// Externally owned shutdown flag (SIGTERM handler). Null = only client
  /// EOF stops a pipe-mode router.
  const std::atomic<bool>* terminate = nullptr;
};

/// The fleet front door: accepts client connections speaking the ordinary
/// serve protocol and fans requests out across N workers by consistent-
/// hashing the request's model scope (scope-less requests key on
/// "default"). All models must be loadable by every worker (a shared
/// --model-dir); the ring only decides placement.
///
/// Forwarding preserves request/response bytes except the leading id
/// token, which is rewritten to a router-unique id on the way out and
/// back to the client's id on the way home — clients keep their own id
/// space, workers see globally unique ids, and responses match out of
/// order exactly as when talking to a worker directly.
///
/// Failure containment: a worker write failure, read EOF, or 3 missed
/// health probes removes the worker from the ring and answers its
/// outstanding requests with ERR (clients retry; the key now routes to a
/// surviving worker). A background prober redials failed workers and
/// splices them back into the ring on success. Per-worker outstanding
/// caps shed excess load with OVERLOADED before it queues anywhere.
class Router {
 public:
  /// Dials every worker; errors if none answer (a fleet with zero live
  /// workers cannot serve its first request). Workers that fail the
  /// initial dial start in the failed state and are redialed by the
  /// prober.
  static Result<std::unique_ptr<Router>> Create(RouterOptions options);

  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// TCP mode: listens on 127.0.0.1:`port` (0 = ephemeral, announced as
  /// "listening on 127.0.0.1:<port>"), one session thread per live client
  /// (RunAcceptLoop).
  int RunTcp(uint16_t port, std::ostream& announce);

  /// Pipe mode: line-framed requests on `in_fd`, responses on `out_fd`;
  /// drains in-flight requests after EOF before returning.
  int RunPipe(int in_fd, int out_fd);

  /// Fails every link, answers all outstanding requests with ERR, joins
  /// the prober and reader threads. Idempotent; Run* call it on exit.
  void Shutdown();

  /// Live worker count (tests, bench instrumentation).
  size_t live_workers() const;

 private:
  /// One client request awaiting its worker response.
  struct Pending {
    std::shared_ptr<FrameWriter> client;
    uint64_t client_id = 0;
  };

  /// One worker connection. `up` flips false on failure; the prober owns
  /// the down->up transition (reconnect), any thread may take up->down
  /// (FailWorker).
  struct WorkerLink {
    std::string address;
    int fd = -1;
    std::unique_ptr<FrameWriter> writer;
    std::thread reader;
    std::mutex mutex;  ///< Guards `outstanding`.
    std::unordered_map<uint64_t, Pending> outstanding;
    std::atomic<bool> up{false};
    std::atomic<int64_t> last_pong_ms{0};
  };

  explicit Router(RouterOptions options);

  /// Forwards every request frame from `in_fd` until EOF or shutdown (the
  /// pipe loop and every TCP session); returns the client's writer.
  std::shared_ptr<FrameWriter> ServeClient(int in_fd, int out_fd,
                                           Framing framing);

  /// Routes one raw request payload; writes every failure response
  /// (OVERLOADED, no workers, worker lost) to `client` itself.
  void Forward(std::string_view payload,
               const std::shared_ptr<FrameWriter>& client);

  /// Reads worker responses, rewrites ids, and delivers them until the
  /// link dies.
  void ReaderLoop(size_t worker);

  /// Health probes + redials at the probe cadence.
  void ProberLoop();

  /// Takes the link down: off the ring, outstanding answered ERR, socket
  /// shut down to wake its reader. Idempotent per outage.
  void FailWorker(size_t worker);

  /// Answers every request outstanding on `link` with ERR `message`.
  static void AnswerOutstanding(WorkerLink& link, const std::string& message);

  /// Joins the link's reader, then drops its writer and closes its fd.
  static void CloseLink(WorkerLink& link);

  /// Dials `address` ("127.0.0.1:PORT" or "PORT"); -1 on failure.
  static int Dial(const std::string& address);

  /// Wires a fresh socket into the link and splices it onto the ring.
  void Activate(size_t worker, int fd);

  /// True when every link has no outstanding request for `client`.
  bool Drained(const std::shared_ptr<FrameWriter>& client) const;

  bool ShouldStop() const {
    return shutdown_.load(std::memory_order_relaxed) ||
           (options_.terminate != nullptr &&
            options_.terminate->load(std::memory_order_relaxed));
  }

  const RouterOptions options_;
  std::vector<std::unique_ptr<WorkerLink>> links_;

  mutable std::mutex ring_mutex_;
  HashRing ring_;

  /// Router-unique forwarded-request ids; 0 is reserved for health
  /// probes, so real ids start at 1.
  std::atomic<uint64_t> next_id_{1};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> shutdown_done_{false};
  std::thread prober_;
};

/// Command-line surface of tools/tkdc_router.cc.
struct RouterFlags {
  RouterOptions options;
  uint16_t port = 0;
  bool pipe = false;
};

const char* RouterUsage();
Result<RouterFlags> ParseRouterFlags(const std::vector<std::string>& args);

}  // namespace tkdc::serve

#endif  // TKDC_SERVE_ROUTER_H_
