#include "serve/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <utility>

namespace tkdc::serve {
namespace {

/// Prober sleep granularity, so shutdown is observed well inside one
/// probe interval.
constexpr int64_t kProbeSliceMs = 50;

/// Missed-probe budget: a worker silent for this many probe intervals is
/// failed.
constexpr int64_t kProbeMissBudget = 3;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Leading id token of `payload` (after optional whitespace). Returns the
/// byte range so the caller can splice a rewritten id in front of the
/// untouched remainder.
struct IdToken {
  bool ok = false;
  uint64_t id = 0;
  size_t begin = 0;  ///< First byte of the token.
  size_t end = 0;    ///< One past the last byte.
};

IdToken ParseIdToken(std::string_view payload) {
  IdToken token;
  size_t begin = 0;
  while (begin < payload.size() &&
         (payload[begin] == ' ' || payload[begin] == '\t')) {
    ++begin;
  }
  size_t end = begin;
  while (end < payload.size() && payload[end] != ' ' &&
         payload[end] != '\t' && payload[end] != '\r' &&
         payload[end] != '\n') {
    ++end;
  }
  if (end == begin) return token;
  const char* first = payload.data() + begin;
  const char* last = payload.data() + end;
  const auto [ptr, ec] = std::from_chars(first, last, token.id);
  if (ec != std::errc() || ptr != last) return token;
  token.ok = true;
  token.begin = begin;
  token.end = end;
  return token;
}

}  // namespace

void HashRing::Add(size_t worker, const std::string& seed) {
  for (size_t i = 0; i < vnodes_; ++i) {
    ring_.emplace(Hash(seed + "#" + std::to_string(i)), worker);
  }
}

void HashRing::Remove(size_t worker) {
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == worker ? ring_.erase(it) : std::next(it);
  }
}

std::optional<size_t> HashRing::Pick(std::string_view key) const {
  if (ring_.empty()) return std::nullopt;
  auto it = ring_.lower_bound(Hash(key));
  if (it == ring_.end()) it = ring_.begin();  // Wrap around.
  return it->second;
}

uint64_t HashRing::Hash(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime.
  }
  // Raw FNV-1a barely avalanches its final bytes, so the short ids this
  // ring hashes ("m3", "users-eu") would cluster on one arc and starve
  // whole workers. A 64-bit finalizer (murmur3's fmix64) fixes the
  // dispersion without changing the streaming accumulation above.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

Router::Router(RouterOptions options)
    : options_(std::move(options)), ring_(options_.vnodes) {
  links_.reserve(options_.workers.size());
  for (const std::string& address : options_.workers) {
    auto link = std::make_unique<WorkerLink>();
    link->address = address;
    links_.push_back(std::move(link));
  }
}

Router::~Router() { Shutdown(); }

Result<std::unique_ptr<Router>> Router::Create(RouterOptions options) {
  // Same rationale as the server: a vanished peer must not SIGPIPE us.
  std::signal(SIGPIPE, SIG_IGN);
  if (options.workers.empty()) {
    return Errorf() << "router needs at least one --worker";
  }
  if (options.vnodes < 1) return Errorf() << "--vnodes must be >= 1";
  if (options.max_outstanding < 1) {
    return Errorf() << "--max-outstanding must be >= 1";
  }
  std::unique_ptr<Router> router(new Router(std::move(options)));
  size_t live = 0;
  for (size_t w = 0; w < router->links_.size(); ++w) {
    const int fd = Dial(router->links_[w]->address);
    if (fd >= 0) {
      router->Activate(w, fd);
      ++live;
    } else {
      std::fprintf(stderr, "router: worker %s not answering; will redial\n",
                   router->links_[w]->address.c_str());
    }
  }
  if (live == 0) return Errorf() << "no worker answered the initial dial";
  Router* raw = router.get();
  router->prober_ = std::thread([raw] { raw->ProberLoop(); });
  return router;
}

int Router::Dial(const std::string& address) {
  const size_t colon = address.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? address : address.substr(colon + 1);
  uint64_t port = 0;
  const char* begin = port_text.c_str();
  const char* end = begin + port_text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, port);
  if (ec != std::errc() || ptr != end || port == 0 || port > 65535) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void Router::Activate(size_t worker, int fd) {
  WorkerLink& link = *links_[worker];
  {
    std::lock_guard<std::mutex> lock(link.mutex);
    link.fd = fd;
    // The link owns the fd lifecycle itself (shutdown-to-wake, close
    // after joining the reader), so the writer must not close it.
    link.writer =
        std::make_unique<FrameWriter>(fd, Framing::kLengthPrefixed,
                                      /*owns_fd=*/false);
    link.last_pong_ms.store(NowMs(), std::memory_order_relaxed);
  }
  link.up.store(true, std::memory_order_release);
  link.reader = std::thread([this, worker] { ReaderLoop(worker); });
  std::lock_guard<std::mutex> lock(ring_mutex_);
  ring_.Add(worker, link.address);
}

void Router::FailWorker(size_t worker) {
  WorkerLink& link = *links_[worker];
  if (!link.up.exchange(false)) return;  // Someone else took it down.
  std::fprintf(stderr, "router: worker %s marked down\n",
               link.address.c_str());
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.Remove(worker);
  }
  // Wake the reader out of its blocking poll; the prober joins it and
  // closes the fd on the redial path.
  ::shutdown(link.fd, SHUT_RDWR);
  // ERR, not silence: the client learns immediately and retries; the ring
  // now routes the key to a surviving worker.
  AnswerOutstanding(link, "worker " + link.address + " lost; retry");
}

void Router::AnswerOutstanding(WorkerLink& link, const std::string& message) {
  std::unordered_map<uint64_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(link.mutex);
    orphans.swap(link.outstanding);
  }
  for (const auto& [rid, orphan] : orphans) {
    orphan.client->Write(Response::Error(orphan.client_id, message));
  }
}

void Router::CloseLink(WorkerLink& link) {
  if (link.reader.joinable()) link.reader.join();
  std::lock_guard<std::mutex> lock(link.mutex);
  link.writer.reset();
  if (link.fd >= 0) {
    ::close(link.fd);
    link.fd = -1;
  }
}

void Router::Forward(std::string_view payload,
                     const std::shared_ptr<FrameWriter>& client) {
  const IdToken token = ParseIdToken(payload);
  if (!token.ok) {
    client->Write(Response::Error(
        0, "bad request id (want a uint64 first token)"));
    return;
  }
  // Scope-less requests key the ring on the default model's id.
  const std::string scope = BestEffortModelScope(payload);
  const std::string_view key = ModelIdOrDefault(scope);
  std::optional<size_t> picked;
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    picked = ring_.Pick(key);
  }
  if (!picked.has_value()) {
    client->Write(Response::Error(token.id, "no live workers"));
    return;
  }
  WorkerLink& link = *links_[*picked];
  const uint64_t rid = next_id_.fetch_add(1, std::memory_order_relaxed);
  bool write_failed = false;
  {
    std::lock_guard<std::mutex> lock(link.mutex);
    if (!link.up.load(std::memory_order_acquire)) {
      client->Write(Response::Error(
          token.id, "worker " + link.address + " lost; retry"));
      return;
    }
    if (link.outstanding.size() >= options_.max_outstanding) {
      // Shed at the router: the cap bounds what a slow worker can queue.
      client->Write(Response::Overloaded(token.id));
      return;
    }
    link.outstanding.emplace(rid, Pending{client, token.id});
    // Rewrite only the leading id; every other byte survives the hop.
    std::string rewritten;
    rewritten.reserve(payload.size() + 20);
    rewritten += std::to_string(rid);
    rewritten.append(payload.substr(token.end));
    // Written under the link mutex so the writer cannot be torn down
    // (redial) mid-call; FrameWriter's own lock serializes the bytes.
    link.writer->WriteRaw(rewritten);
    write_failed = link.writer->broken();
  }
  if (write_failed) FailWorker(*picked);
}

void Router::ReaderLoop(size_t worker) {
  WorkerLink& link = *links_[worker];
  FrameReader reader(link.fd, Framing::kLengthPrefixed);
  const auto stop = [this] { return ShouldStop(); };
  while (true) {
    auto frame = reader.Next(stop);
    if (!frame.ok() || !frame.value().has_value()) break;
    const std::string& payload = *frame.value();
    const IdToken token = ParseIdToken(payload);
    if (!token.ok) continue;  // Not a protocol response; drop.
    if (token.id == 0) {
      // Health-probe pong (id 0 is reserved for the prober's PING).
      link.last_pong_ms.store(NowMs(), std::memory_order_relaxed);
      continue;
    }
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(link.mutex);
      const auto it = link.outstanding.find(token.id);
      if (it == link.outstanding.end()) continue;  // Drained by an outage.
      pending = std::move(it->second);
      link.outstanding.erase(it);
    }
    std::string rewritten;
    rewritten.reserve(payload.size() + 20);
    rewritten += std::to_string(pending.client_id);
    rewritten.append(payload.substr(token.end));
    pending.client->WriteRaw(rewritten);
  }
  if (!ShouldStop()) FailWorker(worker);
}

void Router::ProberLoop() {
  const int64_t interval =
      static_cast<int64_t>(options_.probe_interval_ms);
  int64_t next_probe = NowMs() + interval;
  while (!ShouldStop()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<int64_t>(kProbeSliceMs, interval)));
    const int64_t now = NowMs();
    if (now < next_probe || ShouldStop()) continue;
    next_probe = now + interval;
    for (size_t w = 0; w < links_.size(); ++w) {
      WorkerLink& link = *links_[w];
      if (link.up.load(std::memory_order_acquire)) {
        if (now - link.last_pong_ms.load(std::memory_order_relaxed) >
            kProbeMissBudget * interval) {
          FailWorker(w);  // Silent across the miss budget: presumed dead.
          continue;
        }
        bool broken = false;
        {
          std::lock_guard<std::mutex> lock(link.mutex);
          if (link.writer != nullptr) {
            link.writer->WriteRaw("0 PING");
            broken = link.writer->broken();
          }
        }
        if (broken) FailWorker(w);  // Outside the link mutex it retakes.
      } else {
        // Redial: retire the dead connection, then splice a fresh one
        // back onto the ring.
        CloseLink(link);
        const int fd = Dial(link.address);
        if (fd >= 0) Activate(w, fd);
      }
    }
  }
}

size_t Router::live_workers() const {
  size_t live = 0;
  for (const auto& link : links_) {
    if (link->up.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

bool Router::Drained(const std::shared_ptr<FrameWriter>& client) const {
  for (const auto& link_ptr : links_) {
    WorkerLink& link = *link_ptr;
    std::lock_guard<std::mutex> lock(link.mutex);
    for (const auto& [rid, pending] : link.outstanding) {
      if (pending.client == client) return false;
    }
  }
  return true;
}

std::shared_ptr<FrameWriter> Router::ServeClient(int in_fd, int out_fd,
                                                Framing framing) {
  // The writer outlives this loop through Pending references, so late
  // worker responses still reach the client.
  return ServeFrames(
      in_fd, out_fd, framing, [this] { return ShouldStop(); },
      [this](std::string_view payload,
             const std::shared_ptr<FrameWriter>& writer) {
        Forward(payload, writer);
      });
}

int Router::RunPipe(int in_fd, int out_fd) {
  const auto writer = ServeClient(in_fd, out_fd, Framing::kLine);
  // Drain before exiting: forwarded requests still in flight get their
  // responses (or an outage ERR) written first.
  const int64_t deadline = NowMs() + 10'000;
  while (!Drained(writer) && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Shutdown();
  return 0;
}

int Router::RunTcp(uint16_t port, std::ostream& announce) {
  const int code = RunAcceptLoop(
      port, announce, [this] { return ShouldStop(); },
      [this](int fd) { ServeClient(fd, fd, Framing::kLengthPrefixed); });
  Shutdown();
  return code;
}

void Router::Shutdown() {
  if (shutdown_done_.exchange(true)) return;
  shutdown_.store(true, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
  for (const auto& link_ptr : links_) {
    WorkerLink& link = *link_ptr;
    link.up.store(false, std::memory_order_release);
    if (link.fd >= 0) ::shutdown(link.fd, SHUT_RDWR);
    CloseLink(link);
    AnswerOutstanding(link, "router shutting down");
  }
}

namespace {

constexpr const char kRouterUsage[] =
    "usage: tkdc_router --worker 127.0.0.1:P [--worker ...] "
    "[--port N | --pipe]\n"
    "  --worker ADDR           worker address, \"PORT\" or \"HOST:PORT\"\n"
    "                          (loopback only); repeat once per worker\n"
    "  --port N                client-facing TCP port on 127.0.0.1\n"
    "                          (default 0 = ephemeral, announced on\n"
    "                          stdout); length-prefixed framing\n"
    "  --pipe                  serve stdin/stdout with line framing\n"
    "                          instead of TCP\n"
    "  --vnodes N              consistent-hash points per worker\n"
    "                          (default 64)\n"
    "  --max-outstanding N     per-worker in-flight cap; excess requests\n"
    "                          are answered OVERLOADED (default 256)\n"
    "  --probe-interval-ms T   health-probe cadence; a worker silent for\n"
    "                          3 intervals is failed and redialed\n"
    "                          (default 500)\n"
    "Requests route by their @<model_id> scope (scope-less requests key\n"
    "on \"default\"); every worker must be able to load every model.\n"
    "Signals: SIGTERM drains in-flight requests and exits 0.\n";

}  // namespace

const char* RouterUsage() { return kRouterUsage; }

Result<RouterFlags> ParseRouterFlags(const std::vector<std::string>& args) {
  RouterFlags flags;
  bool port_given = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--pipe") {
      flags.pipe = true;
      continue;
    }
    if (arg == "--help") return Errorf() << "help requested";
    const auto take_value = [&](std::string* value) -> Status {
      if (i + 1 >= args.size()) {
        return Errorf() << "missing value for " << arg;
      }
      *value = args[++i];
      return Status::Ok();
    };
    const auto take_number = [&](uint64_t max, uint64_t* out) -> Status {
      std::string value;
      if (Status status = take_value(&value); !status.ok()) return status;
      const char* begin = value.c_str();
      const char* end = begin + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, *out);
      if (ec != std::errc() || ptr != end) {
        return Errorf() << arg << ": expected a non-negative integer, got \""
                        << value << "\"";
      }
      if (*out > max) {
        return Errorf() << arg << ": " << value << " exceeds the maximum "
                        << max;
      }
      return Status::Ok();
    };
    Status status;
    uint64_t number = 0;
    if (arg == "--worker") {
      std::string worker;
      if (status = take_value(&worker); !status.ok()) return status;
      flags.options.workers.push_back(std::move(worker));
    } else if (arg == "--port") {
      if (status = take_number(65535, &number); !status.ok()) return status;
      flags.port = static_cast<uint16_t>(number);
      port_given = true;
    } else if (arg == "--vnodes") {
      if (status = take_number(4096, &number); !status.ok()) return status;
      if (number < 1) return Errorf() << "--vnodes must be >= 1";
      flags.options.vnodes = static_cast<size_t>(number);
    } else if (arg == "--max-outstanding") {
      if (status = take_number(1u << 24, &number); !status.ok()) {
        return status;
      }
      if (number < 1) return Errorf() << "--max-outstanding must be >= 1";
      flags.options.max_outstanding = static_cast<size_t>(number);
    } else if (arg == "--probe-interval-ms") {
      if (status = take_number(600'000, &number); !status.ok()) {
        return status;
      }
      if (number < 1) return Errorf() << "--probe-interval-ms must be >= 1";
      flags.options.probe_interval_ms = number;
    } else {
      return Errorf() << "unknown flag: " << arg;
    }
  }
  if (flags.options.workers.empty()) {
    return Errorf() << "at least one --worker is required";
  }
  if (flags.pipe && port_given) {
    return Errorf() << "--pipe and --port are mutually exclusive";
  }
  return flags;
}

}  // namespace tkdc::serve
