#include "serve_harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// How long a phase waits for outstanding replies before it counts them as
// never answered.
constexpr auto kReplyGrace = std::chrono::seconds(10);
// Chunks a closed-loop phase is cut into for its throughput median.
constexpr size_t kThroughputChunks = 20;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

const char* SpanName(OpKind kind) {
  return kind == OpKind::kInsert ? "client.insert" : "client.classify";
}

std::string Frame(size_t i, const PayloadFn& payload) {
  return std::to_string(i + 1) + " " + payload(i);
}

/// Ops per second in each equal-count chunk of sorted completion times.
std::vector<double> ChunkThroughput(std::vector<int64_t> done_ns) {
  std::sort(done_ns.begin(), done_ns.end());
  std::vector<double> out;
  const size_t per_chunk = done_ns.size() / kThroughputChunks;
  if (per_chunk == 0) return out;
  int64_t previous = 0;
  for (size_t k = 0; k < kThroughputChunks; ++k) {
    const int64_t end = done_ns[(k + 1) * per_chunk - 1];
    if (end > previous) {
      out.push_back(static_cast<double>(per_chunk) * 1e9 /
                    static_cast<double>(end - previous));
    }
    previous = end;
  }
  return out;
}

struct ConnectionTally {
  uint64_t ok = 0;
  uint64_t checked = 0;
  uint64_t matched = 0;
  std::vector<double> latency_us;
  std::vector<double> rtt_us[2];
  std::vector<int64_t> done_ns;
};

/// Books one reply of op `i`.
void Tally(ConnectionTally& tally, const ParsedResponse& reply, size_t i,
           const std::vector<Op>& ops, const CheckFn& check,
           double latency_us, double rtt_us) {
  if (reply.code != "OK") return;
  ++tally.ok;
  tally.latency_us.push_back(latency_us);
  tally.rtt_us[static_cast<int>(ops[i].kind)].push_back(rtt_us);
  if (check != nullptr && ops[i].kind == OpKind::kClassify) {
    ++tally.checked;
    if (check(i, reply.body)) ++tally.matched;
  }
}

void Merge(PhaseResult& result, ConnectionTally& tally) {
  result.ok += tally.ok;
  result.checked += tally.checked;
  result.matched += tally.matched;
  result.latency_us.insert(result.latency_us.end(), tally.latency_us.begin(),
                           tally.latency_us.end());
  for (int k = 0; k < 2; ++k) {
    result.rtt_us[k].insert(result.rtt_us[k].end(), tally.rtt_us[k].begin(),
                            tally.rtt_us[k].end());
  }
}

}  // namespace

PortAnnouncement::PortAnnouncement()
    : std::ostream(&buffer_), buffer_(this), future_(promise_.get_future()) {}

int PortAnnouncement::Buffer::sync() {
  owner_->Publish(str());
  return 0;
}

void PortAnnouncement::Publish(const std::string& text) {
  if (!published_.exchange(true)) promise_.set_value(text);
}

void PortAnnouncement::Abandon() { Publish(""); }

uint16_t PortAnnouncement::AwaitPort() {
  const std::string text = future_.get();
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
}

Connection::Connection(int fd)
    : fd_(fd), reader_(fd, tkdc::serve::Framing::kLengthPrefixed) {}

Connection::~Connection() { ::close(fd_); }

std::unique_ptr<Connection> Connection::Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  // Requests are small frames sent back to back; Nagle would hold them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

bool Connection::Send(std::string_view payload) {
  const std::string frame =
      tkdc::serve::EncodeFrame(payload, tkdc::serve::Framing::kLengthPrefixed);
  size_t written = 0;
  while (written < frame.size()) {
    const ssize_t put = ::send(fd_, frame.data() + written,
                               frame.size() - written, MSG_NOSIGNAL);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    written += static_cast<size_t>(put);
  }
  return true;
}

std::optional<std::string> Connection::Read(
    const std::function<bool()>& stop) {
  auto next = reader_.Next(stop);
  if (!next.ok() || !next.value().has_value()) return std::nullopt;
  return *next.value();
}

std::optional<std::string> Connection::Call(std::string_view payload) {
  if (!Send(payload)) return std::nullopt;
  return Read();
}

std::optional<ParsedResponse> ParseResponse(std::string_view payload) {
  const size_t id_end = payload.find(' ');
  if (id_end == std::string_view::npos || id_end == 0) return std::nullopt;
  ParsedResponse parsed;
  for (char c : payload.substr(0, id_end)) {
    if (c < '0' || c > '9') return std::nullopt;
    parsed.id = parsed.id * 10 + static_cast<uint64_t>(c - '0');
  }
  const std::string_view rest = payload.substr(id_end + 1);
  const size_t code_end = rest.find(' ');
  parsed.code = std::string(rest.substr(0, code_end));
  if (code_end != std::string_view::npos) {
    parsed.body = std::string(rest.substr(code_end + 1));
  }
  return parsed;
}

PhaseResult RunClosedLoop(uint16_t port, size_t connections, size_t window,
                          const std::vector<Op>& ops, const PayloadFn& payload,
                          const CheckFn& check, Tracer& tracer,
                          const char* phase) {
  PhaseResult result;
  result.sent = ops.size();
  std::vector<std::unique_ptr<Connection>> links;
  for (size_t c = 0; c < connections; ++c) {
    links.push_back(Connection::Dial(port));
    if (links.back() == nullptr) return result;
  }
  std::vector<ConnectionTally> tallies(connections);
  // Each op's slot is written and read by its connection's thread only.
  std::vector<Clock::time_point> sent_at(ops.size());
  const int64_t phase_span = tracer.Begin(phase);
  const Clock::time_point start = Clock::now();
  const Clock::time_point give_up = start + std::chrono::seconds(60);
  const auto stop = [give_up] { return Clock::now() > give_up; };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Connection& link = *links[c];
      ConnectionTally& tally = tallies[c];
      size_t next = c;
      size_t outstanding = 0;
      const auto send_next = [&] {
        sent_at[next] = Clock::now();
        if (link.Send(Frame(next, payload))) ++outstanding;
        next += connections;
      };
      while (next < ops.size() && outstanding < window) send_next();
      while (outstanding > 0) {
        const std::optional<std::string> reply = link.Read(stop);
        if (!reply.has_value()) break;
        const Clock::time_point now = Clock::now();
        --outstanding;
        const std::optional<ParsedResponse> parsed = ParseResponse(*reply);
        if (parsed.has_value() && parsed->id >= 1 &&
            parsed->id <= ops.size()) {
          const size_t i = parsed->id - 1;
          const double rtt = Us(now - sent_at[i]);
          Tally(tally, *parsed, i, ops, check, rtt, rtt);
          tally.done_ns.push_back((now - start).count());
          tracer.Record(SpanName(ops[i].kind), tracer.ToNs(sent_at[i]),
                        tracer.ToNs(now), phase_span, parsed->id);
        }
        if (next < ops.size()) send_next();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  tracer.End(phase_span);
  std::vector<int64_t> done_ns;
  for (ConnectionTally& tally : tallies) {
    Merge(result, tally);
    done_ns.insert(done_ns.end(), tally.done_ns.begin(), tally.done_ns.end());
  }
  if (!done_ns.empty()) {
    result.wall_s =
        static_cast<double>(*std::max_element(done_ns.begin(), done_ns.end())) /
        1e9;
  }
  result.chunk_throughput = ChunkThroughput(std::move(done_ns));
  return result;
}

PhaseResult RunOpenLoop(uint16_t port, size_t connections,
                        const std::vector<Op>& ops, const PayloadFn& payload,
                        const CheckFn& check, Tracer& tracer,
                        const char* phase) {
  PhaseResult result;
  result.sent = ops.size();
  std::vector<std::unique_ptr<Connection>> links;
  for (size_t c = 0; c < connections; ++c) {
    links.push_back(Connection::Dial(port));
    if (links.back() == nullptr) return result;
  }
  std::vector<ConnectionTally> tallies(connections);
  // Written by the sender, read by a reader after the reply arrives.
  std::vector<std::atomic<int64_t>> sent_ns(ops.size());
  const int64_t phase_span = tracer.Begin(phase);
  const Clock::time_point start = Clock::now();
  const Clock::time_point give_up =
      start + std::chrono::nanoseconds(ops.empty() ? 0 : ops.back().due_ns) +
      kReplyGrace;
  const auto stop = [give_up] { return Clock::now() > give_up; };
  std::vector<std::thread> readers;
  for (size_t c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      ConnectionTally& tally = tallies[c];
      size_t expected = 0;
      for (size_t i = c; i < ops.size(); i += connections) ++expected;
      for (size_t received = 0; received < expected; ++received) {
        const std::optional<std::string> reply = links[c]->Read(stop);
        if (!reply.has_value()) break;
        const Clock::time_point now = Clock::now();
        const std::optional<ParsedResponse> parsed = ParseResponse(*reply);
        if (!parsed.has_value() || parsed->id < 1 || parsed->id > ops.size()) {
          continue;
        }
        const size_t i = parsed->id - 1;
        const Clock::time_point due =
            start + std::chrono::nanoseconds(ops[i].due_ns);
        const Clock::time_point sent =
            start + std::chrono::nanoseconds(
                        sent_ns[i].load(std::memory_order_acquire));
        Tally(tally, *parsed, i, ops, check, Us(now - due), Us(now - sent));
        tracer.Record(SpanName(ops[i].kind), tracer.ToNs(sent),
                      tracer.ToNs(now), phase_span, parsed->id);
      }
    });
  }
  // The sender: timer slack of 1 ns so sleeps end when the schedule says.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  result.lag_us.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(ops[i].due_ns);
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    sent_ns[i].store((now - start).count(), std::memory_order_release);
    result.lag_us.push_back(Us(now - due));
    links[i % connections]->Send(Frame(i, payload));
  }
  for (std::thread& reader : readers) reader.join();
  tracer.End(phase_span);
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (ConnectionTally& tally : tallies) Merge(result, tally);
  return result;
}

std::vector<double> ProbeRoundTrips(uint16_t port, size_t count,
                                    const PayloadFn& payload, Tracer& tracer,
                                    const char* span) {
  std::vector<double> rtt_us;
  const std::unique_ptr<Connection> link = Connection::Dial(port);
  if (link == nullptr) return rtt_us;
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    const std::optional<std::string> reply = link->Call(Frame(i, payload));
    const Clock::time_point end = Clock::now();
    if (!reply.has_value()) break;
    rtt_us.push_back(Us(end - start));
    tracer.Record(span, tracer.ToNs(start), tracer.ToNs(end), -1, i + 1);
  }
  return rtt_us;
}

}  // namespace perfbench
