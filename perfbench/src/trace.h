#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed interval at a layer boundary. Times are nanoseconds since
/// the tracer was created; `parent` is the index of the span that caused
/// this one (-1 for a root); spans of one request share `request_id`
/// (0 = not tied to a request).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// In-memory span recorder. The benchmark wraps its calls into each layer
/// with spans, derives the per-layer metrics from them, and writes them
/// all out once the run ends. A disabled tracer records nothing and every
/// call returns at once, so the untraced run pays one branch per site.
/// Thread-safe: client reader threads record concurrently.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Nanoseconds since the tracer was created.
  int64_t Now() const;
  int64_t ToNs(Clock::time_point t) const;

  /// Records a finished span; returns its index, or -1 when disabled.
  int64_t Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                 int64_t parent = -1, uint64_t request_id = 0);

  /// Opens a span whose end is filled in by End(); returns its index, or
  /// -1 when disabled.
  int64_t Begin(std::string_view name, int64_t parent = -1,
                uint64_t request_id = 0);
  void End(int64_t span);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(std::string_view name) const;

  /// Writes {"header": <header_json>, "spans": [...]} to `path`, each span
  /// with its self time. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once, children clipped to the parent's interval). Index-aligned with
/// `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Begin/End pair bound to a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int64_t parent = -1,
             uint64_t request_id = 0)
      : tracer_(tracer), index_(tracer.Begin(name, parent, request_id)) {}
  ~ScopedSpan() { tracer_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  const int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
