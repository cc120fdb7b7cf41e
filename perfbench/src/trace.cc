#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::Now() const { return ToNs(Clock::now()); }

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::Record(std::string_view name, int64_t start_ns,
                       int64_t end_ns, int64_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{std::string(name), start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Begin(std::string_view name, int64_t parent,
                      uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = Now();
  return Record(name, now, now, parent, request_id);
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) {
      children[static_cast<size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header_json) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesNs(all);
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"header\": " << header_json << ",\n \"spans\": [\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"self_ns\": " << self[i]
        << ", \"parent\": " << span.parent
        << ", \"request_id\": " << span.request_id << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
