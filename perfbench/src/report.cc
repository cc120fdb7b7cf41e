#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "common/simd.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
  std::printf("metric %-38s %s %s\n", name.c_str(), FormatNumber(value).c_str(),
              unit.c_str());
}

void Report::Phase(const std::string& phase, uint64_t sent,
                   uint64_t succeeded) {
  const uint64_t failed = sent - std::min(sent, succeeded);
  attempted_ += sent;
  failed_ += failed;
  std::printf("phase %-30s sent=%llu succeeded=%llu failed=%llu\n",
              phase.c_str(), static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(failed));
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("correctness failure: %s\n", why.c_str());
  std::fprintf(stderr, "perfbench: correctness failure: %s\n", why.c_str());
}

bool Report::PrintResult(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == names[i]; });
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   names[i].c_str());
      return false;
    }
    out << (i > 0 ? ", " : "") << "\"" << it->name
        << "\": {\"value\": " << FormatNumber(it->value) << ", \"unit\": \""
        << it->unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return true;
}

std::string FingerprintJson(const RunArgs& args) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"load_threads\": " << LoadThreads() << ", \"simd\": \""
      << tkdc::SimdBackendName(tkdc::ActiveSimdBackend())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << __VERSION__ << "\", \"workload\": \""
      << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return out.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

size_t LoadThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
