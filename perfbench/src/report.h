#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for model files the serve workloads write; removed at exit.
  std::string scratch = ".bench_build/perfbench-scratch";
  /// Where a traced run writes its spans.
  std::string trace_out = ".bench_build/perfbench-trace/trace.json";
};

/// Metrics, phase counts and correctness verdict of one run. Every metric
/// is printed as a human-readable line when added; PrintResult emits the
/// one-line JSON object that ends standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Books one phase's request counts into the run's attempted / failed
  /// totals and prints them. Every op sent that did not succeed (an error
  /// answer, or no answer at all) counts as failed.
  void Phase(const std::string& phase, uint64_t sent, uint64_t succeeded);

  /// Marks the run incorrect; the benchmark then exits non-zero.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }


  /// Prints the result object with exactly the metrics in `names`.
  /// Returns false (printing nothing) when one of them was never added.
  bool PrintResult(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Host and build fingerprint recorded with every run: core count, active
/// SIMD backend, build type, compiler, and the run's workload and seed.
std::string FingerprintJson(const RunArgs& args);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// CPU time of the calling thread in seconds. Unlike wall time it leaves
/// out the intervals the hypervisor ran other guests on this vCPU, which
/// on a shared host are the largest source of run-to-run noise.
double ThreadCpuSeconds();

/// Load-generator thread and connection budget: min(4, cores).
size_t LoadThreads();

/// Formats a double with all its significant digits.
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
