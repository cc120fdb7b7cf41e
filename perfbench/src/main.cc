// perfbench: one workload per run, end-to-end metrics untraced, per-layer
// metrics from a separate traced run. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--trace-out <file>]
//
// The last line of standard output is the result object; the exit code is
// 0 only when every correctness gate passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The end_to_end and per_layer lists of BENCHMARK.json, in its order.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_per_s", "1/s"},
    {"amortized_per_s", "1/s"}, {"p50_us", "us"},
    {"p90_us", "us"},           {"label_agreement", "fraction"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"index.build_ms", "ms"},
    {"tkdc.bootstrap_ms", "ms"},
    {"tkdc.bootstrap_kernel_evals", "count"},
    {"tkdc.density_pass_ms", "ms"},
    {"tkdc.density_pass_kernel_evals", "count"},
    {"tkdc.threshold_band_ratio", "ratio"},
    {"tkdc.kernel_evals_per_q", "count"},
    {"tkdc.nodes_per_q", "count"},
    {"tkdc.scan_ratio", "ratio"},
    {"tkdc.grid_hit_fraction", "fraction"},
    {"tkdc.serial_us_per_q", "us"},
    {"tkdc.speedup_vs_simple", "ratio"},
    {"kde.leaf_ns_per_eval", "ns"},
    {"kde.leaf_eval_share", "fraction"},
    {"kde.batch_parallel_efficiency", "ratio"},
    {"kde.overlay_classify_ratio", "ratio"},
    {"baselines.simple_query_ms", "ms"},
    {"serve.protocol.parse_ns", "ns"},
    {"serve.protocol.render_ns", "ns"},
    {"serve.batcher.rtt_us_p50", "us"},
    {"serve.batcher.mean_batch_size", "count"},
    {"serve.batcher.queue_wait_us_p50", "us"},
    {"serve.batcher.shed_fraction", "fraction"},
    {"serve.server.rtt_us_p50", "us"},
    {"serve.server.hop_us", "us"},
    {"serve.router.rtt_us_p50", "us"},
    {"serve.router.hop_us", "us"},
    {"serve.router.worker_share_max", "fraction"},
    {"serve.registry.load_ms", "ms"},
    {"serve.registry.model_mb", "MB"},
    {"serve.stream.insert_rtt_us_p50", "us"},
    {"serve.stream.classify_rtt_us_p50", "us"},
    {"serve.stream.rebuilds", "count"},
    {"serve.stream.rebuild_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.generator_lag_us_p90", "us"},
    {"error_rate", "fraction"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <batch-tmy3|batch-gauss2d|"
               "batch-hep|serve-read|serve-write> --seed <n> --seconds <s> "
               "--trace <0|1> "
               "[--scratch <dir>] [--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1) return Usage();

  const std::string fingerprint = FingerprintJson(args);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "batch-tmy3" || args.workload == "batch-gauss2d" ||
      args.workload == "batch-hep") {
    RunBatchWorkload(args.workload, args, tracer, report);
  } else if (args.workload == "serve-read") {
    RunServeRead(args, tracer, report);
  } else if (args.workload == "serve-write") {
    RunServeWrite(args, tracer, report);
  } else {
    return Usage();
  }
  if (args.trace) MeasureServeLayers(args, tracer, report);
  std::error_code ignored;
  std::filesystem::remove_all(args.scratch, ignored);

  const double error_rate =
      report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 0.0;
  std::vector<std::string> names;
  if (args.trace) {
    report.Add("error_rate", error_rate, "fraction");
    for (const MetricName& metric : kPerLayer) names.push_back(metric.name);
    if (!tracer.WriteJson(args.trace_out, fingerprint)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 3;
    }
    std::printf("spans written to %s\n", args.trace_out.c_str());
  } else {
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("error_rate", error_rate, "fraction");
    for (const MetricName& metric : kEndToEnd) names.push_back(metric.name);
  }
  if (!report.PrintResult(names)) return 3;
  return report.correct() ? 0 : 1;
}
