#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <string>

#include "report.h"
#include "trace.h"

namespace perfbench {

/// Each workload generates its inputs from args.seed and does a fixed
/// number of operations for a given args.seconds. Untraced runs add the
/// end-to-end metrics; traced runs (args.trace) add the per-layer metrics
/// of the layers the workload exercises. Correctness failures go to
/// report.Fail.

/// "batch-tmy3", "batch-gauss2d" or "batch-hep".
void RunBatchWorkload(const std::string& name, const RunArgs& args,
                      Tracer& tracer, Report& report);
void RunServeRead(const RunArgs& args, Tracer& tracer, Report& report);
void RunServeWrite(const RunArgs& args, Tracer& tracer, Report& report);

/// The traced pass over the serve layers (protocol, batcher, server,
/// router, registry, streaming), run after every workload's own traced
/// pass: a fleet of two workers and a router serving eight gauss-2d
/// models under serve-read traffic, then one streaming server under
/// serve-write traffic, all generated from args.seed.
void MeasureServeLayers(const RunArgs& args, Tracer& tracer, Report& report);

/// An operation count given per 10 s of measurement, scaled to the run's
/// --seconds (at least 1).
size_t ScaledCount(size_t per_10s, int seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
