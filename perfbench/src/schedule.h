#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t { kClassify, kInsert };

/// One planned request: what it does, which model and pooled point it
/// uses, and (open loop) when it is due, in ns from the phase start.
struct Op {
  OpKind kind = OpKind::kClassify;
  uint32_t model = 0;
  uint32_t point = 0;
  int64_t due_ns = 0;
};

struct OpPlanOptions {
  size_t count = 0;
  /// Models the ops spread over (uniformly).
  size_t models = 1;
  /// Size of the point pool `Op::point` indexes into.
  size_t points = 1;
  /// Share of ops that are INSERTs; the rest classify.
  double insert_share = 0.0;
  /// Open-loop arrival rate; exponential gaps give a Poisson process.
  /// 0 = closed loop (every due_ns is 0).
  double rate_per_s = 0.0;
};

/// The ops of one phase, fixed by the seed: the same seed and options give
/// the same kinds, models, points and due times on every run and host.
std::vector<Op> MakeOpPlan(uint64_t seed, const OpPlanOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
