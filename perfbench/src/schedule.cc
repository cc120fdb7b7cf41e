#include "schedule.h"

#include <cmath>

#include "common/rng.h"

namespace perfbench {

std::vector<Op> MakeOpPlan(uint64_t seed, const OpPlanOptions& options) {
  tkdc::Rng rng(seed);
  std::vector<Op> ops(options.count);
  double due_s = 0.0;
  for (Op& op : ops) {
    op.kind = rng.NextDouble() < options.insert_share ? OpKind::kInsert
                                                      : OpKind::kClassify;
    op.model = static_cast<uint32_t>(rng.NextBounded(options.models));
    op.point = static_cast<uint32_t>(rng.NextBounded(options.points));
    if (options.rate_per_s > 0.0) {
      // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so log is finite.
      due_s += -std::log(1.0 - rng.NextDouble()) / options.rate_per_s;
      op.due_ns = static_cast<int64_t>(due_s * 1e9);
    }
  }
  return ops;
}

}  // namespace perfbench
