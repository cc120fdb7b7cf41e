#include "schedule.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

bool SamePlan(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].model != b[i].model ||
        a[i].point != b[i].point || a[i].due_ns != b[i].due_ns) {
      return false;
    }
  }
  return true;
}

OpPlanOptions OpenLoop() {
  OpPlanOptions options;
  options.count = 20000;
  options.models = 8;
  options.points = 4096;
  options.insert_share = 0.2;
  options.rate_per_s = 5000.0;
  return options;
}

TEST(Schedule, SameSeedSamePlan) {
  EXPECT_TRUE(SamePlan(MakeOpPlan(42, OpenLoop()), MakeOpPlan(42, OpenLoop())));
  EXPECT_FALSE(
      SamePlan(MakeOpPlan(42, OpenLoop()), MakeOpPlan(43, OpenLoop())));
}

TEST(Schedule, ArrivalsArePoissonAtTheConfiguredRate) {
  const std::vector<Op> ops = MakeOpPlan(7, OpenLoop());
  for (size_t i = 1; i < ops.size(); ++i) {
    ASSERT_GE(ops[i].due_ns, ops[i - 1].due_ns);
  }
  // 20000 arrivals at 5000/s span ~4 s; the mean gap's relative standard
  // error is 1/sqrt(20000) ~ 0.7%.
  const double span_s = static_cast<double>(ops.back().due_ns) / 1e9;
  EXPECT_NEAR(span_s, 4.0, 0.15);
}

TEST(Schedule, MixAndSpreadMatchTheOptions) {
  const std::vector<Op> ops = MakeOpPlan(11, OpenLoop());
  size_t inserts = 0;
  std::vector<size_t> per_model(8, 0);
  for (const Op& op : ops) {
    inserts += op.kind == OpKind::kInsert;
    ASSERT_LT(op.model, 8u);
    ASSERT_LT(op.point, 4096u);
    ++per_model[op.model];
  }
  EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.2, 0.01);
  for (size_t count : per_model) EXPECT_NEAR(count, 2500.0, 200.0);
}

TEST(Schedule, ClosedLoopPlanHasNoDueTimes) {
  OpPlanOptions options = OpenLoop();
  options.rate_per_s = 0.0;
  for (const Op& op : MakeOpPlan(3, options)) ASSERT_EQ(op.due_ns, 0);
}

}  // namespace
}  // namespace perfbench
