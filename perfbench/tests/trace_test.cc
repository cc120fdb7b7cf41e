#include "trace.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

Span At(int64_t start, int64_t end, int64_t parent) {
  Span span;
  span.name = "s";
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(Trace, SelfTimeSubtractsChildren) {
  const std::vector<Span> spans = {
      At(0, 100, -1),  // root
      At(10, 30, 0),   // child
      At(60, 70, 0),   // child
      At(12, 20, 1),   // grandchild: counts against its parent only
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 8);
}

TEST(Trace, OverlappingChildrenCountOnce) {
  // Concurrent children (two requests in flight under one phase span).
  const std::vector<Span> spans = {
      At(0, 100, -1),
      At(10, 50, 0),
      At(40, 60, 0),
      At(55, 58, 0),
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 50);
}

TEST(Trace, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      At(100, 200, -1),
      At(50, 120, 0),
      At(190, 260, 0),
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 20 - 10);
}

TEST(Trace, RecordsNameParentAndRequestId) {
  Tracer tracer(true);
  const int64_t root = tracer.Record("phase", 0, 1000);
  tracer.Record("request", 100, 400, root, 7);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].request_id, 7u);
  EXPECT_EQ(tracer.DurationsUs("request"), std::vector<double>{0.3});
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  EXPECT_EQ(tracer.Record("phase", 0, 10), -1);
  {
    ScopedSpan span(tracer, "scoped");
    EXPECT_EQ(span.index(), -1);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace perfbench
