#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfgtag::obs {
namespace {

TEST(TracerTest, RecordsSpanOnScopeExit) {
  Tracer tracer;
  EXPECT_TRUE(tracer.Snapshot().empty());
  { ScopedSpan span("work", &tracer); }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].depth, 0);
}

TEST(TracerTest, NestedSpansTrackDepthAndCompleteChildFirst) {
  Tracer tracer;
  {
    ScopedSpan outer("outer", &tracer);
    {
      ScopedSpan inner("inner", &tracer);
      { ScopedSpan leaf("leaf", &tracer); }
    }
  }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: leaf, inner, outer.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0);
  // A parent's window contains its child's.
  EXPECT_LE(spans[2].start_us, spans[1].start_us);
  EXPECT_GE(spans[2].start_us + spans[2].dur_us,
            spans[1].start_us + spans[1].dur_us);
}

TEST(TracerTest, LastSpanPathIsSlashJoinedAndOutlivesTheSpan) {
  Tracer tracer;
  {
    ScopedSpan outer("compile", &tracer);
    {
      ScopedSpan inner("hwgen", &tracer);
      EXPECT_EQ(tracer.LastSpanPath(), "compile/hwgen");
    }
    // Ending a child does not rewind the last-entered path.
    EXPECT_EQ(tracer.LastSpanPath(), "compile/hwgen");
  }
  EXPECT_EQ(tracer.LastSpanPath(), "compile/hwgen");
}

TEST(TracerTest, BoundedBufferCountsDrops) {
  Tracer tracer(/*capacity=*/2);
  { ScopedSpan a("a", &tracer); }
  { ScopedSpan b("b", &tracer); }
  { ScopedSpan c("c", &tracer); }
  EXPECT_EQ(tracer.Snapshot().size(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(TracerTest, RingKeepsTheMostRecentSpans) {
  Tracer tracer(/*capacity=*/2);
  { ScopedSpan a("a", &tracer); }
  { ScopedSpan b("b", &tracer); }
  { ScopedSpan c("c", &tracer); }
  { ScopedSpan d("d", &tracer); }
  // Oldest-first snapshot of the two survivors: c then d, not a/b.
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "c");
  EXPECT_EQ(spans[1].name, "d");
  EXPECT_EQ(tracer.dropped_spans(), 2u);
}

TEST(TracerTest, RingDropsBumpTheDefaultRegistryCounter) {
  Counter* dropped = MetricsRegistry::Default().GetCounter(
      "cfgtag_trace_spans_dropped_total");
  const uint64_t before = dropped->Value();
  Tracer tracer(/*capacity=*/1);
  { ScopedSpan a("a", &tracer); }
  { ScopedSpan b("b", &tracer); }
  EXPECT_EQ(dropped->Value(), before + 1);
}

// The drop counter is resolved once, not per drop; every overwrite still
// counts, however many spans the ring sheds.
TEST(TracerTest, EveryOverwriteBumpsTheDropCounterOnce) {
  Counter* dropped = MetricsRegistry::Default().GetCounter(
      "cfgtag_trace_spans_dropped_total");
  const uint64_t before = dropped->Value();
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 1000; ++i) ScopedSpan span("s", &tracer);
  EXPECT_EQ(dropped->Value(), before + 996);
  EXPECT_EQ(tracer.dropped_spans(), 996u);
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
}

TEST(TracerTest, SetCapacityShrinksKeepingTheMostRecent) {
  Tracer tracer(/*capacity=*/8);
  { ScopedSpan a("a", &tracer); }
  { ScopedSpan b("b", &tracer); }
  { ScopedSpan c("c", &tracer); }
  EXPECT_EQ(tracer.capacity(), 8u);
  tracer.set_capacity(2);
  EXPECT_EQ(tracer.capacity(), 2u);
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[1].name, "c");
  // The shrunken ring keeps rotating correctly.
  { ScopedSpan d("d", &tracer); }
  spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "c");
  EXPECT_EQ(spans[1].name, "d");
}

TEST(TracerTest, ZeroCapacityDropsEverythingButCounts) {
  Tracer tracer(/*capacity=*/0);
  { ScopedSpan a("a", &tracer); }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped_spans(), 1u);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  { ScopedSpan span("tag \"stream\"", &tracer); }
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"cfgtag\""), std::string::npos);
  // Quotes inside span names are escaped, keeping the JSON loadable.
  EXPECT_NE(json.find("tag \\\"stream\\\""), std::string::npos);
  EXPECT_EQ(json.find("\"tag \"stream\"\""), std::string::npos);
}

TEST(TracerTest, ThreadsGetDistinctIds) {
  Tracer tracer;
  { ScopedSpan main_span("main", &tracer); }
  std::thread worker([&tracer] { ScopedSpan span("worker", &tracer); });
  worker.join();
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(TracerTest, SpansOnSeparateThreadsDoNotNest) {
  Tracer tracer;
  ScopedSpan outer("outer", &tracer);
  std::thread worker([&tracer] {
    ScopedSpan span("worker", &tracer);
    // The other thread's live span is not this thread's parent.
    EXPECT_EQ(tracer.LastSpanPath(), "worker");
  });
  worker.join();
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].depth, 0);
}

}  // namespace
}  // namespace cfgtag::obs
