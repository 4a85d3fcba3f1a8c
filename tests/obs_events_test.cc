#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.h"

namespace cfgtag::obs {
namespace {

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(EventKind::kNidsAlert, /*correlation_id=*/7, /*a=*/100, /*b=*/2,
             "rule-a");
  rec.Record(EventKind::kDfaCacheFallback, 0, 1 << 20, 3, "fallback");
  const std::vector<Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kNidsAlert);
  EXPECT_EQ(events[0].correlation_id, 7u);
  EXPECT_EQ(events[0].a, 100);
  EXPECT_EQ(events[0].b, 2);
  EXPECT_STREQ(events[0].detail, "rule-a");
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].kind, EventKind::kDfaCacheFallback);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_LE(events[0].t_us, events[1].t_us);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  FlightRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(EventKind::kCustom, 0, i, 0, "e");
  }
  const std::vector<Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The tail survives: events 7..10 (a = 6..9), oldest first.
  EXPECT_EQ(events[0].a, 6);
  EXPECT_EQ(events[3].a, 9);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(/*capacity=*/5);
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST(FlightRecorderTest, LongDetailIsTruncatedNotOverflowed) {
  FlightRecorder rec(/*capacity=*/2);
  const std::string long_detail(500, 'x');
  rec.Record(EventKind::kCustom, 0, 0, 0, long_detail);
  const std::vector<Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const size_t len = std::string(events[0].detail).size();
  EXPECT_LT(len, sizeof(events[0].detail));
  EXPECT_GT(len, 0u);
}

TEST(FlightRecorderTest, WriteJsonCarriesKindNamesAndCounts) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(EventKind::kSlowShard, 3, 4096, 1, "slow stream shard");
  std::ostringstream os;
  rec.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"recorded\": 1"), std::string::npos);
  EXPECT_NE(json.find("slow_shard"), std::string::npos);
  EXPECT_NE(json.find("\"correlation_id\": 3"), std::string::npos);
  EXPECT_NE(json.find("slow stream shard"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFdWritesOneLinePerEvent) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(EventKind::kNidsAlert, 11, 42, 2, "sig-1");
  rec.Record(EventKind::kStatusError, 0, 0, 0, "grammar: bad");
  char path[] = "/tmp/cfgtag_events_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  rec.DumpTo(fd);
  close(fd);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::remove(path);
  // A JSON line per event (plus possible header/footer lines).
  size_t event_lines = 0;
  for (const std::string& l : lines) {
    if (l.find("nids_alert") != std::string::npos ||
        l.find("status_error") != std::string::npos) {
      ++event_lines;
    }
  }
  EXPECT_EQ(event_lines, 2u);
}

TEST(FlightRecorderTest, ConcurrentWritersLoseNothingWhenUnderCapacity) {
  FlightRecorder rec(/*capacity=*/4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Record(EventKind::kCustom, 0, t, i, "w");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(rec.total_recorded(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<Event> events = rec.Snapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  // Sequence numbers are unique and ascending in the snapshot.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// Seqlock regression hammer: a small ring forces writers to overwrite
// slots that readers are copying, so every read races a write. Each event
// is self-describing (detail = "w<a>-<b>", correlation_id = 1000 + a), so
// a torn copy that slipped past the seqlock validation shows up as an
// internally inconsistent event. Before the payload moved into atomic
// words, this was the formal data race TSan flagged in Snapshot().
TEST(FlightRecorderTest, SeqlockHammerNeverYieldsTornEvents) {
  FlightRecorder rec(/*capacity=*/64);  // small ring: constant overwrites
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> validated{0};

  auto check = [&](const Event& e) {
    char want[sizeof(e.detail)];
    std::snprintf(want, sizeof(want), "w%lld-%lld",
                  static_cast<long long>(e.a), static_cast<long long>(e.b));
    const bool consistent =
        e.kind == EventKind::kCustom && e.a >= 0 && e.a < kWriters &&
        e.b >= 0 && e.b < kPerWriter &&
        e.correlation_id == 1000u + static_cast<uint64_t>(e.a) &&
        std::string(e.detail) == want;
    if (!consistent) torn.fetch_add(1, std::memory_order_relaxed);
    validated.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<Event> events = rec.Snapshot();
        uint64_t prev_seq = 0;
        for (const Event& e : events) {
          EXPECT_GT(e.seq, prev_seq);  // unique, ascending
          prev_seq = e.seq;
          check(e);
        }
      }
    });
  }
  // The async-signal-safe reader races the same writers through its own
  // ReadSlot path.
  readers.emplace_back([&] {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ASSERT_GE(devnull, 0);
    while (!stop.load(std::memory_order_acquire)) {
      rec.DumpTo(devnull);
    }
    ::close(devnull);
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&rec, t] {
      char detail[32];
      for (int i = 0; i < kPerWriter; ++i) {
        std::snprintf(detail, sizeof(detail), "w%d-%d", t, i);
        rec.Record(EventKind::kCustom, 1000u + static_cast<uint64_t>(t), t,
                   i, detail);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(validated.load(), 0u);
  EXPECT_EQ(rec.total_recorded(),
            static_cast<uint64_t>(kWriters * kPerWriter));
  // The quiesced ring holds exactly the last `capacity` events, all valid.
  const std::vector<Event> final_events = rec.Snapshot();
  EXPECT_EQ(final_events.size(), rec.capacity());
  for (const Event& e : final_events) check(e);
  EXPECT_EQ(torn.load(), 0u);
}

TEST(CorrelationTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentCorrelationId(), 0u);
  const uint64_t outer_id = NextCorrelationId();
  {
    CorrelationScope outer(outer_id);
    EXPECT_EQ(CurrentCorrelationId(), outer_id);
    const uint64_t inner_id = NextCorrelationId();
    EXPECT_NE(inner_id, outer_id);
    {
      CorrelationScope inner(inner_id);
      EXPECT_EQ(CurrentCorrelationId(), inner_id);
    }
    EXPECT_EQ(CurrentCorrelationId(), outer_id);
  }
  EXPECT_EQ(CurrentCorrelationId(), 0u);
}

TEST(CorrelationTest, ScopeIsPerThread) {
  CorrelationScope scope(NextCorrelationId());
  uint64_t seen = 1;
  std::thread worker([&seen] { seen = CurrentCorrelationId(); });
  worker.join();
  EXPECT_EQ(seen, 0u);
}

TEST(CorrelationTest, RecordEventPicksUpTheCurrentScope) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.Clear();
  const uint64_t id = NextCorrelationId();
  {
    CorrelationScope scope(id);
    RecordEvent(EventKind::kCustom, 1, 2, "scoped");
  }
  RecordEvent(EventKind::kCustom, 3, 4, "unscoped");
  const std::vector<Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].correlation_id, id);
  EXPECT_EQ(events[1].correlation_id, 0u);
  rec.Clear();
}

TEST(EventKindTest, NamesAreStableIdentifiers) {
  EXPECT_STREQ(EventKindName(EventKind::kStatusError), "status_error");
  EXPECT_STREQ(EventKindName(EventKind::kNidsAlert), "nids_alert");
  EXPECT_STREQ(EventKindName(EventKind::kDfaCacheFallback),
               "dfa_cache_fallback");
  EXPECT_STREQ(EventKindName(EventKind::kSlowShard), "slow_shard");
}

}  // namespace
}  // namespace cfgtag::obs
