// WorkerPool: every index runs exactly once regardless of pool size and
// of how the guided block claims fall, also for concurrent callers and
// with a slow index last; a one-worker pool runs inline, and each slot is
// one worker's; ScanEngine correlation ids: concurrent engines reserve
// disjoint blocks;
// RecordShardingIsExact: the shard decision; and ShardSplitPoints: shard
// starts are delimiter-aligned, bounded, and degrade to {0} when the
// stream cannot be split.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/worker_pool.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "obs/events.h"
#include "regex/char_class.h"
#include "tagger/tag.h"

namespace cfgtag::core {
namespace {

TEST(WorkerPoolTest, RunIndexedCoversEveryIndexOnce) {
  for (int threads : {1, 4}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr size_t kCount = 257;
    std::vector<std::atomic<int>> hits(kCount);
    pool.RunIndexed(kCount, [&](size_t, size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(WorkerPoolTest, RunIndexedZeroAndOne) {
  WorkerPool pool(2);
  pool.RunIndexed(0, [](size_t, size_t) { FAIL() << "no index to run"; });
  int runs = 0;
  pool.RunIndexed(1, [&](size_t slot, size_t i) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(WorkerPoolTest, ConcurrentCallersEachRunTheirOwnIndicesOnce) {
  WorkerPool pool(3);
  constexpr size_t kCount = 513;
  constexpr int kCallers = 2;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c) hits.emplace_back(kCount);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        pool.RunIndexed(kCount, [&](size_t, size_t i) {
          hits[c][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[c][i].load(), kRounds) << "caller " << c << " index " << i;
    }
  }
}

TEST(WorkerPoolTest, OneWorkerPoolRunsOnTheCallingThread) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.RunIndexed(ran_on.size(), [&](size_t slot, size_t i) {
    EXPECT_EQ(slot, 0u);
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

// Each slot is one worker: slots stay below num_threads(), every call on
// a slot runs on the same thread, and no two calls on one slot overlap —
// so per-slot scratch needs no lock.
TEST(WorkerPoolTest, SlotsAreExclusivePerWorker) {
  WorkerPool pool(3);
  constexpr size_t kCount = 600;
  std::vector<std::atomic<int>> in_slot(3);
  std::vector<std::thread::id> slot_thread(3);
  std::vector<uint64_t> slot_calls(3, 0);  // plain: written by one worker
  std::atomic<int> overlaps{0};
  pool.RunIndexed(kCount, [&](size_t slot, size_t) {
    ASSERT_LT(slot, 3u);
    if (in_slot[slot].fetch_add(1) != 0) overlaps.fetch_add(1);
    if (slot_calls[slot]++ == 0) {
      slot_thread[slot] = std::this_thread::get_id();
    } else {
      EXPECT_EQ(slot_thread[slot], std::this_thread::get_id());
    }
    std::this_thread::yield();
    in_slot[slot].fetch_sub(1);
  });
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(slot_calls[0] + slot_calls[1] + slot_calls[2], kCount);
}

// Runs `count` indices on a `threads`-worker pool, index `slow` (if any)
// sleeping, and checks the RunIndexed contract: every index exactly once,
// slots below min(count, threads), no two calls on one slot at once.
void ExpectEveryIndexOnceOnExclusiveSlots(int threads, size_t count,
                                          size_t slow = SIZE_MAX) {
  WorkerPool pool(threads);
  const size_t slots = std::min<size_t>(count, threads);
  std::vector<std::atomic<int>> hits(count);
  std::vector<std::atomic<int>> in_slot(threads);
  std::atomic<int> overlaps{0};
  std::atomic<int> bad_slots{0};
  pool.RunIndexed(count, [&](size_t slot, size_t i) {
    if (slot >= slots) {
      bad_slots.fetch_add(1);
      return;
    }
    if (in_slot[slot].fetch_add(1) != 0) overlaps.fetch_add(1);
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i == slow) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    in_slot[slot].fetch_sub(1);
  });
  EXPECT_EQ(bad_slots.load(), 0) << "count " << count;
  EXPECT_EQ(overlaps.load(), 0) << "count " << count;
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
  }
}

// Guided blocks shrink from remaining / (4 x workers) to single indices;
// the counts cover no index, fewer indices than workers, exactly one
// block boundary past 4 x workers, and many blocks.
TEST(WorkerPoolTest, BlockClaimsCoverEveryIndexOnceOnExclusiveSlots) {
  constexpr int kWorkers = 3;
  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                       size_t{4 * kWorkers + 1}, size_t{10007}}) {
    ExpectEveryIndexOnceOnExclusiveSlots(kWorkers, count);
  }
}

// A slow index at the end of the run is claimed alone, so the other
// workers finish the rest; the contract holds either way.
TEST(WorkerPoolTest, BlockClaimsWithASlowLastIndex) {
  constexpr int kWorkers = 3;
  for (size_t count : {size_t{2}, size_t{3}, size_t{4 * kWorkers + 1},
                       size_t{10007}}) {
    ExpectEveryIndexOnceOnExclusiveSlots(kWorkers, count, count - 1);
  }
}

constexpr char kProtocol[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

// Each engine run reserves one block of correlation ids, one per unit.
// Two engines batching at once must never hand the same id to two units:
// every unit's kSlowShard event (the bound makes every unit slow) carries
// its unit's id, and the two engines' flows differ in length, so the
// event's size field says which engine raised it.
TEST(CorrelationIdTest, ConcurrentEnginesGetDisjointIds) {
  auto grammar = grammar::ParseGrammar(kProtocol);
  ASSERT_TRUE(grammar.ok()) << grammar.status();
  auto filter = nids::ContextFilter::Create(
      std::move(grammar).value(), {{"TRAVERSAL", "../", "PATH", 3}});
  ASSERT_TRUE(filter.ok()) << filter.status();
  nids::ScanEngineOptions opt;
  opt.num_threads = 2;
  opt.slow_shard_seconds = 1e-12;  // every unit is "slow"
  const nids::ScanEngine a(&filter.value(), opt);
  const nids::ScanEngine b(&filter.value(), opt);
  const std::string flow_a = "REQ /a HDR x END\n";
  const std::string flow_b = "REQ /bb HDR yy END\n";
  constexpr size_t kFlows = 150;
  constexpr int kRounds = 4;
  const std::vector<std::string_view> batch_a(kFlows, flow_a);
  const std::vector<std::string_view> batch_b(kFlows, flow_b);

  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  ASSERT_GE(rec.capacity(), 2 * kFlows * kRounds);
  const uint64_t recorded_before = rec.total_recorded();
  std::latch start(2);
  std::thread ta([&] {
    start.arrive_and_wait();
    for (int r = 0; r < kRounds; ++r) a.ScanBatch(batch_a);
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    for (int r = 0; r < kRounds; ++r) b.ScanBatch(batch_b);
  });
  ta.join();
  tb.join();

  std::set<uint64_t> ids_a, ids_b;
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before || e.kind != obs::EventKind::kSlowShard) {
      continue;
    }
    ASSERT_NE(e.correlation_id, 0u);
    if (e.a == static_cast<int64_t>(flow_a.size())) {
      EXPECT_TRUE(ids_a.insert(e.correlation_id).second) << e.correlation_id;
    } else if (e.a == static_cast<int64_t>(flow_b.size())) {
      EXPECT_TRUE(ids_b.insert(e.correlation_id).second) << e.correlation_id;
    }
  }
  EXPECT_EQ(ids_a.size(), kFlows * kRounds);
  EXPECT_EQ(ids_b.size(), kFlows * kRounds);
  for (uint64_t id : ids_a) EXPECT_EQ(ids_b.count(id), 0u) << id;
}

TEST(RecordShardingTest, NeedsResyncAndDelimiterRecords) {
  const regex::CharClass nl = regex::CharClass::Of('\n');
  tagger::TaggerOptions opt;
  opt.arm_mode = tagger::ArmMode::kResync;
  ASSERT_TRUE(opt.delimiters.Test('\n'));
  EXPECT_TRUE(RecordShardingIsExact(opt, nl));
  EXPECT_FALSE(RecordShardingIsExact(opt, regex::CharClass()));
  EXPECT_FALSE(RecordShardingIsExact(opt, regex::CharClass::Of('x')));
  opt.arm_mode = tagger::ArmMode::kAnchored;
  EXPECT_FALSE(RecordShardingIsExact(opt, nl));
}

TEST(ShardSplitPointsTest, StartsAreDelimiterAligned) {
  std::string stream;
  for (int i = 0; i < 200; ++i) {
    stream += "line-" + std::to_string(i) + "-payload\n";
  }
  const auto starts =
      ShardSplitPoints(stream, regex::CharClass::Of('\n'), 4, 64);
  ASSERT_FALSE(starts.empty());
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_LE(starts.size(), 4u);
  EXPECT_GT(starts.size(), 1u) << "stream is large enough to split";
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GT(starts[i], starts[i - 1]);
    EXPECT_LT(starts[i], stream.size());
    EXPECT_EQ(stream[starts[i] - 1], '\n')
        << "shard must begin on the byte after a delimiter";
    EXPECT_GE(starts[i] - starts[i - 1], 64u) << "min_shard_bytes";
  }
}

TEST(ShardSplitPointsTest, SmallOrDelimiterFreeStreamsDoNotSplit) {
  const regex::CharClass nl = regex::CharClass::Of('\n');
  EXPECT_EQ(ShardSplitPoints("tiny\nstream\n", nl, 8, 1024),
            std::vector<size_t>{0});
  const std::string no_delims(8192, 'x');
  EXPECT_EQ(ShardSplitPoints(no_delims, nl, 8, 1024),
            std::vector<size_t>{0});
  EXPECT_EQ(ShardSplitPoints("", nl, 8, 1), std::vector<size_t>{0});
}

}  // namespace
}  // namespace cfgtag::core
