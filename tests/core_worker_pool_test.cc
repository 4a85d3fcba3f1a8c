// WorkerPool: every index runs exactly once regardless of pool size, also
// for concurrent callers, a one-worker pool runs inline, and each slot is
// one worker's;
// RecordShardingIsExact: the shard decision; and ShardSplitPoints: shard
// starts are delimiter-aligned, bounded, and degrade to {0} when the
// stream cannot be split.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/worker_pool.h"
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
