// Session pools: Run() must reuse pooled scratch state across calls and
// across threads, survive tagger moves (the rebind path), and hand back
// clean sessions after early-stopped scans. Every case runs against both
// instantiations of BasicSessionPool: the production LazyDfaTagger's
// LazyDfaSessionPool, which every scan path checks its session out of,
// and the reference FunctionalTagger's SessionPool.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <type_traits>
#include <vector>

#include "grammar/grammar_parser.h"
#include "obs/metrics.h"
#include "tagger/functional_model.h"
#include "tagger/lazy_dfa.h"
#include "tagger/session_pool.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// Runs `body(std::type_identity<T>{})` once per tagger T, each under a
// trace naming it; the body names its pool type as PoolOf<T>.
template <typename Body>
void ForEachTagger(Body body) {
  {
    SCOPED_TRACE("LazyDfaTagger");
    body(std::type_identity<LazyDfaTagger>{});
  }
  {
    SCOPED_TRACE("FunctionalTagger");
    body(std::type_identity<FunctionalTagger>{});
  }
}

template <typename T>
using PoolOf =
    std::remove_reference_t<decltype(std::declval<T>().session_pool())>;

TEST(SessionPoolTest, RunReusesOnePooledSession) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g =
        MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    const auto first = t->TagAll("<n>123</n>");
    const auto second = t->TagAll("<n>123</n>");
    EXPECT_EQ(first, second);
    EXPECT_EQ(t->session_pool().sessions_created(), 1u);
    EXPECT_GE(t->session_pool().sessions_reused(), 1u);
    EXPECT_EQ(t->session_pool().IdleCount(), 1u);
  });
}

TEST(SessionPoolTest, AcquireTracksCheckouts) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();
    {
      typename PoolOf<T>::Handle a = pool.Acquire(&*t);
      typename PoolOf<T>::Handle b = pool.Acquire(&*t);
      EXPECT_EQ(pool.IdleCount(), 0u);
      EXPECT_EQ(pool.sessions_created(), 2u);
      // Handles are movable; the moved-from handle returns nothing.
      typename PoolOf<T>::Handle c = std::move(a);
      EXPECT_NE(c.get(), nullptr);
    }
    EXPECT_EQ(pool.IdleCount(), 2u);
    EXPECT_EQ(pool.HighWater(), 2u);
    // A temporary single checkout is a new (one-deep) burst: when it drains,
    // the high-water trim shrinks the idle list to that burst's peak.
    pool.Acquire(&*t);
    EXPECT_EQ(pool.IdleCount(), 1u);
    EXPECT_EQ(pool.sessions_created(), 2u);
    EXPECT_EQ(pool.sessions_dropped(), 1u);
  });
}

TEST(SessionPoolTest, HardCapBoundsIdleSessions) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();
    pool.set_max_idle(2);
    {
      std::vector<typename PoolOf<T>::Handle> handles;
      for (int i = 0; i < 5; ++i) handles.push_back(pool.Acquire(&*t));
      EXPECT_EQ(pool.sessions_created(), 5u);
    }
    // Five returned, at most two kept (the cap applies before any trim).
    EXPECT_EQ(pool.IdleCount(), 2u);
    EXPECT_EQ(pool.sessions_dropped(), 3u);
    EXPECT_EQ(pool.HighWater(), 5u);
  });
}

TEST(SessionPoolTest, BurstTrimReleasesScratchAfterDrain) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();
    {
      std::vector<typename PoolOf<T>::Handle> handles;
      for (int i = 0; i < 8; ++i) handles.push_back(pool.Acquire(&*t));
    }
    // The burst's own peak was 8, so all 8 stay resident right after it...
    EXPECT_EQ(pool.IdleCount(), 8u);
    // ...but the next steady single-session use trims down to its own peak:
    // a one-off 8-way burst does not pin 8 sessions' scratch forever.
    (void)t->TagAll("ab");
    EXPECT_EQ(pool.IdleCount(), 1u);
    EXPECT_EQ(pool.sessions_dropped(), 7u);
  });
}

TEST(SessionPoolTest, IdleGaugeTracksPool) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();
    obs::Gauge* idle = obs::MetricsRegistry::Default().GetGauge(
        "cfgtag_session_pool_idle_sessions");
    obs::Counter* dropped = obs::MetricsRegistry::Default().GetCounter(
        "cfgtag_session_pool_dropped_total");
    const uint64_t dropped_before = dropped->Value();
    {
      typename PoolOf<T>::Handle a = pool.Acquire(&*t);
      typename PoolOf<T>::Handle b = pool.Acquire(&*t);
      EXPECT_EQ(idle->Value(), 0.0);
    }
    EXPECT_EQ(idle->Value(), static_cast<double>(pool.IdleCount()));
    pool.set_max_idle(1);
    { typename PoolOf<T>::Handle a = pool.Acquire(&*t); }
    // One of the two sessions was dropped by the lowered cap (or the burst
    // trim); the process-wide counter advanced by exactly that amount.
    EXPECT_EQ(pool.IdleCount(), 1u);
    EXPECT_EQ(idle->Value(), 1.0);
    EXPECT_EQ(dropped->Value() - dropped_before, pool.sessions_dropped());
  });
}

TEST(SessionPoolTest, SurvivesTaggerMove) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    // A tagger moved after Create() (as CompiledTagger::Compile does) leaves
    // pooled sessions built before the move with a stale tagger pointer;
    // Acquire() must rebind them to the new address.
    grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM \"x\";\n%%\n");
    auto created = T::Create(&g, {});
    ASSERT_TRUE(created.ok());
    const auto before = created->TagAll("123x");
    ASSERT_FALSE(before.empty());
    ASSERT_EQ(created->session_pool().sessions_created(), 1u);

    T moved = std::move(created).value();
    const auto after = moved.TagAll("123x");
    EXPECT_EQ(before, after);
    // Same pool, same session — rebound, not reallocated.
    EXPECT_EQ(moved.session_pool().sessions_created(), 1u);
    EXPECT_GE(moved.session_pool().sessions_reused(), 1u);
  });
}

TEST(SessionPoolTest, EarlyStoppedSessionIsCleanOnReuse) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    int seen = 0;
    t->Run("a b c", [&seen](const Tag&) { return ++seen < 2; });
    EXPECT_EQ(seen, 2);
    // The half-consumed session went back to the pool; the next Run must
    // start from scratch and see all three tokens.
    EXPECT_EQ(t->TagAll("a b c").size(), 3u);
    EXPECT_EQ(t->session_pool().sessions_created(), 1u);
  });
}

TEST(SessionPoolTest, ConcurrentRunsShareThePool) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g =
        MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    const std::string input = "<n>4711</n>";
    const auto expected = t->TagAll(input);

    constexpr int kThreads = 4;
    constexpr int kRunsPerThread = 50;
    std::vector<std::thread> workers;
    std::vector<int> mismatches(kThreads, 0);
    // Released together so the workers' checkouts overlap.
    std::latch start(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        start.arrive_and_wait();
        for (int i = 0; i < kRunsPerThread; ++i) {
          if (t->TagAll(input) != expected) ++mismatches[w];
        }
      });
    }
    for (auto& th : workers) th.join();
    for (int w = 0; w < kThreads; ++w) EXPECT_EQ(mismatches[w], 0);
    const PoolOf<T>& pool = t->session_pool();
    EXPECT_EQ(pool.sessions_created() + pool.sessions_reused(),
              static_cast<uint64_t>(kThreads) * kRunsPerThread + 1);
    // The bound the retention policy guarantees however the runs interleave:
    // a session is built only when none is idle, so the sessions alive at
    // once never outnumber the threads. The high-water trim may free some
    // between bursts and later bursts build anew, so the lifetime created
    // count alone is not bounded; created minus dropped is what is alive.
    EXPECT_LE(pool.HighWater(), static_cast<size_t>(kThreads));
    EXPECT_EQ(pool.sessions_created() - pool.sessions_dropped(),
              pool.IdleCount());
    EXPECT_LE(pool.IdleCount(), pool.HighWater());
  });
}

TEST(SessionPoolTest, TrimIdleDropsAndCounts) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();
    {
      std::vector<typename PoolOf<T>::Handle> handles;
      for (int i = 0; i < 6; ++i) handles.push_back(pool.Acquire(&*t));
    }
    ASSERT_EQ(pool.IdleCount(), 6u);
    pool.TrimIdle(2);
    EXPECT_EQ(pool.IdleCount(), 2u);
    EXPECT_EQ(pool.sessions_dropped(), 4u);
    pool.TrimIdle(4);  // keep above current idle: no-op
    EXPECT_EQ(pool.IdleCount(), 2u);
    EXPECT_EQ(pool.sessions_dropped(), 4u);
    pool.TrimIdle(0);
    EXPECT_EQ(pool.IdleCount(), 0u);
    // Every created session is now accounted as dropped.
    EXPECT_EQ(pool.sessions_dropped(), pool.sessions_created());
  });
}

// Contention oracle: hammer Acquire/Release from N threads while another
// thread keeps retuning retention (set_max_idle, TrimIdle). The pool's
// counters must reconcile against a single-threaded bookkeeping oracle:
//
//   created + reused == total acquires   (every checkout is exactly one)
//   created == dropped + IdleCount       (at quiescence: every session
//                                         ever built is either freed and
//                                         counted, or sitting idle)
//
// Any double-release, lost return, or drop that skipped the counter breaks
// one of the two identities.
TEST(SessionPoolTest, ContentionCountersReconcileAgainstOracle) {
  ForEachTagger([](auto tagger_type) {
    using T = typename decltype(tagger_type)::type;
    grammar::Grammar g =
        MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
    auto t = T::Create(&g, {});
    ASSERT_TRUE(t.ok());
    PoolOf<T>& pool = t->session_pool();

    constexpr int kThreads = 4;
    constexpr int kItersPerThread = 300;
    std::atomic<bool> stop_tuning{false};
    std::atomic<uint64_t> acquires{0};

    std::thread tuner([&] {
      size_t n = 1;
      while (!stop_tuning.load(std::memory_order_acquire)) {
        pool.set_max_idle(1 + (n % 8));
        pool.TrimIdle(n % 4);
        (void)pool.IdleCount();
        (void)pool.HighWater();
        ++n;
      }
    });

    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kItersPerThread; ++i) {
          // Mix plain checkouts, nested checkouts (forces pool growth), and
          // full tagging runs through the pool's hot path.
          typename PoolOf<T>::Handle a = pool.Acquire(&*t);
          acquires.fetch_add(1, std::memory_order_relaxed);
          if (i % 3 == 0) {
            typename PoolOf<T>::Handle b = pool.Acquire(&*t);
            acquires.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 5 == w % 5) {
            (void)t->TagAll("<n>42</n>");  // acquires internally
            acquires.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : workers) th.join();
    stop_tuning.store(true, std::memory_order_release);
    tuner.join();

    // Identity 1: every acquire was served by exactly one create-or-reuse.
    EXPECT_EQ(pool.sessions_created() + pool.sessions_reused(),
              acquires.load());
    // Identity 2 (quiescence): built == freed + still-idle.
    EXPECT_EQ(pool.sessions_created(),
              pool.sessions_dropped() + pool.IdleCount());
    EXPECT_GE(pool.HighWater(), 1u);
    EXPECT_LE(pool.HighWater(), static_cast<size_t>(2 * kThreads));
    // Drain everything: the idle remainder converts to drops, closing the
    // books completely.
    pool.TrimIdle(0);
    EXPECT_EQ(pool.IdleCount(), 0u);
    EXPECT_EQ(pool.sessions_created(), pool.sessions_dropped());
  });
}

}  // namespace
}  // namespace cfgtag::tagger
