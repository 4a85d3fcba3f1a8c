// One transition table per tagger: every LazyDfaSession is a cursor over
// its tagger's one lazily built table. A run reuses what earlier runs
// built, the table survives a tagger move, an early-stopped run leaves
// nothing behind for the next, and threads that build into one cold table
// at once — past the point where it fills — all tag as the oracle does.
//
// The SessionPoolTest cases keep the names they had when each session
// owned a private table and a pool handed warm sessions out; they check
// the same guarantees (reuse across runs, concurrent runs, counters that
// reconcile under contention) on the one shared table.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "tagger/lazy_dfa.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(SessionPoolTest, RunReusesOnePooledSession) {
  grammar::Grammar g =
      MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const auto first = t->TagAll("<n>123</n>");
  const size_t warm = t->cache_states();
  EXPECT_GT(warm, 0u);
  // A second call on a warm tagger interns no state.
  const auto second = t->TagAll("<n>123</n>");
  EXPECT_EQ(first, second);
  EXPECT_EQ(t->cache_states(), warm);
}

TEST(SharedTableTest, SurvivesTaggerMove) {
  // CompiledTagger::Compile moves the tagger after Create(); the table
  // moves with it, built rows included.
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM \"x\";\n%%\n");
  auto created = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(created.ok());
  const auto before = created->TagAll("123x");
  ASSERT_FALSE(before.empty());
  const size_t states = created->cache_states();

  LazyDfaTagger moved = std::move(created).value();
  const auto after = moved.TagAll("123x");
  EXPECT_EQ(before, after);
  EXPECT_EQ(moved.cache_states(), states);
}

TEST(SharedTableTest, EarlyStoppedRunLeavesTableClean) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  int seen = 0;
  t->Run("a b c", [&seen](const Tag&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
  // The next run starts from scratch and sees all three tokens.
  EXPECT_EQ(t->TagAll("a b c").size(), 3u);
}

TEST(SessionPoolTest, ConcurrentRunsShareThePool) {
  grammar::Grammar g =
      MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const std::string input = "<n>4711</n>";
  const auto expected = t->TagAll(input);
  ASSERT_FALSE(expected.empty());
  const size_t warm = t->cache_states();

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 50;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  // Released together so the workers' runs overlap on the one table.
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
  // Every run only read the warm table: none interned a state.
  EXPECT_EQ(t->cache_states(), warm);
}

// Random XML-RPC inputs for one thread: messages, some with bytes
// overwritten, and a stream longer than a superblock.
std::vector<std::string> ThreadInputs(uint64_t seed) {
  xmlrpc::MessageGenerator gen({}, seed);
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (int k = 0; k < 10; ++k) {
    std::string msg = gen.Generate();
    if (k % 3 == 1) {
      for (int flip = 0; flip < 3; ++flip) {
        msg[rng.NextIndex(msg.size())] =
            static_cast<char>(' ' + rng.NextIndex(95));
      }
    }
    inputs.push_back(std::move(msg));
  }
  const size_t block = LazyDfaSession::kLanes * LazyDfaSession::kSliceBytes;
  inputs.push_back(gen.GenerateStream(0, block + rng.NextIndex(block)));
  return inputs;
}

// Four threads, released together, tag random inputs on one cold tagger —
// one-call Tag and a held TagSlot alike, so rows and flush-padding records
// are built and published concurrently — with a table small enough to
// fill partway through. Every tag stream equals the oracle's, on a
// compiled tagger and on one loaded from an artifact.
TEST(SharedTableTest, ThreadsOnOneColdTableMatchOracle) {
  auto parsed = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const grammar::Grammar g = std::move(parsed).value();
  hwgen::HwOptions options;
  options.tagger.arm_mode = ArmMode::kResync;
  options.tagger.dfa_cache_bytes = 64 << 10;
  options.tagger.aot_state_budget = 16;

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> inputs;
  std::vector<std::vector<std::vector<Tag>>> want;
  for (int w = 0; w < kThreads; ++w) {
    inputs.push_back(ThreadInputs(100 + static_cast<uint64_t>(w)));
    want.emplace_back();
    for (const std::string& input : inputs.back()) {
      auto tags = testing_oracle::OracleTags(g, options.tagger, input);
      ASSERT_TRUE(tags.ok()) << tags.status();
      want.back().push_back(std::move(tags).value());
    }
  }

  auto compile = [&] {
    return core::CompiledTagger::Compile(g.Clone(), options);
  };
  auto serialized = compile();
  ASSERT_TRUE(serialized.ok()) << serialized.status();
  const auto bytes = serialized->Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  obs::Counter* fallbacks = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_dfa_cache_fallbacks");
  for (const bool aot : {false, true}) {
    SCOPED_TRACE(aot ? "artifact" : "compiled");
    auto tagger = aot ? core::CompiledTagger::Deserialize(*bytes) : compile();
    ASSERT_TRUE(tagger.ok()) << tagger.status();
    ASSERT_EQ(tagger->lazy_model()->aot() != nullptr, aot);
    const uint64_t fallbacks_before = fallbacks->Value();
    std::vector<int> mismatches(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        core::TagSlot slot(*tagger);
        start.arrive_and_wait();
        for (size_t k = 0; k < inputs[w].size(); ++k) {
          std::vector<Tag> got;
          const TagSink sink = [&got](const Tag& t) {
            got.push_back(t);
            return true;
          };
          if ((k + static_cast<size_t>(w)) % 2 == 0) {
            tagger->Tag(inputs[w][k], sink);
          } else {
            (void)tagger->TagWithControl(
                inputs[w][k], sink,
                core::resilience::ScanControl::InertOneChunk(), nullptr,
                nullptr, nullptr, &slot);
          }
          if (got != want[w][k]) ++mismatches[w];
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (int w = 0; w < kThreads; ++w) {
      EXPECT_EQ(mismatches[w], 0) << "thread " << w;
    }
    // The table filled partway: some streams ran out of room.
    EXPECT_GT(tagger->lazy_model()->cache_states(), 0u);
    EXPECT_GT(fallbacks->Value(), fallbacks_before);
  }
}


// Contention oracle: four threads tag random inputs on one cold tagger
// while a fifth keeps reading the table's size. The counters must
// reconcile against single-threaded bookkeeping:
//
//   states interned == cfgtag_dfa_cache_states advance  (each config is
//                                                        interned once)
//   cache_states() and cache_bytes() never fall          (no flush)
//   cfgtag_dfa_cache_fallbacks does not move             (the default
//                                                        table never fills)
//
// and every tag stream equals the oracle's. A state interned twice by
// racing builders, a lost count or a table that shrank breaks one of them.
TEST(SessionPoolTest, ContentionCountersReconcileAgainstOracle) {
  auto parsed = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const grammar::Grammar g = std::move(parsed).value();
  hwgen::HwOptions options;
  options.tagger.arm_mode = ArmMode::kResync;

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> inputs;
  std::vector<std::vector<std::vector<Tag>>> want;
  for (int w = 0; w < kThreads; ++w) {
    inputs.push_back(ThreadInputs(200 + static_cast<uint64_t>(w)));
    want.emplace_back();
    for (const std::string& input : inputs.back()) {
      auto tags = testing_oracle::OracleTags(g, options.tagger, input);
      ASSERT_TRUE(tags.ok()) << tags.status();
      want.back().push_back(std::move(tags).value());
    }
  }

  auto tagger = core::CompiledTagger::Compile(g.Clone(), options);
  ASSERT_TRUE(tagger.ok()) << tagger.status();
  const LazyDfaTagger& model = *tagger->lazy_model();
  obs::Counter* states = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_dfa_cache_states");
  obs::Counter* fallbacks = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_dfa_cache_fallbacks");
  const size_t cold_states = model.cache_states();
  const uint64_t states_before = states->Value();
  const uint64_t fallbacks_before = fallbacks->Value();

  std::atomic<bool> stop_polling{false};
  std::atomic<int> shrinks{0};
  std::thread poller([&] {
    size_t last_states = 0;
    size_t last_bytes = 0;
    while (!stop_polling.load(std::memory_order_acquire)) {
      const size_t now_states = model.cache_states();
      const size_t now_bytes = model.cache_bytes();
      if (now_states < last_states || now_bytes < last_bytes) ++shrinks;
      last_states = now_states;
      last_bytes = now_bytes;
    }
  });

  std::vector<int> mismatches(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      start.arrive_and_wait();
      for (size_t k = 0; k < inputs[w].size(); ++k) {
        std::vector<Tag> got;
        tagger->Tag(inputs[w][k], [&got](const Tag& t) {
          got.push_back(t);
          return true;
        });
        if (got != want[w][k]) ++mismatches[w];
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop_polling.store(true, std::memory_order_release);
  poller.join();

  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "thread " << w;
  }
  EXPECT_EQ(shrinks.load(), 0);
  const size_t interned = model.cache_states() - cold_states;
  EXPECT_GT(interned, 0u);
  EXPECT_EQ(states->Value() - states_before, interned);
  EXPECT_EQ(fallbacks->Value(), fallbacks_before);
}

}  // namespace
}  // namespace cfgtag::tagger
