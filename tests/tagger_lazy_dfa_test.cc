// LazyDfaTagger — the lazily built DFA memoizing the fused step — must be
// tag-for-tag identical to the FunctionalTagger reference on every option
// combination, including streaming, early-stop sinks, the idle skip
// paths, a table that fills under a starvation-sized budget, and the
// fallback to uncached fused steps, both once the table is full and from
// the very first miss. Sessions over baked AOT rows and sessions split at
// every point of an XML-RPC stream must match the oracle too, and so must
// streams long enough for the speculative lanes, whatever their guesses
// do, even when a sink tags from inside a superblock.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/resilience/budget.h"
#include "core/resilience/fault_injector.h"
#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "grammar/grammar_parser.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "reference/functional_model.h"
#include "tagger/fused_model.h"
#include "tagger/lazy_dfa.h"
#include "tagger/skip_scan.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<Tag> Functional(const grammar::Grammar& g,
                            const TaggerOptions& opt,
                            std::string_view input) {
  auto t = FunctionalTagger::Create(&g, opt);
  EXPECT_TRUE(t.ok()) << t.status();
  return t->TagAll(input);
}

void ExpectSameTags(const std::vector<Tag>& a, const std::vector<Tag>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token) << "tag " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "tag " << i;
  }
}

// Feeds `input` through a fresh session, in `chunk`-byte pieces (whole
// when 0), stopping once `limit` tags were delivered (never when 0).
struct SessionRun {
  std::vector<Tag> tags;
  bool fallback = false;
  uint64_t consumed = 0;
};

SessionRun RunSession(const LazyDfaTagger& t, std::string_view input,
                      size_t chunk = 0, size_t limit = 0) {
  SessionRun run;
  LazyDfaSession session = t.NewSession();
  const TagSink sink = [&](const Tag& tag) {
    run.tags.push_back(tag);
    return limit == 0 || run.tags.size() < limit;
  };
  if (chunk == 0) chunk = input.size() + 1;
  for (size_t i = 0; i < input.size(); i += chunk) {
    session.Feed(input.substr(i, chunk), sink);
  }
  session.Finish(sink);
  run.fallback = session.fallback_active();
  run.consumed = session.bytes_consumed();
  return run;
}

// The two ways a session steps: out of its tagger's transition table (the
// options as given) and, with no room for a table at all, falling back to
// uncached fused steps at its first miss.
std::vector<TaggerOptions> CachedAndFallback(const TaggerOptions& opt) {
  TaggerOptions uncached = opt;
  uncached.dfa_cache_bytes = 0;
  return {opt, uncached};
}

bool FallsBackAtFirstMiss(const TaggerOptions& opt) {
  return opt.dfa_cache_bytes == 0;
}

// A tagger over `t`'s tables (and baked rows, which `t` keeps alive) with
// a transition table of its own that nothing has built into yet: what a
// cold session meets.
LazyDfaTagger ColdCopy(const LazyDfaTagger& t) {
  return LazyDfaTagger::Wrap(
      t.fused(),
      std::shared_ptr<const AotDfaTable>(std::shared_ptr<const void>(),
                                         t.aot()));
}

// Bytes the given idle skip has jumped over so far, over all strategies.
uint64_t SkippedBytes(SkipMetrics::Kind kind) {
  uint64_t total = 0;
  for (int s = 0; s < kNumSkipStrategies; ++s) {
    total += SkipMetrics::Get().counters[kind][s]->Value();
  }
  return total;
}

const char kCalcGrammar[] =
    "NUM [0-9]+\nWORD [a-z]+\nOP [-+*/]\n%%\ns: NUM OP NUM | WORD;\n%%\n";

TEST(LazyDfaTaggerTest, MatchesFunctionalAllArmModes) {
  grammar::Grammar calc = MustParse(kCalcGrammar);
  // A 70-position literal token spans two state words, exercising the
  // multi-word follow rows and the meta-checked accept/suppression loops.
  grammar::Grammar wide;
  const std::string long_lit(70, 'a');
  auto lit = wide.AddLiteralToken(long_lit);
  ASSERT_TRUE(lit.ok()) << lit.status();
  auto num = wide.AddToken("NUM", "[0-9]+");
  ASSERT_TRUE(num.ok()) << num.status();
  const int32_t nt = wide.AddNonterminal("s");
  wide.AddProduction(nt, {grammar::Symbol::Terminal(*lit),
                          grammar::Symbol::Terminal(*num)});
  wide.SetStart(nt);
  auto fused = FusedTagger::Create(&wide, {});
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_GE(fused->NumStateWords(), 3u);  // 2 for the literal, 1 for NUM

  const std::vector<std::string> calc_inputs = {
      "12+34", "12 + 34", "hello", "12x", "", "   ", "??12+34??",
      "a1b2c3", "garbage 12+34 more", "###\n42/7\n###", "9*8 trailing",
      "12+34 56-78", "1234", "abc de"};
  const std::vector<std::string> wide_inputs = {
      long_lit + " 123", long_lit.substr(0, 69) + "b 5",
      "x" + long_lit + " 7", long_lit};
  for (ArmMode mode : {ArmMode::kAnchored, ArmMode::kScan, ArmMode::kResync}) {
    for (bool longest : {true, false}) {
      TaggerOptions base;
      base.arm_mode = mode;
      base.longest_match = longest;
      for (const TaggerOptions& opt : CachedAndFallback(base)) {
        for (const auto& [g, inputs] :
             {std::make_pair(&calc, &calc_inputs),
              std::make_pair(&wide, &wide_inputs)}) {
          auto t = LazyDfaTagger::Create(g, opt);
          ASSERT_TRUE(t.ok()) << t.status();
          for (const std::string& input : *inputs) {
            const SessionRun run = RunSession(*t, input);
            ExpectSameTags(Functional(*g, opt, input), run.tags);
            EXPECT_EQ(run.consumed, input.size());
            if (!input.empty()) {
              EXPECT_EQ(run.fallback, FallsBackAtFirstMiss(opt)) << input;
            }
          }
        }
      }
    }
  }
}

TEST(LazyDfaTaggerTest, ChunkedFeedMatchesWholeBuffer) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions base;
  base.arm_mode = ArmMode::kResync;
  const std::string input = "  12+34 junk 99*1   abc 5-5 ";
  for (const TaggerOptions& opt : CachedAndFallback(base)) {
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    const std::vector<Tag> whole = t->TagAll(input);
    ExpectSameTags(Functional(g, opt, input), whole);
    for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u}) {
      const SessionRun run = RunSession(*t, input, chunk);
      ExpectSameTags(whole, run.tags);
      EXPECT_EQ(run.consumed, input.size());
      EXPECT_EQ(run.fallback, FallsBackAtFirstMiss(opt));
    }
  }
}

TEST(LazyDfaTaggerTest, EarlyStopMatchesFunctional) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions base;
  base.arm_mode = ArmMode::kScan;
  const std::string input = "12+34 abc 9*9 def";
  for (const TaggerOptions& opt : CachedAndFallback(base)) {
    auto functional = FunctionalTagger::Create(&g, opt);
    auto lazy = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(functional.ok() && lazy.ok());
    for (size_t limit = 1; limit <= 4; ++limit) {
      std::vector<Tag> want;
      functional->Run(input, [&](const Tag& tag) {
        want.push_back(tag);
        return want.size() < limit;
      });
      for (size_t chunk : {0u, 1u, 4u}) {
        const SessionRun run = RunSession(*lazy, input, chunk, limit);
        ExpectSameTags(want, run.tags);
        EXPECT_EQ(run.fallback, FallsBackAtFirstMiss(opt));
      }
    }
  }
}

// One input per idle skip kind, with the arm mode that makes it skip.
struct SkipCase {
  TaggerOptions opt;
  std::string input;
  SkipMetrics::Kind kind;
};

std::vector<SkipCase> SkipCases() {
  std::vector<SkipCase> cases;
  // Delimiter-run skip (resync): mostly-space stream with islands.
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kResync;
    std::string input(10000, ' ');
    input.replace(5000, 5, "12+34");
    input.replace(9990, 3, "abc");
    cases.push_back({opt, input, SkipMetrics::kDelimiter});
  }
  // Anchored-dead skip: nothing can match after the stream dies.
  {
    TaggerOptions opt;  // anchored
    std::string input = "12+34 ";
    input += std::string(5000, 'z');
    input += " 9*9";
    cases.push_back({opt, input, SkipMetrics::kAnchored});
  }
  // Resync garbage skip: a dead non-delimiter run is inert until the next
  // delimiter rearms the machine.
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kResync;
    std::string input(8000, '?');
    input += " 12+34";
    cases.push_back({opt, input, SkipMetrics::kResync});
  }
  // Armed-byte prefilter (scan): bytes that cannot start any token are
  // inert while the machine is idle, delimiters mixed in or not.
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kScan;
    std::string input(3000, '?');
    input += "12+34";
    input += std::string(3000, '#');
    input.replace(4000, 3, " ; ");
    input += "abc";
    cases.push_back({opt, input, SkipMetrics::kArmed});
  }
  // Runs of 1 to 6 idle bytes between tokens, so the idle runs the skips
  // could start are one byte long as often as they are longer: a walk takes
  // a one-byte run's step itself.
  const auto runs = [](const std::string& before, char idle,
                       const std::string& after) {
    std::string input;
    for (size_t n = 1; input.size() < 6000; n = n % 6 + 1) {
      input += before + std::string(n, idle) + after;
    }
    return input;
  };
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kResync;
    cases.push_back({opt, runs("abc", ' ', "9*9"), SkipMetrics::kDelimiter});
    cases.push_back({opt, runs("12+34 ", '?', " xy "), SkipMetrics::kResync});
  }
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kScan;
    cases.push_back({opt, runs("abc", '#', "9*9"), SkipMetrics::kArmed});
  }
  return cases;
}

TEST(LazyDfaTaggerTest, SkipPathsStayExact) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  // Runs each input in both stepping modes: the tags and the byte ledger
  // must be exact, and the idle skip of the case's kind must have jumped
  // bytes.
  for (const SkipCase& c : SkipCases()) {
    for (const TaggerOptions& opt : CachedAndFallback(c.opt)) {
      auto t = LazyDfaTagger::Create(&g, opt);
      ASSERT_TRUE(t.ok()) << t.status();
      const uint64_t skipped_before = SkippedBytes(c.kind);
      for (size_t chunk : {0u, 7u}) {
        const SessionRun run = RunSession(*t, c.input, chunk);
        ExpectSameTags(Functional(g, opt, c.input), run.tags);
        EXPECT_EQ(run.consumed, c.input.size());
        EXPECT_EQ(run.fallback, FallsBackAtFirstMiss(opt));
      }
      EXPECT_GT(SkippedBytes(c.kind), skipped_before)
          << "skip kind " << c.kind << " fallback "
          << FallsBackAtFirstMiss(opt);
    }
  }
}

// The cached loop consults the idle skips only at entries whose exit bit
// is set; the fallback consults them on every byte. Both must jump
// exactly the same bytes of every kind, cold and warm (where the built
// transitions let the cached loop run on), so a missing exit bit never
// loses a skip.
TEST(LazyDfaTaggerTest, CachedSkipsEqualFallbackSkips) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  const TagSink sink = [](const Tag&) { return true; };
  for (const SkipCase& c : SkipCases()) {
    for (size_t chunk : {c.input.size(), size_t{7}}) {
      std::vector<std::vector<uint64_t>> jumped;
      for (const TaggerOptions& opt : CachedAndFallback(c.opt)) {
        auto t = LazyDfaTagger::Create(&g, opt);
        ASSERT_TRUE(t.ok()) << t.status();
        LazyDfaSession session = t->NewSession();
        for (const char* pass : {"cold", "warm"}) {
          std::vector<uint64_t> delta;
          for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
            delta.push_back(SkippedBytes(static_cast<SkipMetrics::Kind>(k)));
          }
          session.Reset();
          for (size_t i = 0; i < c.input.size(); i += chunk) {
            session.Feed(std::string_view(c.input).substr(i, chunk), sink);
          }
          session.Finish(sink);
          EXPECT_EQ(session.fallback_active(), FallsBackAtFirstMiss(opt))
              << pass;
          for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
            delta[static_cast<size_t>(k)] =
                SkippedBytes(static_cast<SkipMetrics::Kind>(k)) -
                delta[static_cast<size_t>(k)];
          }
          jumped.push_back(delta);
        }
      }
      ASSERT_EQ(jumped.size(), 4u);
      EXPECT_GT(jumped[0][c.kind], 0u) << "skip kind " << c.kind;
      EXPECT_EQ(jumped[0], jumped[2])
          << "cold, skip kind " << c.kind << " chunk " << chunk;
      EXPECT_EQ(jumped[1], jumped[3])
          << "warm, skip kind " << c.kind << " chunk " << chunk;
    }
  }
}

// The same on streams of more than one superblock, where the lanes take
// idle skips bounded by their slices and the commit counts them: each
// case's input repeated past kLanes * kSliceBytes bytes.
TEST(LazyDfaTaggerTest, KWayCachedSkipsEqualFallbackSkips) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  const TagSink sink = [](const Tag&) { return true; };
  const size_t block =
      LazyDfaSession::kLanes * LazyDfaSession::kSliceBytes;
  for (const SkipCase& c : SkipCases()) {
    std::string input;
    while (input.size() < block * 5 / 4) input += c.input;
    for (size_t chunk : {input.size(), size_t{7}}) {
      std::vector<std::vector<uint64_t>> jumped;
      for (const TaggerOptions& opt : CachedAndFallback(c.opt)) {
        auto t = LazyDfaTagger::Create(&g, opt);
        ASSERT_TRUE(t.ok()) << t.status();
        LazyDfaSession session = t->NewSession();
        for (const char* pass : {"cold", "warm"}) {
          std::vector<uint64_t> delta;
          for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
            delta.push_back(SkippedBytes(static_cast<SkipMetrics::Kind>(k)));
          }
          session.Reset();
          for (size_t i = 0; i < input.size(); i += chunk) {
            session.Feed(std::string_view(input).substr(i, chunk), sink);
          }
          session.Finish(sink);
          EXPECT_EQ(session.fallback_active(), FallsBackAtFirstMiss(opt))
              << pass;
          for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
            delta[static_cast<size_t>(k)] =
                SkippedBytes(static_cast<SkipMetrics::Kind>(k)) -
                delta[static_cast<size_t>(k)];
          }
          jumped.push_back(delta);
        }
      }
      ASSERT_EQ(jumped.size(), 4u);
      EXPECT_GT(jumped[0][c.kind], 0u) << "skip kind " << c.kind;
      EXPECT_EQ(jumped[0], jumped[2])
          << "cold, skip kind " << c.kind << " chunk " << chunk;
      EXPECT_EQ(jumped[1], jumped[3])
          << "warm, skip kind " << c.kind << " chunk " << chunk;
    }
  }
}

TEST(LazyDfaTaggerTest, TinyCacheFillsButStaysExact) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  // Budget below the cost of even a few interned states: the table fills
  // early in the stream, and the stream finishes on uncached steps.
  opt.dfa_cache_bytes = 1 << 9;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  std::vector<Tag> got;
  LazyDfaSession session = t->NewSession();
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_TRUE(session.fallback_active());
  EXPECT_GT(t->cache_states(), 0u);
  EXPECT_LE(t->cache_bytes(), opt.dfa_cache_bytes * 2);
}

// The entry encoding at its edge. A table stops growing before a build
// would take it past kMaxTableEntries (TableFull, checked by every build),
// so every row it can hold starts at most kMaxTableEntries - num_classes,
// and that row start encodes with every flag set into a non-negative
// int32_t that decodes back. A row start past the limit would not.
// A real table at the limit would take gigabytes, so this pins the
// arithmetic.
TEST(LazyDfaTaggerTest, TableLimitKeepsEveryEntryInInt32) {
  using Session = LazyDfaSession;
  static_assert(Session::kMaxTableEntries ==
                static_cast<size_t>(std::numeric_limits<int32_t>::max()) >>
                    Session::kFlagBits);
  const int32_t all_flags = (1 << Session::kFlagBits) - 1;
  for (const size_t classes : {size_t{1}, size_t{37}, size_t{256}}) {
    SCOPED_TRACE("classes " + std::to_string(classes));
    const size_t last_row = Session::kMaxTableEntries - classes;
    EXPECT_FALSE(Session::TableFull(last_row, classes));
    EXPECT_TRUE(Session::TableFull(last_row + 1, classes));
    const int32_t entry = Session::EncodeEntry(last_row, all_flags);
    EXPECT_GE(entry, 0);
    EXPECT_EQ(Session::Successor(entry), last_row);
    EXPECT_EQ(entry & all_flags, all_flags);
  }
  EXPECT_LT(Session::EncodeEntry(Session::kMaxTableEntries + 1, 0), 0);
}

// Once the table is full, a stream that misses falls back to fused steps
// for the rest of the stream. Reset starts the next stream cached again; it
// walks what the table holds and falls back at the same miss, building
// nothing.
TEST(LazyDfaTaggerTest, FullTableFallsBackToFused) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  std::vector<Tag> got;
  LazyDfaSession session = t->NewSession();
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_TRUE(session.fallback_active());
  const size_t full_states = t->cache_states();
  const size_t full_bytes = t->cache_bytes();
  session.Reset();
  EXPECT_FALSE(session.fallback_active());
  got.clear();
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_TRUE(session.fallback_active());
  EXPECT_EQ(t->cache_states(), full_states);
  EXPECT_EQ(t->cache_bytes(), full_bytes);
}

TEST(LazyDfaTaggerTest, ResetKeepsWarmCache) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 ";
  const auto want = Functional(g, opt, input);
  LazyDfaSession session = t->NewSession();
  std::vector<Tag> got;
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  const size_t warm_states = t->cache_states();
  EXPECT_GT(warm_states, 0u);
  // A second pass over the same stream runs out of cached transitions:
  // identical output and not a single new state interned.
  session.Reset();
  got.clear();
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_EQ(t->cache_states(), warm_states);
}

// Named for the pool that once handed each run a warm private table; runs
// now reuse the tagger's one table, and it moves with the tagger.
TEST(LazyDfaTaggerTest, SessionPoolReusesSessions) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const auto first = t->TagAll("12+34");
  const auto second = t->TagAll("56-7");
  const size_t warm = t->cache_states();
  EXPECT_GT(warm, 0u);
  // Runs over streams of the same shape intern nothing new.
  EXPECT_EQ(t->TagAll("12+34"), first);
  EXPECT_EQ(t->TagAll("56-7"), second);
  EXPECT_EQ(t->cache_states(), warm);
  // The table survives a tagger move, built rows included.
  LazyDfaTagger moved = std::move(t).value();
  EXPECT_EQ(moved.cache_states(), warm);
  ASSERT_EQ(moved.TagAll("1+1").size(), 3u);  // NUM OP NUM
}

TEST(LazyDfaTaggerTest, CacheMetricsAreRegistered) {
  const DfaCacheMetrics& m = DfaCacheMetrics::Get();
  ASSERT_NE(m.states, nullptr);
  ASSERT_NE(m.fallbacks, nullptr);
  const uint64_t states_before = m.states->Value();
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  (void)t->TagAll("12+34 77*1");
  EXPECT_GT(m.states->Value(), states_before);
}

// Under cache pressure every registry-side cache counter must move: a
// starvation-sized budget fills the table after a few states, and the
// stream then falls back to fused steps — both visible at /metrics, not
// just through the tagger and session accessors.
TEST(LazyDfaTaggerTest, CachePressureMovesRegistryCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* states = reg.GetCounter("cfgtag_dfa_cache_states");
  obs::Counter* fallbacks = reg.GetCounter("cfgtag_dfa_cache_fallbacks");
  const uint64_t states_before = states->Value();
  const uint64_t fallbacks_before = fallbacks->Value();

  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  const auto got = t->TagAll(input);
  ExpectSameTags(want, got);

  EXPECT_GT(states->Value(), states_before);
  EXPECT_GT(fallbacks->Value(), fallbacks_before);
}

// Fallbacks also land in the flight recorder, so a crash dump shows
// whether streams were running uncached in the run-up.
TEST(LazyDfaTaggerTest, CachePressureRecordsFlightEvents) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const uint64_t recorded_before = rec.total_recorded();

  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  (void)t->TagAll("  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ");

  ASSERT_GT(rec.total_recorded(), recorded_before);
  bool saw_fallback = false;
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before) continue;
    if (e.kind == obs::EventKind::kDfaCacheFallback) saw_fallback = true;
  }
  EXPECT_TRUE(saw_fallback);
}

// Three XML-RPC messages with garbage and padding between them: resync
// arming re-enters at each opener, so the stream mixes plain runs,
// emitting transitions, delimiter runs and resync garbage skips.
const char kXmlRpcStream[] =
    "<methodCall><methodName>add</methodName><params><param><int>42</int>"
    "</param><param><string>hello</string></param></params></methodCall>\n"
    "junk?? <methodCall> <methodName>ping</methodName> <params><param>"
    "<double>-1.5</double></param></params></methodCall>\n  \t"
    "<methodCall><methodName>t2</methodName><params><param><i4>7</i4>"
    "</param></params></methodCall>";

// Feeds `stream` through `session` from a reset as two chunks split at
// `split`, stopping once `limit` tags were delivered (never when 0), and
// returns the tags that end before `scan_end`.
std::vector<Tag> FeedSplit(LazyDfaSession* session, std::string_view stream,
                           size_t split, size_t limit, uint64_t scan_end) {
  std::vector<Tag> tags;
  size_t delivered = 0;
  const TagSink sink = [&](const Tag& tag) {
    if (tag.end < scan_end) tags.push_back(tag);
    return limit == 0 || ++delivered < limit;
  };
  session->Reset();
  session->Feed(stream.substr(0, split), sink);
  session->Feed(stream.substr(split), sink);
  if (limit == 0) {
    EXPECT_EQ(session->bytes_consumed(), stream.size() - 1)
        << "split " << split;
  }
  session->Finish(sink);
  return tags;
}

// CompiledTagger::Tag's stream contract (the input plus flush padding)
// fed straight into sessions split in two at every byte: warm, cold, on a
// table that fills and falls back, and out of baked AOT rows must all
// deliver the oracle's tags, and exactly its prefix on early stop.
TEST(LazyDfaTaggerTest, EverySplitPointMatchesOracle) {
  auto parsed = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const grammar::Grammar g = std::move(parsed).value();
  const std::string input = kXmlRpcStream;
  ASSERT_GE(input.size(), 280u);
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = ArmMode::kResync;
  const auto want = testing_oracle::OracleTags(g, opt.tagger, input);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_GE(want->size(), 30u);
  std::string stream = input;
  stream.append(core::CompiledTagger::kFlushPadding + 1,
                core::CompiledTagger::kFlushByte);
  const uint64_t scan_end = input.size() + core::CompiledTagger::kFlushPadding;

  auto lazy = LazyDfaTagger::Create(&g, opt.tagger);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  TaggerOptions tiny_opt = opt.tagger;
  tiny_opt.dfa_cache_bytes = 1 << 10;
  auto tiny = LazyDfaTagger::Create(&g, tiny_opt);
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  hwgen::HwOptions aot_opt = opt;
  aot_opt.tagger.aot_state_budget = 3;
  auto compiled = core::CompiledTagger::Compile(g.Clone(), aot_opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto bytes = compiled->Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = core::CompiledTagger::Deserialize(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const LazyDfaTagger* baked = loaded->lazy_model();
  ASSERT_NE(baked, nullptr);

  LazyDfaSession warm = lazy->NewSession();
  ExpectSameTags(*want, FeedSplit(&warm, stream, 0, 0, scan_end));
  struct Case {
    const char* name;
    const LazyDfaTagger* tagger;
    LazyDfaSession* reused;  // null: a cold table per run
  };
  const Case cases[] = {{"warm", &*lazy, &warm},
                        {"cold", &*lazy, nullptr},
                        {"tiny-cache", &*tiny, nullptr},
                        {"aot-budget-3", baked, nullptr}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    uint64_t fallbacks = 0;
    auto run = [&](size_t split, size_t limit) {
      if (c.reused != nullptr) {
        return FeedSplit(c.reused, stream, split, limit, scan_end);
      }
      const LazyDfaTagger cold = ColdCopy(*c.tagger);
      LazyDfaSession session = cold.NewSession();
      std::vector<Tag> tags =
          FeedSplit(&session, stream, split, limit, scan_end);
      fallbacks += session.fallback_active();
      if (c.tagger != &*tiny) {
        EXPECT_FALSE(session.fallback_active());
      }
      EXPECT_EQ(cold.aot() != nullptr ? cold.aot()->states.size() : 0u,
                c.tagger == baked ? 3u : 0u);
      return tags;
    };
    for (size_t split = 0; split <= stream.size(); ++split) {
      SCOPED_TRACE("split " + std::to_string(split));
      ExpectSameTags(*want, run(split, 0));
    }
    for (size_t limit = 1; limit <= want->size(); ++limit) {
      const std::vector<Tag> prefix(want->begin(),
                                    want->begin() + static_cast<long>(limit));
      const uint64_t stop = prefix.back().end;
      for (size_t split : {size_t{0}, static_cast<size_t>(stop),
                           static_cast<size_t>(stop) + 1}) {
        SCOPED_TRACE("limit " + std::to_string(limit) + " split " +
                     std::to_string(split));
        ExpectSameTags(prefix, run(split, limit));
      }
    }
    if (c.tagger == &*tiny) {
      EXPECT_GT(fallbacks, 0u);
    }
  }
}

// ---- The speculative interleave --------------------------------------------

constexpr size_t kSlice = LazyDfaSession::kSliceBytes;
constexpr size_t kBlock = LazyDfaSession::kLanes * kSlice;

// An XML-RPC stream of more than one superblock: copies of kXmlRpcStream
// around one call whose STRING token has `len` bytes and ends just before
// byte `end`. A scan's first superblock starts at byte 1, so a lane starts
// right after each multiple of kSlice; inside the token those bytes are
// 'Q', which the warm-up stream lacks, so the lanes starting there have
// no state noted for it and guess lane 0's, outside any token. A token
// longer than a slice leaves such a lane guessing wrong for its whole
// slice; its end moves where the lanes converge.
std::string KWayStream(size_t end, size_t len) {
  const std::string msg = std::string(kXmlRpcStream) + "\n";
  const std::string open =
      "<methodCall><methodName>big</methodName><params><param><string>";
  std::string s;
  while (s.size() + msg.size() + open.size() + len <= end) s += msg;
  s.append(end - len - open.size() - s.size(), ' ');
  s += open;
  s.append(len, 'x');
  for (size_t q = kSlice; q < s.size(); q += kSlice) {
    if (q + len >= s.size()) s[q] = 'Q';
  }
  s += "</string></param></params></methodCall>\n      ";
  while (s.size() < kBlock + kSlice) s += msg;
  return s;
}

struct KWayRun {
  std::vector<Tag> tags;  // the tags before scan_end
  uint64_t consumed = 0;  // bytes_consumed() before Finish
  bool fallback = false;
};

// Feeds `input` plus CompiledTagger::Tag's flush padding through
// `session` from a reset, whole, stopping once `limit` tags were delivered
// (never when 0).
KWayRun FeedKWay(LazyDfaSession* session, const std::string& input,
                 size_t limit = 0) {
  std::string stream = input;
  stream.append(core::CompiledTagger::kFlushPadding + 1,
                core::CompiledTagger::kFlushByte);
  const uint64_t scan_end = input.size() + core::CompiledTagger::kFlushPadding;
  KWayRun run;
  size_t delivered = 0;
  const TagSink sink = [&](const Tag& tag) {
    if (tag.end < scan_end) run.tags.push_back(tag);
    return limit == 0 || ++delivered < limit;
  };
  session->Reset();
  session->Feed(stream, sink);
  run.consumed = session->bytes_consumed();
  session->Finish(sink);
  run.fallback = session->fallback_active();
  return run;
}

// The taggers the speculative tests run: the default cache, a starved one
// that fills within the first messages (and falls back), and one loaded
// from an artifact that baked only three states.
struct KWayTaggers {
  grammar::Grammar g;
  TaggerOptions opt;
  std::optional<LazyDfaTagger> lazy;
  std::optional<LazyDfaTagger> tiny;
  std::optional<core::CompiledTagger> loaded;

  const LazyDfaTagger* baked() const { return loaded->lazy_model(); }
};

std::unique_ptr<KWayTaggers> MakeKWayTaggers() {
  auto t = std::make_unique<KWayTaggers>();
  auto parsed = xmlrpc::XmlRpcGrammar();
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  t->g = std::move(parsed).value();
  t->opt.arm_mode = ArmMode::kResync;
  auto lazy = LazyDfaTagger::Create(&t->g, t->opt);
  EXPECT_TRUE(lazy.ok()) << lazy.status();
  t->lazy.emplace(std::move(lazy).value());
  TaggerOptions tiny_opt = t->opt;
  tiny_opt.dfa_cache_bytes = 1 << 10;
  auto tiny = LazyDfaTagger::Create(&t->g, tiny_opt);
  EXPECT_TRUE(tiny.ok()) << tiny.status();
  t->tiny.emplace(std::move(tiny).value());
  hwgen::HwOptions aot_opt;
  aot_opt.tagger = t->opt;
  aot_opt.tagger.aot_state_budget = 3;
  auto compiled = core::CompiledTagger::Compile(t->g.Clone(), aot_opt);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  auto bytes = compiled->Serialize();
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = core::CompiledTagger::Deserialize(*bytes);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  t->loaded.emplace(std::move(loaded).value());
  return t;
}

// A stream of kXmlRpcStream copies, more than a superblock long.
std::string WarmUpStream() {
  std::string s;
  while (s.size() < kBlock + kSlice) s += std::string(kXmlRpcStream) + "\n";
  return s;
}

// Runs `input` warm (after WarmUpStream), cold, starved and from a
// budget-3 artifact, each but the warm one on a cold table: every run must
// deliver the oracle's tags and consume every byte but the pending one.
void ExpectKWayMatchesOracle(const KWayTaggers& t, const std::string& input) {
  const auto want = testing_oracle::OracleTags(t.g, t.opt, input);
  ASSERT_TRUE(want.ok()) << want.status();
  const uint64_t fed = input.size() + core::CompiledTagger::kFlushPadding + 1;
  struct Case {
    const char* name;
    const LazyDfaTagger* tagger;
  };
  const Case cases[] = {{"warm", nullptr},
                        {"cold", &*t.lazy},
                        {"tiny-cache", &*t.tiny},
                        {"aot-budget-3", t.baked()}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    KWayRun run;
    if (c.tagger == nullptr) {
      LazyDfaSession warm = t.lazy->NewSession();
      (void)FeedKWay(&warm, WarmUpStream());
      run = FeedKWay(&warm, input);
    } else {
      const LazyDfaTagger cold = ColdCopy(*c.tagger);
      LazyDfaSession session = cold.NewSession();
      run = FeedKWay(&session, input);
      EXPECT_EQ(cold.aot() != nullptr ? cold.aot()->states.size() : 0u,
                c.tagger == t.baked() ? 3u : 0u);
    }
    ExpectSameTags(*want, run.tags);
    EXPECT_EQ(run.consumed, fed - 1);
    EXPECT_EQ(run.fallback, c.tagger == &*t.tiny);
  }
}

// A STRING token longer than a slice straddles the cuts, so the lane
// starting inside it guesses a state outside any token and stalls; it
// guesses again at each stall, and either never meets the true state in
// its slice or meets it on the tokens after the string. Sweeping where
// the token ends moves that point across a slice's last bytes into the
// next slice.
TEST(LazyDfaKWayTest, GuessesThatConvergeLateOrNeverMatchOracle) {
  const auto t = MakeKWayTaggers();
  for (size_t end = 2 * kSlice - 48; end <= 2 * kSlice + 4; ++end) {
    SCOPED_TRACE("token ends at " + std::to_string(end));
    ExpectKWayMatchesOracle(*t, KWayStream(end, kSlice + 600));
  }
  for (size_t end = kSlice - 8; end <= kSlice + 2; ++end) {
    SCOPED_TRACE("short token ends at " + std::to_string(end));
    ExpectKWayMatchesOracle(*t, KWayStream(end, 700));
  }
}

// The lane starting inside a long WORD guesses lane 0's state, NUM after the
// stream's first '1': the byte before its slice, 'q', is one the warm-up
// never saw, so no state was noted for it. In resync mode the lane dies on
// the word and skips to its end; it reaches the true state within the tokens
// that follow, where it takes no per-byte step and so logs no checkpoint.
// The warm-up starts with the lane's path, so the lane never stalls on it. A
// run of spaces starting near the slice's end gives it one: the lane stops
// before the skip the slice end cuts short. With the run starting on the
// slice's next-to-last byte, that checkpoint — where the walk from the true
// state meets the lane — is on the slice's last byte. Cold, the lane stalls
// at once.
TEST(LazyDfaKWayTest, GuessConvergingOnSliceLastByteMatchesOracle) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  const std::string filler = "12+34 abc  7*8 1aa a ";
  std::string tokens;
  while (tokens.size() < 200) tokens += " 12+34 abc 7*8";
  std::string warm_up = "1aaaa" + tokens + "      ";
  while (warm_up.size() < kBlock + kSlice) warm_up += "1+2 aaaa  " + filler;
  for (const ArmMode mode : {ArmMode::kResync, ArmMode::kScan}) {
    TaggerOptions base;
    base.arm_mode = mode;
    for (const TaggerOptions& opt : CachedAndFallback(base)) {
      auto t = LazyDfaTagger::Create(&g, opt);
      ASSERT_TRUE(t.ok()) << t.status();
      // Lane 1 covers bytes [kSlice + 1, 2 * kSlice + 1).
      for (size_t run = 2 * kSlice - 3; run <= 2 * kSlice; ++run) {
        std::string input = "1+2 ";
        input.append(2 * kSlice - 100 - input.size(), 'a');
        input[kSlice] = 'q';
        input += tokens;
        input.resize(run);
        if (input.back() == ' ') input.back() = '9';
        input.append(6, ' ');
        while (input.size() < kBlock + kSlice) input += filler;
        const auto want = testing_oracle::OracleTags(g, opt, input);
        ASSERT_TRUE(want.ok()) << want.status();
        for (const bool warm : {false, true}) {
          SCOPED_TRACE(std::string(warm ? "warm" : "cold") + " run at " +
                       std::to_string(run));
          const LazyDfaTagger cold = ColdCopy(*t);
          LazyDfaSession session = cold.NewSession();
          if (warm) (void)FeedKWay(&session, warm_up);
          const KWayRun run_out = FeedKWay(&session, input);
          ExpectSameTags(*want, run_out.tags);
          EXPECT_EQ(run_out.consumed,
                    input.size() + core::CompiledTagger::kFlushPadding);
          EXPECT_EQ(run_out.fallback, FallsBackAtFirstMiss(opt));
        }
      }
    }
  }
}

// Early stop delivers exactly the oracle's prefix and consumes the byte
// of the refused tag, wherever that tag falls: in lane 0, in the prefix of
// lane 1 walked again from the true state, in an adopted lane.
TEST(LazyDfaKWayTest, EarlyStopInEveryLaneMatchesOracle) {
  const auto t = MakeKWayTaggers();
  const std::string input = KWayStream(kSlice + 3000, 3500);
  const auto want = testing_oracle::OracleTags(t->g, t->opt, input);
  ASSERT_TRUE(want.ok()) << want.status();
  std::vector<size_t> limits;
  for (const size_t at : {size_t{0}, kSlice, kSlice + 2990, kSlice + 3010,
                          2 * kSlice + kSlice / 2, 3 * kSlice + kSlice / 2}) {
    size_t k = 0;
    while (k < want->size() && (*want)[k].end < at) ++k;
    ASSERT_LT(k + 1, want->size());
    for (size_t d : {k, k + 1, k + 2}) limits.push_back(d + 1);
  }
  LazyDfaSession warm = t->lazy->NewSession();
  (void)FeedKWay(&warm, input);
  const LazyDfaTagger* taggers[] = {nullptr, &*t->lazy, &*t->tiny,
                                    t->baked()};
  for (const LazyDfaTagger* tagger : taggers) {
    for (const size_t limit : limits) {
      SCOPED_TRACE("limit " + std::to_string(limit));
      const std::vector<Tag> prefix(want->begin(),
                                    want->begin() + static_cast<long>(limit));
      KWayRun run;
      if (tagger == nullptr) {
        run = FeedKWay(&warm, input, limit);
      } else {
        const LazyDfaTagger cold = ColdCopy(*tagger);
        LazyDfaSession session = cold.NewSession();
        run = FeedKWay(&session, input, limit);
      }
      ExpectSameTags(prefix, run.tags);
      EXPECT_EQ(run.consumed, prefix.back().end + 1);
    }
  }
}

// A sink may tag another input from inside its callback while the
// superblock that called it is still committing its lanes: on the same
// tagger, whose table the inner scan builds into, and on a second one. The
// inner scans are long enough for superblocks of their own, which must not
// touch the outer superblock's lane scratch; every scan, outer and inner,
// delivers the oracle's tags.
TEST(LazyDfaKWayTest, SinkThatTagsInsideASuperblockMatchesOracle) {
  const auto t = MakeKWayTaggers();
  std::string outer;
  while (outer.size() < 2 * kBlock + kSlice) {
    outer += std::string(kXmlRpcStream) + "\n";
  }
  xmlrpc::MessageGenerator gen({}, /*seed=*/11);
  const std::string inner = gen.GenerateStream(0, 2 * kBlock + 100);
  const auto want_outer = testing_oracle::OracleTags(t->g, t->opt, outer);
  ASSERT_TRUE(want_outer.ok()) << want_outer.status();
  const auto want_inner = testing_oracle::OracleTags(t->g, t->opt, inner);
  ASSERT_TRUE(want_inner.ok()) << want_inner.status();
  std::string stream = outer;
  stream.append(core::CompiledTagger::kFlushPadding + 1,
                core::CompiledTagger::kFlushByte);
  const uint64_t scan_end = outer.size() + core::CompiledTagger::kFlushPadding;
  const LazyDfaTagger* const nested_taggers[] = {&*t->lazy, t->baked()};
  for (const LazyDfaTagger* nested : nested_taggers) {
    SCOPED_TRACE(nested == &*t->lazy ? "same tagger" : "second tagger");
    std::vector<Tag> got;
    size_t inner_runs = 0;
    const TagSink sink = [&](const Tag& tag) {
      if (tag.end < scan_end) got.push_back(tag);
      // A few inner scans, all while the outer scan is in its superblocks.
      if (got.size() % 150 == 75 && inner_runs < 4) {
        ++inner_runs;
        LazyDfaSession session = nested->NewSession();
        ExpectSameTags(*want_inner, FeedKWay(&session, inner).tags);
      }
      return true;
    };
    LazyDfaSession session = t->lazy->NewSession();
    session.Feed(stream, sink);
    EXPECT_EQ(session.bytes_consumed(), stream.size() - 1);
    session.Finish(sink);
    EXPECT_EQ(inner_runs, 4u);
    ExpectSameTags(*want_outer, got);
  }
}

// Shedding to fallback in a superblock — the dfa.intern fault site, or
// the budget ladder's kShedDfa rung — keeps the tags and the byte count
// exact, whichever build it hits.
TEST(LazyDfaKWayTest, ShedDuringSuperblockMatchesOracle) {
  namespace res = core::resilience;
  const auto t = MakeKWayTaggers();
  const std::string input = KWayStream(2 * kSlice + 100, kSlice + 600);
  const auto want = testing_oracle::OracleTags(t->g, t->opt, input);
  ASSERT_TRUE(want.ok()) << want.status();
  const uint64_t fed = input.size() + core::CompiledTagger::kFlushPadding + 1;
  bool fell_back = false;
  for (const uint64_t period : {2u, 3u, 7u, 40u}) {
    SCOPED_TRACE("dfa.intern period " + std::to_string(period));
    ASSERT_TRUE(res::FaultInjector::Instance().Arm("dfa.intern", period).ok());
    const LazyDfaTagger cold = ColdCopy(*t->lazy);
    LazyDfaSession session = cold.NewSession();
    const KWayRun run = FeedKWay(&session, input);
    res::FaultInjector::Instance().DisarmAll();
    ExpectSameTags(*want, run.tags);
    EXPECT_EQ(run.consumed, fed - 1);
    fell_back |= run.fallback;
  }
  EXPECT_TRUE(fell_back);
  // The ladder sheds at 85% of the limit: limits just above the usage of
  // everything else shed once the cold table has grown a little.
  res::ResourceBudget& budget = res::ResourceBudget::Process();
  fell_back = false;
  for (const uint64_t headroom : {uint64_t{16} << 10, uint64_t{64} << 10,
                                  uint64_t{256} << 10}) {
    SCOPED_TRACE("headroom " + std::to_string(headroom));
    const LazyDfaTagger cold = ColdCopy(*t->lazy);
    budget.SetLimit(budget.used() + headroom);
    LazyDfaSession session = cold.NewSession();
    const KWayRun run = FeedKWay(&session, input);
    budget.SetLimit(0);
    ExpectSameTags(*want, run.tags);
    EXPECT_EQ(run.consumed, fed - 1);
    fell_back |= run.fallback;
  }
  EXPECT_TRUE(fell_back);
}

// What a scan leaves in its tagger's table and reports of it.
struct CacheTraffic {
  std::vector<Tag> tags;
  size_t states = 0;
  size_t bytes = 0;
  bool fallback = false;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// Lanes never build or shed, so speculation leaves a stream's cache
// traffic — the states interned, the bytes charged, the fallback once the
// table is full, the DFA hits and misses — exactly as the walk from the
// true state alone makes it: a stream fed whole, in superblocks, into one
// table matches the same stream fed in chunks too short for one into
// another, cold and warm, with caps just above the stream's reachable set
// and below it.
TEST(LazyDfaKWayTest, SpeculationLeavesCacheTrafficSequential) {
  auto parsed = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const grammar::Grammar g = std::move(parsed).value();
  xmlrpc::MessageGenerator gen({}, /*seed=*/7);
  const std::string input = gen.GenerateStream(0, 3 * kBlock);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  const auto scan = [&input](const LazyDfaTagger& t, LazyDfaSession* session,
                             size_t chunk) {
    obs::AttributionTable::Default().Clear();
    CacheTraffic traffic;
    const TagSink sink = [&traffic](const Tag& tag) {
      traffic.tags.push_back(tag);
      return true;
    };
    session->Reset();
    for (size_t i = 0; i < input.size(); i += chunk) {
      session->Feed(std::string_view(input).substr(i, chunk), sink);
    }
    session->Finish(sink);
    traffic.states = t.cache_states();
    traffic.bytes = t.cache_bytes();
    traffic.fallback = session->fallback_active();
    traffic.hits = obs::AttributionTable::Default().dfa_cache_hits();
    traffic.misses = obs::AttributionTable::Default().dfa_cache_misses();
    return traffic;
  };
  obs::AttributionTable::set_enabled(true);
  // The reachable set: what a cold scan in short chunks interns.
  size_t reach = 0;
  {
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    LazyDfaSession session = t->NewSession();
    const CacheTraffic cold = scan(*t, &session, kSlice);
    ASSERT_FALSE(cold.fallback);
    reach = cold.bytes;
  }
  bool fell_back = false;
  for (const size_t cap :
       {reach + 1024, reach, reach / 2, reach / 3, reach / 6}) {
    SCOPED_TRACE("cap " + std::to_string(cap) + " of reachable " +
                 std::to_string(reach));
    opt.dfa_cache_bytes = cap;
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    const LazyDfaTagger other = ColdCopy(*t);
    LazyDfaSession whole = t->NewSession();
    LazyDfaSession chunked = other.NewSession();
    for (const char* pass : {"cold", "warm"}) {
      SCOPED_TRACE(pass);
      const CacheTraffic a = scan(*t, &whole, input.size());
      const CacheTraffic b = scan(other, &chunked, kSlice);
      ExpectSameTags(b.tags, a.tags);
      EXPECT_EQ(a.states, b.states);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.fallback, b.fallback);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.misses, b.misses);
      if (cap >= reach) {
        EXPECT_FALSE(a.fallback);
      }
      fell_back |= a.fallback;
    }
  }
  obs::AttributionTable::set_enabled(false);
  EXPECT_TRUE(fell_back);
}

// Bytes every idle skip has jumped so far, per label (kind and strategy).
std::vector<uint64_t> SkipLabels() {
  std::vector<uint64_t> labels;
  for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
    for (int s = 0; s < kNumSkipStrategies; ++s) {
      labels.push_back(SkipMetrics::Get().counters[k][s]->Value());
    }
  }
  return labels;
}

// A lane takes the step of a one-byte idle run itself only when the byte
// after lies in its slice; any other run leaves the lockstep for the per-byte
// path, which may skip on past the slice's end. Idle runs of 1 to 4 bytes of
// each kind end on and around every slice's last byte, so one-byte runs fall
// on a slice's last and next-to-last bytes, on a chunk's last byte (fed in
// superblock-sized chunks, a chunk's superblock ends where the chunk does),
// and longer runs straddle those ends. Cold and warm, fed whole and in
// chunks, a session must deliver the oracle's tags, consume every byte but
// the pending one and jump the same bytes per skip label as the fallback
// configuration, which takes every skip on the per-byte path.
TEST(LazyDfaKWayTest, OneByteRunsAtSliceEdgesMatchOracle) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  // Per arm mode, the idle runs of two kinds: the bytes before the run, its
  // byte, and the byte that ends it.
  struct Run {
    const char* before;
    char idle;
    char after;
  };
  struct Mode {
    ArmMode mode;
    Run runs[2];
  };
  const Mode modes[] = {
      {ArmMode::kResync, {{"abc", ' ', '9'}, {"12 ", '?', ' '}}},
      {ArmMode::kScan, {{"abc", ' ', '9'}, {"abc", '#', '9'}}},
  };
  for (const Mode& mode : modes) {
    TaggerOptions opt;
    opt.arm_mode = mode.mode;
    // One run of n idle bytes per edge e * kSlice, its last idle byte d
    // bytes past it. Fed whole, byte e * kSlice is a slice's last; fed in
    // chunks, byte e * kSlice - 1 is.
    std::string input;
    size_t edge = 2;
    for (const Run& run : mode.runs) {
      for (size_t n = 1; n <= 4; ++n) {
        for (int d = -3; d <= 1; ++d, ++edge) {
          const std::string pattern =
              run.before + std::string(n, run.idle) + run.after;
          const size_t last = edge * kSlice + d;
          while (input.size() < last + 40) input += " 12+34 abc 7*8";
          input.replace(last + 1 - n - std::strlen(run.before),
                        pattern.size(), pattern);
        }
      }
    }
    while (input.size() < (edge + 1) * kSlice) input += " 12+34 abc 7*8";
    input.resize((edge + 1) * kSlice);
    const auto want = testing_oracle::OracleTags(g, opt, input);
    ASSERT_TRUE(want.ok()) << want.status();
    std::string stream = input;
    stream.append(core::CompiledTagger::kFlushPadding + 1,
                  core::CompiledTagger::kFlushByte);
    const uint64_t scan_end =
        input.size() + core::CompiledTagger::kFlushPadding;
    // One scan of the stream in `chunk`-byte pieces: its tags before the
    // scan end, bytes consumed before Finish and skips per label.
    struct Scan {
      std::vector<Tag> tags;
      uint64_t consumed;
      std::vector<uint64_t> jumped;
    };
    const auto scan = [&](LazyDfaSession* session, size_t chunk) {
      Scan out;
      const TagSink sink = [&](const Tag& tag) {
        if (tag.end < scan_end) out.tags.push_back(tag);
        return true;
      };
      const std::vector<uint64_t> before = SkipLabels();
      session->Reset();
      for (size_t i = 0; i < stream.size(); i += chunk) {
        session->Feed(std::string_view(stream).substr(i, chunk), sink);
      }
      out.consumed = session->bytes_consumed();
      session->Finish(sink);
      out.jumped = SkipLabels();
      for (size_t k = 0; k < before.size(); ++k) out.jumped[k] -= before[k];
      return out;
    };
    const std::vector<TaggerOptions> configs = CachedAndFallback(opt);
    auto cached = LazyDfaTagger::Create(&g, configs[0]);
    ASSERT_TRUE(cached.ok()) << cached.status();
    auto fallback = LazyDfaTagger::Create(&g, configs[1]);
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    for (const size_t chunk : {stream.size(), kBlock}) {
      // A skip also stops at a chunk's end, so the reference is fed in the
      // same chunks.
      LazyDfaSession reference = fallback->NewSession();
      const Scan ref = scan(&reference, chunk);
      ASSERT_TRUE(reference.fallback_active());
      ExpectSameTags(*want, ref.tags);
      const LazyDfaTagger cold = ColdCopy(*cached);
      LazyDfaSession session = cold.NewSession();
      for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(std::string(pass) + " chunk " + std::to_string(chunk));
        const Scan got = scan(&session, chunk);
        EXPECT_FALSE(session.fallback_active());
        ExpectSameTags(*want, got.tags);
        EXPECT_EQ(got.consumed, stream.size() - 1);
        EXPECT_EQ(got.jumped, ref.jumped);
      }
    }
  }
}

// A unit shorter than a superblock runs on the one-lane walk, whose pass 1
// walks at most 32 bytes before pass 2 replays them. It takes the step of a
// one-byte idle run itself only when the byte after lies in its window; any
// other run leaves for the per-byte path, which may skip on past the window.
// Warm, a unit's first window starts at byte 1 (byte 0 leaves the
// stream-start state), or later after a run the walk left on. Idle runs of 1
// to 4 bytes of each kind end on every byte from 24 to 40, so they fall on
// and around a window's bytes 31, 32 and 33, and a second run ends on the
// unit's last byte. Fed whole and in 7-byte chunks, cold and warm, with the
// sink stopping at every tag, a cached session must deliver the tags, the
// consumed count and the skip bytes per label of the fallback
// configuration, which takes every skip on the per-byte path.
TEST(LazyDfaTaggerTest, OneByteRunsAtWindowEdgesMatchFallback) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  // Per kind, SkipCases style: the arm mode, the bytes before the run, its
  // byte and the bytes after it.
  struct Run {
    ArmMode mode;
    const char* before;
    char idle;
    const char* after;
  };
  const Run runs[] = {
      {ArmMode::kResync, "abc", ' ', "9*9"},      // delimiter
      {ArmMode::kResync, "12+34 ", '?', " xy"},   // resync
      {ArmMode::kScan, "abc", '#', "9*9"},        // armed
      {ArmMode::kAnchored, "12+34 ", 'z', " "},  // anchored
  };
  // One scan of `unit` in `chunk`-byte pieces from a reset, stopping once
  // `limit` tags were delivered (never when 0).
  struct Scan {
    std::vector<Tag> tags;
    uint64_t consumed;
    std::vector<uint64_t> jumped;
  };
  const auto scan = [](LazyDfaSession* session, const std::string& unit,
                       size_t chunk, size_t limit) {
    Scan out;
    const TagSink sink = [&](const Tag& tag) {
      out.tags.push_back(tag);
      return limit == 0 || out.tags.size() < limit;
    };
    const std::vector<uint64_t> before = SkipLabels();
    session->Reset();
    for (size_t i = 0; i < unit.size(); i += chunk) {
      session->Feed(std::string_view(unit).substr(i, chunk), sink);
    }
    out.consumed = session->bytes_consumed();
    session->Finish(sink);
    out.jumped = SkipLabels();
    for (size_t k = 0; k < before.size(); ++k) out.jumped[k] -= before[k];
    return out;
  };
  const auto expect_same = [](const Scan& got, const Scan& want) {
    ExpectSameTags(want.tags, got.tags);
    EXPECT_EQ(got.consumed, want.consumed);
    EXPECT_EQ(got.jumped, want.jumped);
  };
  for (const Run& run : runs) {
    TaggerOptions opt;
    opt.arm_mode = run.mode;
    const std::vector<TaggerOptions> configs = CachedAndFallback(opt);
    auto cached = LazyDfaTagger::Create(&g, configs[0]);
    ASSERT_TRUE(cached.ok()) << cached.status();
    auto fallback = LazyDfaTagger::Create(&g, configs[1]);
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    LazyDfaSession warm = cached->NewSession();
    for (size_t n = 1; n <= 4; ++n) {
      const std::string idle(n, run.idle);
      for (size_t last = 24; last <= 40; ++last) {
        const std::string pattern = run.before + idle + run.after;
        std::string unit;
        while (unit.size() < last + 24) unit += " 12+34 abc 7*8";
        unit.replace(last + 1 - n - std::strlen(run.before), pattern.size(),
                     pattern);
        unit.resize(last + 24);
        unit += run.before + idle;
        ExpectSameTags(Functional(g, opt, unit), cached->TagAll(unit));
        scan(&warm, unit, unit.size(), 0);
        for (const size_t chunk : {unit.size(), size_t{7}}) {
          SCOPED_TRACE("mode " + std::to_string(static_cast<int>(run.mode)) +
                       " unit '" + unit + "' chunk " + std::to_string(chunk));
          LazyDfaSession reference = fallback->NewSession();
          const Scan all = scan(&reference, unit, chunk, 0);
          ASSERT_TRUE(reference.fallback_active());
          for (size_t limit = 0; limit <= all.tags.size(); ++limit) {
            SCOPED_TRACE("limit " + std::to_string(limit));
            const Scan want = scan(&reference, unit, chunk, limit);
            const LazyDfaTagger cold_table = ColdCopy(*cached);
            LazyDfaSession cold = cold_table.NewSession();
            expect_same(scan(&cold, unit, chunk, limit), want);
            expect_same(scan(&warm, unit, chunk, limit), want);
            EXPECT_FALSE(warm.fallback_active());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cfgtag::tagger
