// AttributionTable semantics plus the end-to-end contract: with the
// process-wide switch on, lazy-DFA sessions merge exact per-token match
// counts into the default table when they finish (and CompiledTagger::Tag
// before it returns) — stepping out of the
// transition cache and in fallback alike — and the table mirrors rows
// into the default MetricsRegistry as labeled counters.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "grammar/grammar_parser.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "tagger/lazy_dfa.h"
#include "tagger/skip_scan.h"

namespace cfgtag::obs {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

const char kCalcGrammar[] =
    "NUM [0-9]+\nWORD [a-z]+\nOP [-+*/]\n%%\ns: NUM OP NUM | WORD;\n%%\n";

// The two ways a lazy-DFA session steps: out of its transition cache, and
// (no cache at all) falling back to uncached fused steps at its first
// miss.
std::vector<tagger::TaggerOptions> CachedAndFallback() {
  tagger::TaggerOptions uncached;
  uncached.dfa_cache_bytes = 0;
  return {tagger::TaggerOptions{}, uncached};
}

// Hits per token name in the default table.
std::map<std::string, uint64_t> TokenHits() {
  std::map<std::string, uint64_t> hits;
  for (const AttributionTable::Row& row :
       AttributionTable::Default().RankedTokens()) {
    hits[row.name] = row.hits;
  }
  return hits;
}

// What exact attribution must report for `tags`: one hit per emitted tag.
std::map<std::string, uint64_t> CountTags(const grammar::Grammar& g,
                                          const std::vector<tagger::Tag>& tags) {
  std::map<std::string, uint64_t> hits;
  for (const tagger::Tag& tag : tags) {
    ++hits[g.tokens()[static_cast<size_t>(tag.token)].name];
  }
  return hits;
}

// The switch is process-global; every test here restores the off default
// and clears the shared table so tests compose in any order.
class AttributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AttributionTable::set_enabled(false);
    AttributionTable::Default().Clear();
  }
  void TearDown() override {
    AttributionTable::set_enabled(false);
    AttributionTable::Default().Clear();
  }
};

TEST_F(AttributionTest, RowsAccumulateAndRankByHits) {
  AttributionTable table;
  table.AddToken("NUM", 3);
  table.AddToken("WORD", 5);
  table.AddToken("NUM", 4);
  const std::vector<AttributionTable::Row> ranked = table.RankedTokens();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "NUM");
  EXPECT_EQ(ranked[0].hits, 7u);
  EXPECT_EQ(ranked[1].name, "WORD");
}

TEST_F(AttributionTest, ZeroDeltasCreateNoRows) {
  AttributionTable table;
  table.AddToken("NUM", 0);
  table.AddRule("r1", 0);
  EXPECT_TRUE(table.RankedTokens().empty());
  EXPECT_TRUE(table.RankedRules().empty());
}

TEST_F(AttributionTest, DfaCacheTotalsAccumulate) {
  AttributionTable table;
  table.AddDfaCache(10, 2);
  table.AddDfaCache(5, 1);
  EXPECT_EQ(table.dfa_cache_hits(), 15u);
  EXPECT_EQ(table.dfa_cache_misses(), 3u);
}

TEST_F(AttributionTest, ToJsonRanksAllSections) {
  AttributionTable table;
  table.AddToken("NUM", 7);
  table.AddRule("sql-injection", 2);
  table.AddService("deposit", 9);
  table.AddDfaCache(4, 1);
  const std::string json = table.ToJson();
  EXPECT_NE(json.find("\"tokens\""), std::string::npos);
  EXPECT_NE(json.find("\"NUM\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"sql-injection\""), std::string::npos);
  EXPECT_NE(json.find("\"services\""), std::string::npos);
  EXPECT_NE(json.find("\"deposit\""), std::string::npos);
  EXPECT_NE(json.find("\"dfa_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
}

TEST_F(AttributionTest, DefaultTableMirrorsIntoTheMetricsRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter* matches = reg.GetCounter(
      "cfgtag_attr_token_matches_total{token=\"MIRROR_TOKEN\"}");
  const uint64_t before = matches->Value();
  AttributionTable::Default().AddToken("MIRROR_TOKEN", 6);
  EXPECT_EQ(matches->Value(), before + 6);
}

TEST_F(AttributionTest, LazyDfaEngineAttributesExactMatchesPerToken) {
  const grammar::Grammar g = MustParse(kCalcGrammar);
  for (const tagger::TaggerOptions& opt : CachedAndFallback()) {
    AttributionTable::Default().Clear();
    auto lazy = tagger::LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    AttributionTable::set_enabled(true);
    // Two scans: the second runs warm out of the pooled session's cache
    // (or, in fallback, stays uncached).
    std::vector<tagger::Tag> tags = lazy->TagAll("12+34");
    const std::vector<tagger::Tag> more = lazy->TagAll("56*78 9");
    tags.insert(tags.end(), more.begin(), more.end());
    AttributionTable::set_enabled(false);
    ASSERT_FALSE(tags.empty());
    EXPECT_EQ(TokenHits(), CountTags(g, tags))
        << "dfa_cache_bytes=" << opt.dfa_cache_bytes;
  }
}

TEST_F(AttributionTest, LazyDfaEngineCountsNothingWhenDisabled) {
  const grammar::Grammar g = MustParse(kCalcGrammar);
  for (const tagger::TaggerOptions& opt : CachedAndFallback()) {
    auto lazy = tagger::LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    EXPECT_FALSE(lazy->TagAll("12+34").empty());
    EXPECT_TRUE(AttributionTable::Default().RankedTokens().empty());
  }
}

TEST_F(AttributionTest, LazyDfaEngineAttributesMatchesAndCacheTraffic) {
  const grammar::Grammar g = MustParse(kCalcGrammar);
  auto lazy = tagger::LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(lazy.ok()) << lazy.status();

  AttributionTable::set_enabled(true);
  // Two passes over the same input: the first builds DFA transitions
  // (misses), the second replays them (hits).
  lazy->TagAll("12+34");
  lazy->TagAll("12+34");

  AttributionTable& table = AttributionTable::Default();
  uint64_t num_hits = 0;
  for (const AttributionTable::Row& row : table.RankedTokens()) {
    if (row.name == "NUM") num_hits = row.hits;
  }
  EXPECT_GT(num_hits, 0u);
  EXPECT_GT(table.dfa_cache_misses(), 0u);
  EXPECT_GT(table.dfa_cache_hits(), 0u);
}

// Bytes the idle skips have jumped over so far, over all kinds and
// strategies.
uint64_t SkippedBytes() {
  uint64_t total = 0;
  for (const auto& kind : tagger::SkipMetrics::Get().counters) {
    for (const Counter* c : kind) total += c->Value();
  }
  return total;
}

// The cached loop derives its hits from the bytes it stepped: every byte
// of a scan is either jumped by an idle skip or looked up once, as a hit
// or a miss. A cold scan and a warm one both balance, on a short stream
// and on one long enough for the speculative lanes, whose bytes walked
// again from the true state count once.
TEST_F(AttributionTest, LazyDfaCacheTrafficCoversEverySteppedByte) {
  const grammar::Grammar g = MustParse(kCalcGrammar);
  tagger::TaggerOptions opt;
  opt.arm_mode = tagger::ArmMode::kResync;
  std::string input(600, ' ');
  input.replace(100, 13, "12+34 junk 7*");
  input.replace(300, 20, "?????????? abc 5-5  ");
  input += "99/3 xyz";
  std::string kway;
  while (kway.size() < tagger::LazyDfaSession::kLanes *
                           tagger::LazyDfaSession::kSliceBytes * 5 / 4) {
    kway += input;
  }
  AttributionTable::set_enabled(true);
  for (const std::string* in : {&input, &kway}) {
    auto lazy = tagger::LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    for (const char* scan : {"cold", "warm"}) {
      SCOPED_TRACE(std::string(scan) + " " + std::to_string(in->size()));
      AttributionTable::Default().Clear();
      const uint64_t skipped_before = SkippedBytes();
      const std::vector<tagger::Tag> tags = lazy->TagAll(*in);
      const uint64_t skipped = SkippedBytes() - skipped_before;
      const AttributionTable& table = AttributionTable::Default();
      EXPECT_GT(skipped, 0u);
      EXPECT_GT(table.dfa_cache_hits(), 0u);
      EXPECT_EQ(table.dfa_cache_hits() + table.dfa_cache_misses(),
                in->size() - skipped);
      EXPECT_EQ(TokenHits(), CountTags(g, tags));
    }
    EXPECT_EQ(AttributionTable::Default().dfa_cache_misses(), 0u);
  }
  AttributionTable::set_enabled(false);
}

TEST_F(AttributionTest, EnableTakesEffectAtNextSessionReset) {
  const grammar::Grammar g = MustParse(kCalcGrammar);
  for (const tagger::TaggerOptions& opt : CachedAndFallback()) {
    AttributionTable::Default().Clear();
    auto lazy = tagger::LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    tagger::LazyDfaSession session = lazy->NewSession();
    std::vector<tagger::Tag> tags;
    const tagger::TagSink sink = [&tags](const tagger::Tag& tag) {
      tags.push_back(tag);
      return true;
    };
    // The session sampled the switch (off) when it was created: enabling
    // mid-stream changes nothing for this scan.
    AttributionTable::set_enabled(true);
    session.Feed("12+34", sink);
    session.Finish(sink);
    EXPECT_FALSE(tags.empty());
    EXPECT_TRUE(AttributionTable::Default().RankedTokens().empty());
    // The next Reset samples it on, and counts exactly that scan.
    tags.clear();
    session.Reset();
    session.Feed("56*78", sink);
    session.Finish(sink);
    AttributionTable::set_enabled(false);
    EXPECT_EQ(TokenHits(), CountTags(g, tags))
        << "dfa_cache_bytes=" << opt.dfa_cache_bytes;
  }
}

// CompiledTagger::Tag never finishes its stream (the padding's last byte
// stays pending), yet a call's attribution is in the table when it
// returns, on a fresh session and on a reused one.
TEST_F(AttributionTest, CompiledTagCountsAreInTheTableOnReturn) {
  AttributionTable::set_enabled(true);
  auto compiled = core::CompiledTagger::Compile(MustParse(kCalcGrammar));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  for (const char* input : {"12+34", "56*78"}) {
    AttributionTable::Default().Clear();
    const std::vector<tagger::Tag> tags = compiled->Tag(input);
    EXPECT_FALSE(tags.empty());
    EXPECT_EQ(TokenHits(), CountTags(compiled->grammar(), tags)) << input;
  }
  AttributionTable::set_enabled(false);
}

}  // namespace
}  // namespace cfgtag::obs
