#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "reference/functional_model.h"
#include "reference/ll_parser.h"
#include "tagger/naive_matcher.h"
#include "tagger/simd/dispatch.h"

namespace cfgtag::tagger {
namespace {

using grammar::ParseGrammar;

grammar::Grammar MustParse(const std::string& text) {
  auto g = ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<std::pair<std::string, uint64_t>> Render(
    const grammar::Grammar& g, const std::vector<Tag>& tags) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const Tag& t : tags) out.emplace_back(g.tokens()[t.token].name, t.end);
  return out;
}

// --------------------------------------------------- FunctionalTagger

TEST(FunctionalTaggerTest, ArmSurvivesDelimiterRun) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\" \"cd\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok()) << t.status();
  // Arms must survive an arbitrarily long run of delimiters.
  auto tags = t->TagAll("ab    \t\n  cd");
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[1].end, 11u);
}

TEST(FunctionalTaggerTest, AdjacentTokensChain) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\" \"cd\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  auto tags = t->TagAll("abcd");
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].end, 1u);
  EXPECT_EQ(tags[1].end, 3u);
}

TEST(FunctionalTaggerTest, ArmConsumedByGarbageByte) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\" \"cd\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  // 'x' consumes the arm for "cd"; the later "cd" is not armed anymore.
  auto tags = t->TagAll("ab x cd");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 1u);
}

TEST(FunctionalTaggerTest, TokensNeverStartOnDelimiter) {
  // A token whose class includes space must still not *start* on one.
  grammar::Grammar g = MustParse("TXT [a-z ]+\n%%\ns: TXT;\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  auto tags = t->TagAll("  ab cd");
  // One TXT covering "ab cd" (interior space consumed by the class).
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 6u);
}

TEST(FunctionalTaggerTest, AnchoredVsScanMode) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  TaggerOptions anchored;
  TaggerOptions scan;
  scan.arm_mode = ArmMode::kScan;

  grammar::Grammar g2 = g.Clone();
  auto t_anchored = FunctionalTagger::Create(&g, anchored);
  auto t_scan = FunctionalTagger::Create(&g2, scan);
  ASSERT_TRUE(t_anchored.ok());
  ASSERT_TRUE(t_scan.ok());

  // "xx ab": anchored mode consumed its arm on 'x'; scan mode re-arms at
  // every byte and still finds "ab".
  EXPECT_TRUE(t_anchored->TagAll("xx ab").empty());
  auto tags = t_scan->TagAll("xx ab");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 4u);
}

TEST(FunctionalTaggerTest, ScanModeFindsEveryAlignment) {
  grammar::Grammar g = MustParse("%%\ns: \"aa\";\n%%\n");
  TaggerOptions scan;
  scan.arm_mode = ArmMode::kScan;
  auto t = FunctionalTagger::Create(&g, scan);
  ASSERT_TRUE(t.ok());
  // "aaaa": matches end at offsets 1,2,3 (every alignment, §3.3).
  auto tags = t->TagAll("aaaa");
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0].end, 1u);
  EXPECT_EQ(tags[1].end, 2u);
  EXPECT_EQ(tags[2].end, 3u);
}

TEST(FunctionalTaggerTest, LongestMatchSuppresssIntermediate) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM;\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  auto tags = t->TagAll("1234 ");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 3u);
}

TEST(FunctionalTaggerTest, LongestMatchOffReportsEveryDetection) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM;\n%%\n");
  TaggerOptions opt;
  opt.longest_match = false;
  auto t = FunctionalTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok());
  // Fig. 6d without the Fig. 7 fix: detection at every cycle of the run.
  auto tags = t->TagAll("1234 ");
  ASSERT_EQ(tags.size(), 4u);
}

TEST(FunctionalTaggerTest, FollowArmingIsPerToken) {
  grammar::Grammar g = MustParse(R"(
%%
s: "a" "x" | "b" "y";
%%
)");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  // After "a" only "x" is armed, not "y".
  EXPECT_EQ(t->TagAll("a y").size(), 1u);
  EXPECT_EQ(t->TagAll("a x").size(), 2u);
  EXPECT_EQ(t->TagAll("b y").size(), 2u);
}

TEST(FunctionalTaggerTest, SupersetBehaviourOnCollapsedRecursion) {
  // Balanced parentheses (paper Fig. 1/2): the collapsed FSA accepts
  // unbalanced strings a true parser rejects.
  grammar::Grammar g = MustParse(R"grm(
%%
e: "(" e ")" | "0";
%%
)grm");
  grammar::Grammar g2 = g.Clone();
  auto hw = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(hw.ok());
  auto parser = PredictiveParser::Create(&g2, {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  // Balanced: both agree, tags match 1:1.
  const std::string balanced = "((0))";
  auto ll = parser->Parse(balanced);
  ASSERT_TRUE(ll.ok());
  auto fsa = hw->TagAll(balanced);
  ASSERT_EQ(fsa.size(), ll->size());

  // Unbalanced: the true parser rejects, the FSA happily tags every token
  // (state collapse, §3.1).
  const std::string unbalanced = "((0)";
  EXPECT_FALSE(parser->Accepts(unbalanced));
  EXPECT_EQ(hw->TagAll(unbalanced).size(), 4u);
}

TEST(FunctionalTaggerTest, SinkEarlyStop) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  int count = 0;
  t->Run("a b c", [&](const Tag&) { return ++count < 2; });
  EXPECT_EQ(count, 2);
}

TEST(FunctionalTaggerTest, TotalPositionsMatchesPatternBytes) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<a>\" NUM;\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->TotalPositions(), 4u);
  EXPECT_EQ(t->TotalPositions(), g.PatternBytes());
}

TEST(FunctionalTaggerTest, CustomDelimiters) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\" \"cd\";\n%%\n");
  TaggerOptions opt;
  opt.delimiters = regex::CharClass::Of(',');
  auto t = FunctionalTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->TagAll("ab,,cd").size(), 2u);
  // Space is now a normal byte: it consumes the arm.
  EXPECT_EQ(t->TagAll("ab cd").size(), 1u);
}

// -------------------------------------------------------- NaiveMatcher

TEST(NaiveMatcherTest, FindsAllOccurrences) {
  NaiveMatcher m({"he", "she", "his", "hers"});
  auto tags = m.Matches("ushers");
  // Classic Aho-Corasick example: she@3, he@3, hers@5.
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0].token, 1);  // she
  EXPECT_EQ(tags[0].end, 3u);
  EXPECT_EQ(tags[1].token, 0);  // he
  EXPECT_EQ(tags[1].end, 3u);
  EXPECT_EQ(tags[2].token, 3);  // hers
  EXPECT_EQ(tags[2].end, 5u);
}

TEST(NaiveMatcherTest, OverlappingAndRepeated) {
  NaiveMatcher m({"aa"});
  auto tags = m.Matches("aaaa");
  ASSERT_EQ(tags.size(), 3u);
}

TEST(NaiveMatcherTest, AgreesWithBruteForceOnRandomInput) {
  Rng rng(99);
  const std::vector<std::string> patterns = {"ab", "abc", "ba", "aaa", "cb"};
  NaiveMatcher m(patterns);
  for (int round = 0; round < 20; ++round) {
    const std::string s = rng.NextString(50, "abc");
    std::vector<Tag> expected;
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t p = 0; p < patterns.size(); ++p) {
        const std::string& pat = patterns[p];
        if (i + 1 >= pat.size() &&
            s.compare(i + 1 - pat.size(), pat.size(), pat) == 0) {
          Tag t;
          t.token = static_cast<int32_t>(p);
          t.end = i;
          expected.push_back(t);
        }
      }
    }
    auto got = m.Matches(s);
    // Same multiset of (token, end).
    auto key = [](const Tag& t) { return std::pair(t.end, t.token); };
    std::sort(got.begin(), got.end(),
              [&](auto& a, auto& b) { return key(a) < key(b); });
    std::sort(expected.begin(), expected.end(),
              [&](auto& a, auto& b) { return key(a) < key(b); });
    ASSERT_EQ(got.size(), expected.size()) << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i]) << s;
    }
  }
}

TEST(NaiveMatcherTest, EarlyStopScan) {
  NaiveMatcher m({"a"});
  int seen = 0;
  m.Scan("aaaa", [&](int32_t, uint64_t) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
}

using Match = std::pair<int32_t, uint64_t>;  // (pattern, end)

// Every occurrence by brute-force substring search, in Aho–Corasick report
// order: by end offset, then longest pattern first (the node before its
// failure chain), then pattern index (duplicates share a node).
std::vector<Match> BruteForceMatches(const std::vector<std::string>& patterns,
                                     const std::string& s) {
  std::vector<Match> out;
  for (size_t i = 0; i < s.size(); ++i) {
    std::vector<int32_t> here;
    for (size_t p = 0; p < patterns.size(); ++p) {
      const std::string& pat = patterns[p];
      if (!pat.empty() && i + 1 >= pat.size() &&
          s.compare(i + 1 - pat.size(), pat.size(), pat) == 0) {
        here.push_back(static_cast<int32_t>(p));
      }
    }
    std::stable_sort(here.begin(), here.end(), [&](int32_t a, int32_t b) {
      return patterns[a].size() > patterns[b].size();
    });
    for (int32_t p : here) out.emplace_back(p, i);
  }
  return out;
}

std::vector<Match> Stepped(const NaiveMatcher& m, const std::string& s) {
  std::vector<Match> out;
  m.ScanWith(s, [&](int32_t p, uint64_t end) {
    out.emplace_back(p, end);
    return true;
  });
  return out;
}

std::vector<Match> Skipped(const NaiveMatcher& m, const std::string& s) {
  std::vector<Match> out;
  m.SkipScanWith(s, [&](int32_t p, uint64_t end) {
    out.emplace_back(p, end);
    return true;
  });
  return out;
}

std::vector<simd::Isa> AvailableIsas() {
  std::vector<simd::Isa> isas;
  for (int i = 0; i < simd::kNumIsas; ++i) {
    const simd::Isa isa = static_cast<simd::Isa>(i);
    if (simd::IsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(NaiveMatcherTest, DifferentialAgainstBruteForceOnEveryIsa) {
  Rng rng(2024);
  // A small pattern alphabet with NUL and high bytes; inputs add bytes no
  // pattern uses, so the root skip has runs to jump over.
  const std::string pattern_alphabet("ab\0\x80\xff", 5);
  const std::string input_alphabet = pattern_alphabet + "zzzz\x7f";
  const size_t kLengths[] = {0,  1,  2,  15, 16, 17, 31, 32,
                             33, 47, 48, 63, 64, 65, 100, 257};
  for (int round = 0; round < 60; ++round) {
    std::vector<std::string> patterns;
    const size_t n = rng.NextIndex(9);
    for (size_t k = 0; k < n; ++k) {
      const size_t kind = rng.NextIndex(4);
      if (kind == 0 && !patterns.empty()) {
        // A duplicate, a prefix-sharing extension or a suffix of an
        // earlier pattern.
        const std::string& base = patterns[rng.NextIndex(patterns.size())];
        const size_t pick = rng.NextIndex(3);
        if (pick == 0) {
          patterns.push_back(base);
        } else if (pick == 1) {
          patterns.push_back(base + rng.NextString(1 + rng.NextIndex(2),
                                                   pattern_alphabet));
        } else {
          patterns.push_back(base.substr(rng.NextIndex(base.size())));
        }
      } else {
        patterns.push_back(
            rng.NextString(1 + rng.NextIndex(4), pattern_alphabet));
      }
    }
    const NaiveMatcher m(patterns);
    ASSERT_EQ(m.NumPatterns(), patterns.size());
    for (size_t len : kLengths) {
      const std::string s = rng.NextString(len, input_alphabet);
      const std::vector<Match> want = BruteForceMatches(patterns, s);
      ASSERT_EQ(Stepped(m, s), want) << "round " << round << " len " << len;
      for (simd::Isa isa : AvailableIsas()) {
        simd::ForceIsa(isa);
        EXPECT_EQ(Skipped(m, s), want)
            << "round " << round << " len " << len << " isa "
            << simd::IsaName(isa);
      }
      simd::ClearForcedIsa();
    }
  }
}

TEST(NaiveMatcherTest, EmptyPatternSetMatchesNothing) {
  const NaiveMatcher m({});
  EXPECT_EQ(m.NumPatterns(), 0u);
  const std::string s(100, 'a');
  EXPECT_TRUE(Stepped(m, s).empty());
  EXPECT_TRUE(Skipped(m, s).empty());
  EXPECT_TRUE(m.Matches(s).empty());
}

TEST(NaiveMatcherTest, CallbackStopsInsideSkipRun) {
  const NaiveMatcher m({"x", "xy"});
  // Matches sit after long runs the root skip jumps over.
  const std::string s = std::string(40, '.') + "xy" + std::string(40, '.') +
                        "x" + std::string(70, '.') + "x";
  for (simd::Isa isa : AvailableIsas()) {
    simd::ForceIsa(isa);
    for (int stop_at = 1; stop_at <= 4; ++stop_at) {
      std::vector<Match> seen;
      m.SkipScanWith(s, [&](int32_t p, uint64_t end) {
        seen.emplace_back(p, end);
        return static_cast<int>(seen.size()) < stop_at;
      });
      const std::vector<Match> all = {{0, 40}, {1, 41}, {0, 82}, {0, 153}};
      EXPECT_EQ(seen, std::vector<Match>(all.begin(), all.begin() + stop_at))
          << simd::IsaName(isa);
    }
  }
  simd::ClearForcedIsa();
}

TEST(NaiveMatcherTest, CreateRejectsTablesThatOverflowTheEntries) {
  // 257 classes (every byte value used, plus class 0) x 8.4 M pattern
  // bytes exceeds the 31-bit premultiplied offsets.
  std::string big(8'400'000, 'a');
  for (int b = 0; b < 256; ++b) big[b] = static_cast<char>(b);
  const auto m = NaiveMatcher::Create({big});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(NaiveMatcher::Create({"fits"}).ok());
}

// ----------------------------------------------------- PredictiveParser

TEST(PredictiveParserTest, TagsCarryLengths) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto p = PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok()) << p.status();
  auto tags = p->Parse("<n>123</n>");
  ASSERT_TRUE(tags.ok()) << tags.status();
  ASSERT_EQ(tags->size(), 3u);
  EXPECT_EQ((*tags)[1].length, 3u);
  EXPECT_EQ((*tags)[1].end, 5u);
}

TEST(PredictiveParserTest, RejectsNonLl1Grammar) {
  // Classic left-factoring conflict: both alternatives start with "a".
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" | \"a\" \"c\";\n%%\n");
  auto p = PredictiveParser::Create(&g, {});
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PredictiveParserTest, ReportsParseErrors) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\";\n%%\n");
  auto p = PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->Accepts("a"));
  EXPECT_FALSE(p->Accepts("b"));
  EXPECT_FALSE(p->Accepts("a b extra"));
  EXPECT_FALSE(p->Accepts(""));
  EXPECT_TRUE(p->Accepts(" a  b "));
}

TEST(PredictiveParserTest, EpsilonProductionsViaFollow) {
  grammar::Grammar g = MustParse(R"(
%%
list: | "x" list;
%%
)");
  auto p = PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->Accepts(""));
  EXPECT_TRUE(p->Accepts("x"));
  EXPECT_TRUE(p->Accepts("x x x"));
}

TEST(PredictiveParserTest, MaximalMunchLexing) {
  grammar::Grammar g = MustParse(R"(
NUM [0-9]+
%%
s: NUM "+" NUM;
%%
)");
  auto p = PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok());
  auto tags = p->Parse("12+345");
  ASSERT_TRUE(tags.ok()) << tags.status();
  ASSERT_EQ(tags->size(), 3u);
  EXPECT_EQ((*tags)[0].length, 2u);
  EXPECT_EQ((*tags)[2].length, 3u);
}

TEST(PredictiveParserTest, KeywordVsIdentifierTieBreak) {
  // "if" (lower token id, declared first) wins a longest-match tie against
  // WORD; longer identifiers still lex as WORD.
  grammar::Grammar g = MustParse(R"(
KW_IF "if"
WORD [a-z]+
%%
s: stmt;
stmt: KW_IF WORD | WORD;
%%
)");
  auto p = PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok()) << p.status();
  auto tags = p->Parse("if x");
  ASSERT_TRUE(tags.ok()) << tags.status();
  EXPECT_EQ(Render(g, *tags)[0].first, "KW_IF");
  auto tags2 = p->Parse("iffy");
  ASSERT_TRUE(tags2.ok()) << tags2.status();
  EXPECT_EQ(Render(g, *tags2)[0].first, "WORD");
}

}  // namespace
}  // namespace cfgtag::tagger
