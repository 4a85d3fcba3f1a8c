// The fused tables: byte-class compression, the table shapes Create
// builds, and the step they define. The step is checked tag for tag
// against the FunctionalTagger reference through the only streaming loop,
// the lazy DFA, configured to fall back at its first miss so that every
// byte after it is one uncached fused step (FusedSession::ProcessClass).
// The cached side is covered by tagger_lazy_dfa_test and the fuzzer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "grammar/grammar.h"
#include "grammar/grammar_parser.h"
#include "reference/functional_model.h"
#include "tagger/byte_classes.h"
#include "tagger/fused_model.h"
#include "tagger/lazy_dfa.h"

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

// `opt` with no transition cache: a session falls back to uncached fused
// steps at its first miss and stays there.
TaggerOptions FusedSteps(TaggerOptions opt) {
  opt.dfa_cache_bytes = 0;
  return opt;
}

// Feeds `input` through a fresh fallback session in `chunk`-byte pieces
// (whole when 0), stopping once `limit` tags were delivered (never when 0).
// A non-empty input must have put the session into fallback, and a run
// with no limit must have consumed every byte.
std::vector<Tag> Fused(const LazyDfaTagger& t, std::string_view input,
                       size_t chunk = 0, size_t limit = 0) {
  std::vector<Tag> tags;
  LazyDfaSession session = t.NewSession();
  const TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return limit == 0 || tags.size() < limit;
  };
  if (chunk == 0) chunk = input.size() + 1;
  for (size_t i = 0; i < input.size(); i += chunk) {
    session.Feed(input.substr(i, chunk), sink);
  }
  session.Finish(sink);
  if (limit == 0) {
    EXPECT_EQ(session.bytes_consumed(), input.size());
  }
  if (!input.empty()) {
    EXPECT_TRUE(session.fallback_active()) << input;
  }
  return tags;
}

std::vector<Tag> Fused(const grammar::Grammar& g, const TaggerOptions& opt,
                       std::string_view input) {
  auto t = LazyDfaTagger::Create(&g, FusedSteps(opt));
  EXPECT_TRUE(t.ok()) << t.status();
  return Fused(*t, input);
}

void ExpectSameTags(const std::vector<Tag>& a, const std::vector<Tag>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token) << "tag " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "tag " << i;
  }
}

const char kCalcGrammar[] =
    "NUM [0-9]+\nWORD [a-z]+\nOP [-+*/]\n%%\ns: NUM OP NUM | WORD;\n%%\n";

TEST(ByteClassifierTest, PartitionsByMembership) {
  std::vector<regex::CharClass> classes;
  classes.push_back(regex::CharClass::Range('0', '9'));
  classes.push_back(regex::CharClass::Range('a', 'z'));
  ByteClassifier bc = ByteClassifier::Build(classes);
  // digits | lowercase | everything else = 3 classes.
  EXPECT_EQ(bc.NumClasses(), 3);
  EXPECT_EQ(bc.ClassOf('0'), bc.ClassOf('9'));
  EXPECT_EQ(bc.ClassOf('a'), bc.ClassOf('q'));
  EXPECT_NE(bc.ClassOf('0'), bc.ClassOf('a'));
  EXPECT_NE(bc.ClassOf('0'), bc.ClassOf(' '));
  EXPECT_EQ(bc.ClassOf(' '), bc.ClassOf('\xff'));
  // Representatives round-trip through ClassOf.
  for (uint16_t c = 0; c < bc.NumClasses(); ++c) {
    EXPECT_EQ(bc.ClassOf(bc.Representative(c)), c);
  }
}

TEST(ByteClassifierTest, EmptyInputIsOneClass) {
  ByteClassifier bc = ByteClassifier::Build({});
  EXPECT_EQ(bc.NumClasses(), 1);
  EXPECT_EQ(bc.ClassOf('x'), 0);
}

TEST(FusedTaggerTest, ReportsCompressionStats) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_GT(t->TotalPositions(), 0u);
  EXPECT_GE(t->NumStateWords(), 3u);  // one word per token here
  // digits, lowercase, operators, whitespace, rest — far fewer than 256.
  EXPECT_GE(t->NumByteClasses(), 4u);
  EXPECT_LE(t->NumByteClasses(), 16u);
}

TEST(FusedTaggerTest, MatchesFunctionalAnchored) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  for (std::string_view input :
       {"12+34", "12 + 34", "hello", "12x", "", "   ", "9*8 trailing",
        "12+34 56-78"}) {
    ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
  }
}

TEST(FusedTaggerTest, MatchesFunctionalScanAndResync) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  for (ArmMode mode : {ArmMode::kScan, ArmMode::kResync}) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    for (std::string_view input :
         {"12+34", "??12+34??", "a1b2c3", "  12 + 34  99*1",
          "garbage 12+34 more", "###\n42/7\n###"}) {
      ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
    }
  }
}

TEST(FusedTaggerTest, MatchesFunctionalWithoutLongestMatch) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kScan;
  opt.longest_match = false;
  for (std::string_view input : {"1234", "abc de", "12+34"}) {
    ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
  }
}

TEST(FusedTaggerTest, MultiWordTokenState) {
  // A 70-position literal token spans two state words, exercising the
  // multi-word follow rows and the meta-checked accept/suppression loops.
  grammar::Grammar g;
  std::string long_lit(70, 'a');
  auto lit = g.AddLiteralToken(long_lit);
  ASSERT_TRUE(lit.ok()) << lit.status();
  auto num = g.AddToken("NUM", "[0-9]+");
  ASSERT_TRUE(num.ok()) << num.status();
  const int32_t nt = g.AddNonterminal("s");
  g.AddProduction(nt, {grammar::Symbol::Terminal(*lit),
                       grammar::Symbol::Terminal(*num)});
  g.SetStart(nt);

  auto fused = FusedTagger::Create(&g, {});
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_GE(fused->NumStateWords(), 3u);  // 2 for the literal, 1 for NUM

  TaggerOptions opt;
  for (ArmMode mode : {ArmMode::kAnchored, ArmMode::kScan, ArmMode::kResync}) {
    opt.arm_mode = mode;
    for (const std::string& input :
         {long_lit + " 123", long_lit.substr(0, 69) + "b 5",
          "x" + long_lit + " 7", long_lit}) {
      ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
    }
  }
}

TEST(FusedTaggerTest, ChunkedFeedMatchesWholeBuffer) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = LazyDfaTagger::Create(&g, FusedSteps(opt));
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 ";
  const std::vector<Tag> whole = Fused(*t, input);
  ExpectSameTags(Functional(g, opt, input), whole);
  for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u}) {
    ExpectSameTags(whole, Fused(*t, input, chunk));
  }
}

TEST(FusedTaggerTest, EarlyStopMatchesFunctional) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kScan;
  const std::string input = "12+34 abc 9*9 def";
  auto functional = FunctionalTagger::Create(&g, opt);
  auto fused = LazyDfaTagger::Create(&g, FusedSteps(opt));
  ASSERT_TRUE(functional.ok() && fused.ok());
  for (size_t limit = 1; limit <= 4; ++limit) {
    std::vector<Tag> want;
    functional->Run(input, [&](const Tag& tag) {
      want.push_back(tag);
      return want.size() < limit;
    });
    ExpectSameTags(want, Fused(*fused, input, 0, limit));
  }
}

TEST(FusedTaggerTest, IdleSkipOverLongDelimiterRuns) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  // Mostly-delimiter stream: the fast path must not lose arms or offsets.
  std::string input(10000, ' ');
  input.replace(5000, 5, "12+34");
  input.replace(9990, 3, "abc");
  ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
}

TEST(FusedTaggerTest, AnchoredDeadStreamSkips) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;  // anchored
  // After the first token run dies, anchored mode can never match again.
  std::string input = "12+34 ";
  input += std::string(5000, 'z');
  input += " 9*9";
  ExpectSameTags(Functional(g, opt, input), Fused(g, opt, input));
}

}  // namespace
}  // namespace cfgtag::tagger
