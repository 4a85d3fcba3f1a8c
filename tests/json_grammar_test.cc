// Stress grammar: a JSON subset with deep recursion through objects and
// arrays — heavy use of epsilon productions, nested Follow sets, and a
// non-trivial STR token (quoted, interior class). Cross-checks all three
// engines on nested documents.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "reference/ll_parser.h"

namespace cfgtag {
namespace {

const std::string& JsonGrammarText() {
  static const std::string* const kText = [] {
    // The checked-in grammar file is the source of truth so the CLI and
    // the tests exercise the same bytes.
    std::ifstream in("examples/grammars/json_lite.grm");
    auto* s = new std::string;
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      *s = ss.str();
    }
    if (s->empty()) {
      // Fallback when the test runs from another directory.
      *s = R"grm(
STR    \"[^"]*\"
NUM    -?[0-9]+
%%
json:    value;
value:   obj | arr | STR | NUM | "true" | "false" | "null";
obj:     "{" members "}";
members: | pair more_pairs;
more_pairs: | "," pair more_pairs;
pair:    STR ":" value;
arr:     "[" elems "]";
elems:   | value more_elems;
more_elems: | "," value more_elems;
%%
)grm";
    }
    return s;
  }();
  return *kText;
}

grammar::Grammar Json() {
  auto g = grammar::ParseGrammar(JsonGrammarText());
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// Random JSON document generator.
std::string RandomJson(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.NextIndex(4) : rng.NextIndex(6)) {
    case 0:
      return "\"" + rng.NextString(1 + rng.NextIndex(6), "abcxyz") + "\"";
    case 1:
      return std::to_string(rng.NextInRange(-999, 999));
    case 2:
      return rng.NextBool() ? "true" : "false";
    case 3:
      return "null";
    case 4: {
      std::string out = "{";
      const size_t n = rng.NextIndex(3);
      for (size_t i = 0; i < n; ++i) {
        if (i) out += ", ";
        out += "\"k" + std::to_string(i) + "\": " +
               RandomJson(rng, depth - 1);
      }
      return out + "}";
    }
    default: {
      std::string out = "[";
      const size_t n = rng.NextIndex(4);
      for (size_t i = 0; i < n; ++i) {
        if (i) out += ", ";
        out += RandomJson(rng, depth - 1);
      }
      return out + "]";
    }
  }
}

TEST(JsonGrammarTest, IsLl1) {
  grammar::Grammar g = Json();
  auto p = tagger::PredictiveParser::Create(&g, {});
  EXPECT_TRUE(p.ok()) << p.status();
}

TEST(JsonGrammarTest, AcceptsAndRejects) {
  grammar::Grammar g = Json();
  auto p = tagger::PredictiveParser::Create(&g, {});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Accepts("{}"));
  EXPECT_TRUE(p->Accepts("[]"));
  EXPECT_TRUE(p->Accepts("{\"a\": [1, 2, {\"b\": null}], \"c\": true}"));
  EXPECT_TRUE(p->Accepts("-42"));
  EXPECT_FALSE(p->Accepts("{\"a\": }"));
  EXPECT_FALSE(p->Accepts("[1, ]"));
  EXPECT_FALSE(p->Accepts("{\"a\" 1}"));
  EXPECT_FALSE(p->Accepts("}"));
}

TEST(JsonGrammarTest, TagsNestedDocument) {
  auto compiled = core::CompiledTagger::Compile(Json());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const std::string doc = "{\"a\": [1, \"x\"], \"b\": null}";
  auto tags = compiled->Tag(doc);
  // { STR : [ NUM , STR ] , STR : null } = 13 tokens.
  EXPECT_EQ(tags.size(), 13u);
}

class JsonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzTest, EnginesAgreeOnRandomDocuments) {
  grammar::Grammar g = Json();
  grammar::Grammar g2 = g.Clone();
  auto parser = tagger::PredictiveParser::Create(&g2, {});
  ASSERT_TRUE(parser.ok());
  auto compiled = core::CompiledTagger::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok());

  Rng rng(GetParam() * 97 + 13);
  for (int i = 0; i < 5; ++i) {
    const std::string doc = RandomJson(rng, 4);
    EXPECT_TRUE(parser->Accepts(doc)) << doc;
    auto ll = parser->Parse(doc);
    ASSERT_TRUE(ll.ok()) << doc;
    // Hardware tags are a superset and, for this conflict-free grammar,
    // exactly equal in count.
    auto hw = compiled->Tag(doc);
    EXPECT_EQ(hw.size(), ll->size()) << doc;
    // Gate-level agreement on a sample.
    if (i == 0) {
      auto design = core::HardwareDesign::Create(compiled->grammar());
      ASSERT_TRUE(design.ok()) << design.status();
      auto cyc = design->TagCycleAccurate(doc);
      ASSERT_TRUE(cyc.ok());
      EXPECT_EQ(*cyc, hw) << doc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace cfgtag
