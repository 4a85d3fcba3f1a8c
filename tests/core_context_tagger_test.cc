#include <gtest/gtest.h>

#include <set>

#include "core/context_tagger.h"
#include "core/hardware_design.h"
#include "grammar/grammar_parser.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::core {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// The paper's §3.2 scenario: one pattern, several grammatical roles.
constexpr char kTime[] = R"(
NUM [0-9][0-9]
%%
time: NUM ":" NUM ":" NUM;
%%
)";

TEST(ContextualTaggerTest, DistinguishesOccurrences) {
  auto tagger = ContextualTagger::Compile(MustParse(kTime));
  ASSERT_TRUE(tagger.ok()) << tagger.status();

  auto tags = tagger->Tag("12:34:56");
  ASSERT_EQ(tags.size(), 5u);
  // Three NUM occurrences report distinct positions 0 / 2 / 4 of the same
  // production — hour vs minute vs second.
  std::set<int32_t> num_positions;
  const int32_t num_base = tagger->original_grammar().FindToken("NUM");
  for (const ContextTag& t : tags) {
    if (t.base_token == num_base) num_positions.insert(t.position);
  }
  EXPECT_EQ(num_positions, (std::set<int32_t>{0, 2, 4}));
}

TEST(ContextualTaggerTest, DescribeContextIsReadable) {
  auto tagger = ContextualTagger::Compile(MustParse(kTime));
  ASSERT_TRUE(tagger.ok());
  auto tags = tagger->Tag("12:34:56");
  ASSERT_FALSE(tags.empty());
  const std::string desc = tagger->DescribeContext(tags[0]);
  EXPECT_NE(desc.find("NUM"), std::string::npos);
  EXPECT_NE(desc.find("time"), std::string::npos);
  EXPECT_NE(desc.find("position 0"), std::string::npos);
}

TEST(ContextualTaggerTest, SingleSiteTokensKeepPositionMinusOne) {
  auto tagger = ContextualTagger::Compile(
      MustParse("W [a-z]+\n%%\ns: \"<\" W \">\";\n%%\n"));
  ASSERT_TRUE(tagger.ok());
  for (const ContextTag& t : tagger->Tag("<abc>")) {
    EXPECT_EQ(t.position, -1) << "single-site token was split";
    EXPECT_GE(t.base_token, 0);
  }
}

TEST(ContextualTaggerTest, CycleAccurateAgrees) {
  auto tagger = ContextualTagger::Compile(MustParse(kTime));
  ASSERT_TRUE(tagger.ok());
  auto design = core::HardwareDesign::Create(tagger->tagger().grammar());
  ASSERT_TRUE(design.ok()) << design.status();
  const std::string input = "12:34:56";
  auto cycles = design->TagCycleAccurate(input);
  ASSERT_TRUE(cycles.ok()) << cycles.status();
  auto hw = tagger->AnnotateTags(*cycles);
  auto sw = tagger->Tag(input);
  ASSERT_EQ(hw.size(), sw.size());
  for (size_t i = 0; i < sw.size(); ++i) {
    EXPECT_TRUE(hw[i].tag == sw[i].tag);
    EXPECT_EQ(hw[i].position, sw[i].position);
  }
}

TEST(ContextualTaggerTest, XmlRpcDateTimeRoles) {
  // In the full XML-RPC grammar the ':' literal of dateTime appears at two
  // sites; context expansion splits it so MIN and SEC separators differ.
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto tagger = ContextualTagger::Compile(*g);
  ASSERT_TRUE(tagger.ok()) << tagger.status();

  const std::string msg =
      "<methodCall><methodName>buy</methodName><params><param>"
      "<dateTime.iso8601>19980717T14:08:55</dateTime.iso8601>"
      "</param></params></methodCall>";
  auto tags = tagger->Tag(msg);
  const int32_t colon_base = [&] {
    return tagger->original_grammar().FindToken("\":\"");
  }();
  ASSERT_GE(colon_base, 0);
  std::set<int32_t> colon_positions;
  for (const ContextTag& t : tags) {
    if (t.base_token == colon_base) colon_positions.insert(t.position);
  }
  // Two ':' occurrences at two distinct RHS positions of dateTime.
  EXPECT_EQ(colon_positions.size(), 2u);
}

TEST(ContextualTaggerTest, ExactlyOneTagPerOccurrenceOnTime) {
  // Without expansion, the shared ':' token arms both MIN and SEC
  // contexts simultaneously (a duplicate-tag source the superset bench
  // quantifies); with expansion every occurrence tags exactly once.
  auto plain = CompiledTagger::Compile(MustParse(kTime));
  ASSERT_TRUE(plain.ok());
  auto contextual = ContextualTagger::Compile(MustParse(kTime));
  ASSERT_TRUE(contextual.ok());
  EXPECT_GT(plain->Tag("12:34:56").size(),
            contextual->Tag("12:34:56").size() - 1)
      << "sanity";
  EXPECT_EQ(contextual->Tag("12:34:56").size(), 5u);
  // The unexpanded grammar double-tags the NUM after the first ':' (both
  // NUM sites share one token and both MIN/SEC arms fire).
  EXPECT_GE(plain->Tag("12:34:56").size(), 5u);
}

}  // namespace
}  // namespace cfgtag::core
