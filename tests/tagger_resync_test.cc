// Tests for ArmMode::kResync — the §5.2 error-recovery future work: start
// tokens re-arm at every post-delimiter byte, so the tagger recovers after
// garbage and handles streams of back-to-back messages without framing.

#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "reference/functional_model.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

constexpr char kPair[] = "%%\ns: \"ab\" \"cd\";\n%%\n";

TaggerOptions Resync() {
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  return opt;
}

TEST(ResyncTest, RecoversAfterGarbage) {
  grammar::Grammar g = MustParse(kPair);
  auto t = FunctionalTagger::Create(&g, Resync());
  ASSERT_TRUE(t.ok());
  // Anchored mode loses the stream after 'x'; resync re-arms "ab" at the
  // next token boundary.
  auto tags = t->TagAll("ab xx ab cd");
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0].end, 1u);
  EXPECT_EQ(tags[1].end, 7u);
  EXPECT_EQ(tags[2].end, 10u);
}

TEST(ResyncTest, DoesNotArmMidToken) {
  grammar::Grammar g = MustParse(kPair);
  auto t = FunctionalTagger::Create(&g, Resync());
  ASSERT_TRUE(t.ok());
  // "xab" has no boundary before 'a', so "ab" must NOT match inside it —
  // unlike scan mode, which arms at every byte.
  EXPECT_TRUE(t->TagAll("xab").empty());
  grammar::Grammar g2 = MustParse(kPair);
  TaggerOptions scan;
  scan.arm_mode = ArmMode::kScan;
  auto t_scan = FunctionalTagger::Create(&g2, scan);
  ASSERT_TRUE(t_scan.ok());
  EXPECT_EQ(t_scan->TagAll("xab").size(), 1u);
}

TEST(ResyncTest, BackToBackSentences) {
  grammar::Grammar g = MustParse(kPair);
  auto t = FunctionalTagger::Create(&g, Resync());
  ASSERT_TRUE(t.ok());
  // Two complete sentences separated by a newline: both fully tagged.
  auto tags = t->TagAll("ab cd\nab cd");
  EXPECT_EQ(tags.size(), 4u);
}

class ResyncLaneTest : public ::testing::TestWithParam<int> {};

TEST_P(ResyncLaneTest, NetlistMatchesFunctionalModel) {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = ArmMode::kResync;
  opt.bytes_per_cycle = GetParam();
  auto compiled = core::CompiledTagger::Compile(MustParse(kPair), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();

  for (const std::string& input :
       {std::string("ab xx ab cd"), std::string("ab cd ab cd"),
        std::string("xab"), std::string("  ab  cd"),
        std::string("junk ab cd junk")}) {
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), *hw)
        << "lanes=" << GetParam() << " input='" << input << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ResyncLaneTest, ::testing::Values(1, 2, 4));

TEST(ResyncTest, TagsXmlRpcMessageStream) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = ArmMode::kResync;
  auto compiled = core::CompiledTagger::Compile(std::move(g).value(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  // Three newline-separated messages: the anchored tagger would only tag
  // the first; resync tags the "<methodCall>" opener of each.
  xmlrpc::MessageGenerator gen({}, 3);
  const std::string stream = gen.GenerateStream(3);
  const int32_t open_call =
      compiled->grammar().FindToken("\"<methodCall>\"");
  ASSERT_GE(open_call, 0);
  int openers = 0;
  for (const auto& t : compiled->Tag(stream)) openers += t.token == open_call;
  EXPECT_GE(openers, 3);

  auto g2 = xmlrpc::XmlRpcGrammar();
  auto anchored = core::CompiledTagger::Compile(std::move(g2).value(), {});
  ASSERT_TRUE(anchored.ok());
  int anchored_openers = 0;
  for (const auto& t : anchored->Tag(stream)) {
    anchored_openers += t.token == open_call;
  }
  EXPECT_EQ(anchored_openers, 1);
}

TEST(ResyncTest, NetlistMatchesOnXmlRpcStream) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = ArmMode::kResync;
  auto compiled = core::CompiledTagger::Compile(std::move(g).value(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();
  xmlrpc::MessageGenerator gen({}, 9);
  const std::string stream = gen.GenerateStream(2);
  auto hw = design->TagCycleAccurate(stream);
  ASSERT_TRUE(hw.ok()) << hw.status();
  EXPECT_EQ(compiled->Tag(stream), *hw);
}

}  // namespace
}  // namespace cfgtag::tagger
