// Tests for the multi-byte datapath (paper §5.2 future work, implemented):
// a W-byte/cycle tagger must produce exactly the same tag stream as the
// 1-byte functional model — the lanes are an implementation transform, not
// a semantic change.

#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "rtl/device.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::hwgen {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

constexpr char kIfThenElse[] = R"(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)";

class MultiLaneTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiLaneTest, StructureScalesWithLanes) {
  HwOptions opt;
  opt.bytes_per_cycle = GetParam();
  auto gen = TaggerGenerator::Generate(MustParse(kIfThenElse), opt);
  ASSERT_TRUE(gen.ok()) << gen.status();
  const size_t lanes = static_cast<size_t>(GetParam());
  EXPECT_EQ(gen->data_in.size(), 8 * lanes);
  EXPECT_EQ(gen->match_regs.size(), lanes * gen->num_tokens);
  ASSERT_EQ(gen->lane_match_latency.size(), lanes);
  for (size_t k = 0; k + 1 < lanes; ++k) {
    EXPECT_EQ(gen->lane_match_latency[k], gen->lane_match_latency.back() - 1);
  }
}

TEST_P(MultiLaneTest, IfThenElseTagsMatchFunctionalModel) {
  HwOptions opt;
  opt.bytes_per_cycle = GetParam();
  auto compiled =
      core::CompiledTagger::Compile(MustParse(kIfThenElse), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();

  for (const std::string& input :
       {std::string("if true then go else stop"), std::string("go"),
        std::string("   stop"),
        std::string("if false then if true then go else stop else go")}) {
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), *hw)
        << "lanes=" << GetParam() << " input='" << input << "'";
  }
}

TEST_P(MultiLaneTest, XmlRpcTagsMatchFunctionalModel) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  HwOptions opt;
  opt.bytes_per_cycle = GetParam();
  auto compiled = core::CompiledTagger::Compile(std::move(g).value(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/GetParam() * 100 + 9);
  for (int i = 0; i < 2; ++i) {
    const std::string msg = gen.Generate();
    auto hw = design->TagCycleAccurate(msg);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(msg), *hw) << "lanes=" << GetParam();
  }
}

TEST_P(MultiLaneTest, UnalignedTokenBoundaries) {
  // Token boundaries landing on every lane position: single-char tokens
  // back to back.
  HwOptions opt;
  opt.bytes_per_cycle = GetParam();
  auto compiled = core::CompiledTagger::Compile(MustParse(R"(
%%
s: "a" "b" "c" "d" "e";
%%
)"),
                                                opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();
  for (const std::string& input :
       {std::string("abcde"), std::string("a b c d e"),
        std::string(" abcde"), std::string("ab cde")}) {
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), *hw)
        << "lanes=" << GetParam() << " input='" << input << "'";
  }
}

TEST_P(MultiLaneTest, LongRunsCrossCycleBoundaries) {
  HwOptions opt;
  opt.bytes_per_cycle = GetParam();
  auto compiled = core::CompiledTagger::Compile(MustParse(R"(
NUM [0-9]+
%%
s: NUM "x" NUM;
%%
)"),
                                                opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(compiled->grammar(), opt);
  ASSERT_TRUE(design.ok()) << design.status();
  for (const std::string& input :
       {std::string("1234567x89"), std::string("1x2"),
        std::string("123x45678901")}) {
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), *hw)
        << "lanes=" << GetParam() << " input='" << input << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, MultiLaneTest, ::testing::Values(2, 4));

TEST(MultiLaneTest, BandwidthScalesButFrequencyDrops) {
  // The §5.2 trade-off: W bytes/cycle multiplies bandwidth per MHz, but the
  // W-deep combinational ladder costs clock frequency.
  auto one = core::HardwareDesign::Create(MustParse(kIfThenElse), {});
  HwOptions opt4;
  opt4.bytes_per_cycle = 4;
  auto four = core::HardwareDesign::Create(MustParse(kIfThenElse), opt4);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  auto r1 = one->Implement(rtl::Virtex4LX200());
  auto r4 = four->Implement(rtl::Virtex4LX200());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_LE(r4->timing.fmax_mhz, r1->timing.fmax_mhz);
  EXPECT_GT(r4->bandwidth_gbps, r1->bandwidth_gbps);
  EXPECT_GT(r4->area.luts, r1->area.luts);
}

TEST(MultiLaneTest, NoEncoderOnMultiLane) {
  HwOptions opt;
  opt.bytes_per_cycle = 2;
  auto gen = TaggerGenerator::Generate(MustParse(kIfThenElse), opt);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->index_valid, rtl::kInvalidNode);
}

// The §3.4 index bus exists only on single-lane designs: a 2-lane design
// under the default emit_index_encoder names the lane count, not a
// missing encoder option.
TEST(MultiLaneTest, IndexBusIsSingleLaneOnly) {
  HwOptions opt;
  opt.bytes_per_cycle = 2;
  ASSERT_TRUE(opt.emit_index_encoder);
  auto two = core::HardwareDesign::Create(MustParse(kIfThenElse), opt);
  ASSERT_TRUE(two.ok()) << two.status();
  auto bus = two->TagViaIndexBus("go");
  ASSERT_FALSE(bus.ok());
  EXPECT_EQ(bus.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(bus.status().message().find("single-lane"), std::string::npos)
      << bus.status();

  HwOptions no_encoder;
  no_encoder.emit_index_encoder = false;
  auto one = core::HardwareDesign::Create(MustParse(kIfThenElse), no_encoder);
  ASSERT_TRUE(one.ok()) << one.status();
  bus = one->TagViaIndexBus("go");
  ASSERT_FALSE(bus.ok());
  EXPECT_EQ(bus.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(bus.status().message().find("without the index encoder"),
            std::string::npos)
      << bus.status();
}

}  // namespace
}  // namespace cfgtag::hwgen
