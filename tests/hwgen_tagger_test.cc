#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "hwgen/tagger_gen.h"
#include "rtl/techmap.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::hwgen {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

constexpr char kSmall[] = R"(
NUM [0-9]+
%%
s: "<n>" NUM "</n>";
%%
)";

TEST(TaggerGeneratorTest, StructureBasics) {
  auto gen = TaggerGenerator::Generate(MustParse(kSmall), {});
  ASSERT_TRUE(gen.ok()) << gen.status();
  EXPECT_EQ(gen->data_in.size(), 8u);
  EXPECT_EQ(gen->num_tokens, 3u);
  EXPECT_EQ(gen->match_regs.size(), 3u);
  EXPECT_EQ(gen->pattern_bytes, 8u);  // "<n>"(3) + NUM(1) + "</n>"(4)
  EXPECT_GT(gen->match_latency, 0);
  EXPECT_GE(gen->index_latency, gen->match_latency);
  EXPECT_TRUE(gen->netlist.Validate().ok());
}

TEST(TaggerGeneratorTest, PatternBytesMatchesGrammar) {
  grammar::Grammar g = MustParse(kSmall);
  const size_t expected = g.PatternBytes();
  auto gen = TaggerGenerator::Generate(g, {});
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->pattern_bytes, expected);
}

TEST(TaggerGeneratorTest, NoEncoderOption) {
  HwOptions opt;
  opt.emit_index_encoder = false;
  auto gen = TaggerGenerator::Generate(MustParse(kSmall), opt);
  ASSERT_TRUE(gen.ok()) << gen.status();
  EXPECT_EQ(gen->index_valid, rtl::kInvalidNode);
  EXPECT_TRUE(gen->index_bits.empty());
}

TEST(TaggerGeneratorTest, NaiveEncoderShortensLatency) {
  HwOptions pipelined;
  HwOptions naive;
  naive.pipelined_encoder = false;
  auto g1 = TaggerGenerator::Generate(MustParse(kSmall), pipelined);
  auto g2 = TaggerGenerator::Generate(MustParse(kSmall), naive);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_LT(g2->index_latency, g1->index_latency);
}

TEST(TaggerGeneratorTest, DecoderReplicationBoundsFanout) {
  // Build a grammar big enough that some decoded class exceeds the
  // replication threshold, then check the mapped fan-outs.
  auto base = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(base.ok());

  HwOptions plain;
  HwOptions replicated;
  replicated.decoder_replication = true;
  replicated.replication_threshold = 16;

  auto gen_plain = TaggerGenerator::Generate(*base, plain);
  auto gen_repl = TaggerGenerator::Generate(*base, replicated);
  ASSERT_TRUE(gen_plain.ok());
  ASSERT_TRUE(gen_repl.ok());

  rtl::TechMapper mapper(4);
  auto m_plain = mapper.Map(gen_plain->netlist);
  auto m_repl = mapper.Map(gen_repl->netlist);
  ASSERT_TRUE(m_plain.ok());
  ASSERT_TRUE(m_repl.ok());

  auto max_decreg_fanout = [](const rtl::MappedNetlist& m) {
    uint32_t worst = 0;
    for (const auto& net : m.nets) {
      if (net.kind == rtl::MappedNetlist::NetKind::kReg &&
          net.name.rfind("decreg_", 0) == 0) {
        worst = std::max(worst, net.fanout);
      }
    }
    return worst;
  };
  EXPECT_GT(max_decreg_fanout(*m_plain), 16u);
  EXPECT_LE(max_decreg_fanout(*m_repl), 16u);
  // Replication costs extra registers but must not change behaviour.
  EXPECT_GT(m_repl->NumFfs(), m_plain->NumFfs());
}

TEST(TaggerGeneratorTest, ReplicationPreservesTags) {
  auto base = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(base.ok());
  HwOptions replicated;
  replicated.decoder_replication = true;
  replicated.replication_threshold = 8;

  auto compiled = core::CompiledTagger::Compile(base->Clone());
  auto plain = core::HardwareDesign::Create(*base);
  auto repl = core::HardwareDesign::Create(*base, replicated);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(repl.ok());

  const std::string msg =
      "<methodCall><methodName>buy</methodName><params>"
      "<param><int>42</int></param></params></methodCall>";
  auto t_plain = plain->TagCycleAccurate(msg);
  auto t_repl = repl->TagCycleAccurate(msg);
  ASSERT_TRUE(t_plain.ok());
  ASSERT_TRUE(t_repl.ok());
  EXPECT_EQ(*t_plain, *t_repl);
  EXPECT_EQ(compiled->Tag(msg), *t_repl);
}

TEST(TaggerGeneratorTest, RejectsBadBytesPerCycle) {
  HwOptions opt;
  opt.bytes_per_cycle = 3;
  EXPECT_FALSE(TaggerGenerator::Generate(MustParse(kSmall), opt).ok());
}

TEST(TaggerGeneratorTest, RejectsInvalidGrammar) {
  grammar::Grammar g;  // empty
  EXPECT_FALSE(TaggerGenerator::Generate(g, {}).ok());
}

TEST(TaggerGeneratorTest, GrammarScalingSharesDecoders) {
  // LUTs per pattern byte must *fall* as the grammar grows (Table 1's
  // LUTs/Byte column): decoders and encoder amortize.
  auto small = core::HardwareDesign::Create(MustParse(kSmall));
  ASSERT_TRUE(small.ok());
  auto big_grammar = MustParse(R"(
NUM [0-9]+
ALT [a-f]+
%%
s: "<n>" NUM "</n>" | "<m>" NUM "</m>" | "<o>" ALT "</o>"
 | "<p>" ALT "</p>" | "<q>" NUM "</q>";
%%
)");
  auto big = core::HardwareDesign::Create(big_grammar);
  ASSERT_TRUE(big.ok());
  auto r_small = small->Implement(rtl::Virtex4LX200());
  auto r_big = big->Implement(rtl::Virtex4LX200());
  ASSERT_TRUE(r_small.ok());
  ASSERT_TRUE(r_big.ok());
  EXPECT_LT(r_big->area.luts_per_byte, r_small->area.luts_per_byte);
}

}  // namespace
}  // namespace cfgtag::hwgen
