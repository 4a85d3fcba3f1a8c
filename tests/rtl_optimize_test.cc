#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "rtl/netlist.h"
#include "rtl/optimize.h"
#include "rtl/simulator.h"
#include "rtl/techmap.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::rtl {
namespace {

TEST(OptimizeTest, MergesIdenticalGates) {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  // Two structurally identical ANDs and their mirror image.
  nl.MarkOutput(nl.And2(a, b), "o1");
  nl.MarkOutput(nl.And2(a, b), "o2");
  nl.MarkOutput(nl.And2(b, a), "o3");  // commutative: same gate

  OptimizeStats stats;
  auto opt = Optimize(nl, &stats);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_EQ(stats.gates_before, 3u);
  EXPECT_EQ(stats.gates_after, 1u);
  EXPECT_EQ(stats.cse_hits, 2u);
  EXPECT_TRUE(CheckEquivalent(nl, *opt, 8, 4, 1).ok());
}

TEST(OptimizeTest, RemovesDeadLogic) {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  nl.Reg(nl.And2(a, b));          // dead register + gate
  nl.Or2(a, b);                   // dead gate
  nl.MarkOutput(nl.Not(a), "o");  // the only live logic

  OptimizeStats stats;
  auto opt = Optimize(nl, &stats);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_EQ(stats.gates_after, 1u);
  EXPECT_EQ(stats.regs_after, 0u);
}

TEST(OptimizeTest, SweepsBuffersAndDoubleNegation) {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  nl.MarkOutput(nl.Buf(nl.Buf(a, "x"), "y"), "o1");
  nl.MarkOutput(nl.Not(nl.Not(a)), "o2");
  auto opt = Optimize(nl, nullptr);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->ComputeStats().num_gates, 0u);
  EXPECT_TRUE(CheckEquivalent(nl, *opt, 4, 2, 2).ok());
}

TEST(OptimizeTest, DropsDuplicateAndInputs) {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  nl.MarkOutput(nl.And({a, b, a, b, a}), "o");
  auto opt = Optimize(nl, nullptr);
  ASSERT_TRUE(opt.ok());
  // a & b & a & b & a  ==  a & b: a single 2-input gate.
  ASSERT_EQ(opt->ComputeStats().num_and, 1u);
  EXPECT_TRUE(CheckEquivalent(nl, *opt, 4, 2, 3).ok());
}

TEST(OptimizeTest, PreservesRegisterSemantics) {
  Netlist nl;
  NodeId d = nl.AddInput("d");
  NodeId en = nl.AddInput("en");
  NodeId r = nl.Reg(d, en, /*init=*/true, "r");
  nl.MarkOutput(r, "o");
  auto opt = Optimize(nl, nullptr);
  ASSERT_TRUE(opt.ok());
  EXPECT_TRUE(CheckEquivalent(nl, *opt, 16, 8, 4).ok());
}

TEST(OptimizeTest, PreservesFeedbackLoops) {
  Netlist nl;
  NodeId r = nl.RegPlaceholder(kInvalidNode, false, "toggle");
  nl.SetRegD(r, nl.Not(r));
  nl.MarkOutput(r, "o");
  auto opt = Optimize(nl, nullptr);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_TRUE(CheckEquivalent(nl, *opt, 2, 10, 5).ok());
}

TEST(OptimizeTest, DoesNotMergeRegisters) {
  // Two registers with identical D: fan-out replicas must survive.
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId r1 = nl.Reg(a, kInvalidNode, false, "r1");
  NodeId r2 = nl.Reg(a, kInvalidNode, false, "r2");
  nl.MarkOutput(r1, "o1");
  nl.MarkOutput(r2, "o2");
  auto opt = Optimize(nl, nullptr);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->ComputeStats().num_regs, 2u);
}

TEST(OptimizeTest, GeneratedTaggerShrinksAndStaysEquivalent) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto design = core::HardwareDesign::Create(*g);
  ASSERT_TRUE(design.ok());

  OptimizeStats stats;
  auto opt = Optimize(design->generated().netlist, &stats);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_LT(stats.gates_after, stats.gates_before);
  EXPECT_GT(stats.cse_hits, 0u);

  // Random-vector equivalence over all match/index outputs.
  EXPECT_TRUE(CheckEquivalent(design->generated().netlist, *opt,
                              /*vectors=*/3, /*cycles=*/48, /*seed=*/7)
                  .ok());

  // Mapping still works and is never larger.
  TechMapper mapper(4);
  auto m_raw = mapper.Map(design->generated().netlist);
  auto m_opt = mapper.Map(*opt);
  ASSERT_TRUE(m_raw.ok());
  ASSERT_TRUE(m_opt.ok());
  EXPECT_LE(m_opt->NumLuts(), m_raw->NumLuts());
}

TEST(CheckEquivalentTest, DetectsRealDifferences) {
  Netlist a;
  NodeId ia = a.AddInput("x");
  a.MarkOutput(a.Not(ia), "o");
  Netlist b;
  NodeId ib = b.AddInput("x");
  b.MarkOutput(ib, "o");  // different function
  EXPECT_FALSE(CheckEquivalent(a, b, 4, 4, 9).ok());
}

TEST(CheckEquivalentTest, RejectsMismatchedPorts) {
  Netlist a;
  a.MarkOutput(a.AddInput("x"), "o");
  Netlist b;
  b.MarkOutput(b.AddInput("y"), "o");
  EXPECT_FALSE(CheckEquivalent(a, b, 1, 1, 0).ok());
}

}  // namespace
}  // namespace cfgtag::rtl
