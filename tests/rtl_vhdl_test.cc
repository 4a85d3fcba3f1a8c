#include <gtest/gtest.h>

#include <sstream>

#include "rtl/netlist.h"
#include "rtl/simulator.h"
#include "rtl/vcd_writer.h"
#include "rtl/vhdl_emitter.h"

namespace cfgtag::rtl {
namespace {

Netlist SmallDesign() {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  NodeId g = nl.And2(a, nl.Not(b));
  NodeId r = nl.Reg(g, /*enable=*/b, /*init=*/true, "state");
  nl.MarkOutput(r, "out");
  return nl;
}

TEST(VhdlEmitterTest, EmitsEntityAndArchitecture) {
  Netlist nl = SmallDesign();
  auto vhdl = VhdlEmitter::Emit(nl, "tagger");
  ASSERT_TRUE(vhdl.ok()) << vhdl.status();
  EXPECT_NE(vhdl->find("entity tagger is"), std::string::npos);
  EXPECT_NE(vhdl->find("architecture rtl of tagger"), std::string::npos);
  EXPECT_NE(vhdl->find("use ieee.std_logic_1164.all;"), std::string::npos);
}

TEST(VhdlEmitterTest, PortsIncludeClockResetAndIo) {
  Netlist nl = SmallDesign();
  auto vhdl = VhdlEmitter::Emit(nl, "t");
  ASSERT_TRUE(vhdl.ok());
  EXPECT_NE(vhdl->find("clk : in std_logic"), std::string::npos);
  EXPECT_NE(vhdl->find("rst : in std_logic"), std::string::npos);
  EXPECT_NE(vhdl->find("port_out : out std_logic"), std::string::npos);
}

TEST(VhdlEmitterTest, RegisterProcessHasResetAndEnable) {
  Netlist nl = SmallDesign();
  auto vhdl = VhdlEmitter::Emit(nl, "t");
  ASSERT_TRUE(vhdl.ok());
  EXPECT_NE(vhdl->find("rising_edge(clk)"), std::string::npos);
  // init=true register resets to '1'.
  EXPECT_NE(vhdl->find("<= '1';"), std::string::npos);
  // Clock enable renders as a guarded assignment.
  EXPECT_NE(vhdl->find("= '1' then"), std::string::npos);
}

TEST(VhdlEmitterTest, GateOperatorsEmitted) {
  Netlist nl;
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  nl.MarkOutput(nl.And2(a, b), "o1");
  nl.MarkOutput(nl.Or2(a, b), "o2");
  nl.MarkOutput(nl.Xor(a, b), "o3");
  nl.MarkOutput(nl.Not(a), "o4");
  auto vhdl = VhdlEmitter::Emit(nl, "gates");
  ASSERT_TRUE(vhdl.ok());
  EXPECT_NE(vhdl->find(" and "), std::string::npos);
  EXPECT_NE(vhdl->find(" or "), std::string::npos);
  EXPECT_NE(vhdl->find(" xor "), std::string::npos);
  EXPECT_NE(vhdl->find(" not "), std::string::npos);
}

TEST(VhdlEmitterTest, RejectsBadEntityName) {
  Netlist nl = SmallDesign();
  EXPECT_FALSE(VhdlEmitter::Emit(nl, "9bad").ok());
  EXPECT_FALSE(VhdlEmitter::Emit(nl, "has space").ok());
  EXPECT_FALSE(VhdlEmitter::Emit(nl, "").ok());
}

TEST(VhdlEmitterTest, DeterministicOutput) {
  Netlist nl = SmallDesign();
  auto a = VhdlEmitter::Emit(nl, "t");
  auto b = VhdlEmitter::Emit(nl, "t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(VcdWriterTest, EmitsHeaderAndChanges) {
  Netlist nl;
  NodeId in = nl.AddInput("in");
  NodeId r = nl.Reg(in, kInvalidNode, false, "r");
  nl.MarkOutput(r, "o");
  auto sim = Simulator::Create(&nl);
  ASSERT_TRUE(sim.ok());

  std::ostringstream os;
  VcdWriter vcd(&os, &nl);
  vcd.AddSignal(in, "in");
  vcd.AddSignal(r, "r");
  vcd.WriteHeader();

  sim->SetInput(in, true);
  sim->Step();
  vcd.Sample(*sim);
  sim->SetInput(in, false);
  sim->Step();
  vcd.Sample(*sim);
  sim->Step();
  vcd.Sample(*sim);

  const std::string out = os.str();
  EXPECT_NE(out.find("$timescale"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! in $end"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  // Value changes present for both signals.
  EXPECT_NE(out.find("1!"), std::string::npos);
  EXPECT_NE(out.find("0!"), std::string::npos);
}

TEST(VcdWriterTest, OnlyChangesAreEmitted) {
  Netlist nl;
  NodeId in = nl.AddInput("in");
  nl.MarkOutput(in, "o");
  auto sim = Simulator::Create(&nl);
  ASSERT_TRUE(sim.ok());

  std::ostringstream os;
  VcdWriter vcd(&os, &nl);
  vcd.AddSignal(in, "in");
  vcd.WriteHeader();
  sim->SetInput(in, false);
  for (int i = 0; i < 5; ++i) {
    sim->Step();
    vcd.Sample(*sim);
  }
  // One initial 0, no further change lines.
  const std::string out = os.str();
  EXPECT_EQ(out.find("#1"), std::string::npos);
}

}  // namespace
}  // namespace cfgtag::rtl

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "rtl/vhdl_testbench.h"

namespace cfgtag::rtl {
namespace {

TEST(VhdlTestbenchTest, EmitsSelfCheckingBench) {
  auto g = grammar::ParseGrammar("%%\ns: \"ab\" \"cd\";\n%%\n");
  ASSERT_TRUE(g.ok());
  auto design = core::HardwareDesign::Create(*g);
  ASSERT_TRUE(design.ok());
  auto compiled = core::CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok());
  auto tb =
      design->ExportVhdlTestbench("tagger", "ab cd", compiled->Tag("ab cd"));
  ASSERT_TRUE(tb.ok()) << tb.status();
  // Instantiates the DUT, clocks it, and asserts both match ports high at
  // some cycle.
  EXPECT_NE(tb->find("entity tb_tagger is"), std::string::npos);
  EXPECT_NE(tb->find("dut : entity work.tagger"), std::string::npos);
  EXPECT_NE(tb->find("assert port_match_t0 = '1'"), std::string::npos);
  EXPECT_NE(tb->find("assert port_match_t1 = '1'"), std::string::npos);
  EXPECT_NE(tb->find("assert port_match_t0 = '0'"), std::string::npos)
      << "pipeline-fill negative checks";
  EXPECT_NE(tb->find("report \"testbench finished\""), std::string::npos);
}

TEST(VhdlTestbenchTest, ChecksAgainstUnknownPortRejected) {
  Netlist nl;
  NodeId a = nl.AddInput("d0");
  nl.MarkOutput(nl.Reg(a), "o");
  TestbenchStimulus stim;
  stim.lanes = 1;
  stim.bytes = {{'x'}};
  EXPECT_FALSE(
      EmitVhdlTestbench(nl, "t", stim, {{0, "nosuch", true}}).ok());
}

TEST(VhdlTestbenchTest, LaneMismatchRejected) {
  Netlist nl;
  nl.MarkOutput(nl.Reg(nl.AddInput("d0")), "o");
  TestbenchStimulus stim;
  stim.lanes = 2;
  stim.bytes = {{'x'}};  // one byte for two lanes
  EXPECT_FALSE(EmitVhdlTestbench(nl, "t", stim, {}).ok());
}

}  // namespace
}  // namespace cfgtag::rtl
