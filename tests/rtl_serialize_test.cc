#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "rtl/netlist.h"
#include "rtl/optimize.h"
#include "rtl/serialize.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::rtl {
namespace {

Netlist SmallDesign() {
  Netlist nl;
  nl.SetScope("front");
  NodeId a = nl.AddInput("a");
  NodeId b = nl.AddInput("b");
  NodeId g = nl.And2(a, nl.Not(b));
  nl.SetScope("back");
  NodeId r = nl.Reg(g, /*enable=*/b, /*init=*/true, "state");
  NodeId fb = nl.RegPlaceholder(kInvalidNode, false, "toggle");
  nl.SetRegD(fb, nl.Not(fb));
  nl.MarkOutput(r, "out");
  nl.MarkOutput(fb, "t");
  nl.SetScope("");
  return nl;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  Netlist nl = SmallDesign();
  const std::string text = SerializeNetlist(nl);
  auto loaded = ParseNetlist(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->NumNodes(), nl.NumNodes());
  for (NodeId id = 0; id < nl.NumNodes(); ++id) {
    const Node& x = nl.node(id);
    const Node& y = loaded->node(id);
    EXPECT_EQ(x.kind, y.kind) << id;
    EXPECT_EQ(x.fanin, y.fanin) << id;
    EXPECT_EQ(x.enable, y.enable) << id;
    EXPECT_EQ(x.init, y.init) << id;
    EXPECT_EQ(x.name, y.name) << id;
    EXPECT_EQ(nl.NodeScope(id), loaded->NodeScope(id)) << id;
  }
  ASSERT_EQ(loaded->outputs().size(), nl.outputs().size());
  EXPECT_EQ(loaded->outputs()[0].name, "out");
  EXPECT_TRUE(CheckEquivalent(nl, *loaded, 8, 8, 3).ok());
}

TEST(SerializeTest, RoundTripIsIdempotent) {
  Netlist nl = SmallDesign();
  const std::string once = SerializeNetlist(nl);
  auto loaded = ParseNetlist(once);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(SerializeNetlist(*loaded), once);
}

TEST(SerializeTest, EscapedNamesSurvive) {
  Netlist nl;
  NodeId a = nl.AddInput("in");
  NodeId r = nl.Reg(a, kInvalidNode, false, "weird \"name\"\twith\nstuff");
  nl.MarkOutput(r, "o");
  auto loaded = ParseNetlist(SerializeNetlist(nl));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->node(r).name, "weird \"name\"\twith\nstuff");
}

TEST(SerializeTest, GeneratedTaggerRoundTrips) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto design = core::HardwareDesign::Create(*g);
  ASSERT_TRUE(design.ok());
  const Netlist& original = design->generated().netlist;
  auto loaded = ParseNetlist(SerializeNetlist(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  EXPECT_TRUE(CheckEquivalent(original, *loaded, 2, 32, 11).ok());
}

TEST(SerializeTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseNetlist("").ok());
  EXPECT_FALSE(ParseNetlist("wrong header\n").ok());
  EXPECT_FALSE(ParseNetlist("cfgtag-netlist-v1\n5 i \"gap\"\n").ok())
      << "non-dense ids";
  EXPECT_FALSE(ParseNetlist("cfgtag-netlist-v1\n2 z\n").ok())
      << "unknown kind";
  EXPECT_FALSE(ParseNetlist("cfgtag-netlist-v1\n2 i\n").ok())
      << "input without name";
  EXPECT_FALSE(
      ParseNetlist("cfgtag-netlist-v1\n2 i \"a\"\n3 a 2 9\nout 3 \"o\"\n")
          .ok())
      << "fan-in out of range";
  // Oversized / non-numeric pin ids must return Status, never throw.
  EXPECT_FALSE(ParseNetlist("cfgtag-netlist-v1\n2 i \"a\"\n"
                            "3 r d=99999999999999999999999 en=- init=0\n"
                            "out 3 \"o\"\n")
                   .ok());
  EXPECT_FALSE(ParseNetlist("cfgtag-netlist-v1\n2 i \"a\"\n"
                            "3 r d=2 en=x init=0\nout 3 \"o\"\n")
                   .ok());
}

TEST(SerializeTest, ValidateRejectsCombinationalForwardRefs) {
  // A gate referencing a later node must be rejected (only registers may
  // close feedback loops).
  auto loaded = ParseNetlist(
      "cfgtag-netlist-v1\n"
      "2 i \"a\"\n"
      "3 a 2 4\n"
      "4 n 2\n"
      "out 3 \"o\"\n");
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace cfgtag::rtl
