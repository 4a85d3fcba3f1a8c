// Fault injection: mutate the generated netlist (stuck-at faults, gate
// substitutions, dropped fan-ins) and assert that the verification
// machinery — random-vector equivalence and tag comparison — actually
// catches the corruption. A verifier that never fails on broken hardware
// is worthless; these tests measure its teeth.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "rtl/optimize.h"
#include "rtl/serialize.h"
#include "rtl/simulator.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag {
namespace {

using rtl::Netlist;
using rtl::Node;
using rtl::NodeId;
using rtl::NodeKind;

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// Clones a netlist via the serializer (exact ids), then applies `mutate`
// to the serialized text-level structure by re-parsing and patching nodes
// through a rebuilt Netlist. Returns nullopt if the mutation produced an
// invalid netlist (rejected by Validate) — callers then pick another site.
struct Mutator {
  // Kinds of single-site faults.
  enum class Fault { kStuckAt0, kStuckAt1, kAndToOr, kDropFanin, kFlipInit };

  // Applies the fault at gate/register index `site` (counted over eligible
  // nodes). Returns the mutated netlist or an error if inapplicable.
  static StatusOr<Netlist> Apply(const Netlist& input, Fault fault,
                                 size_t site) {
    // Round-trip through the serializer to get a private, editable copy.
    auto copy = rtl::ParseNetlist(rtl::SerializeNetlist(input));
    CFGTAG_RETURN_IF_ERROR(copy.status());

    // Serialize/parse again with a patch applied at text level is brittle;
    // instead rebuild node-by-node with the fault applied.
    const Netlist& src = *copy;
    Netlist out;
    size_t seen = 0;
    bool applied = false;
    std::vector<NodeId> map(src.NumNodes(), rtl::kInvalidNode);
    map[0] = 0;
    map[1] = 1;
    // Pass 1: registers as placeholders.
    for (NodeId id = 2; id < src.NumNodes(); ++id) {
      const Node& n = src.node(id);
      if (n.kind == NodeKind::kReg) {
        bool init = n.init;
        if (fault == Fault::kFlipInit && seen++ == site) {
          init = !init;
          applied = true;
        }
        map[id] = out.RegPlaceholder(rtl::kInvalidNode, init, n.name);
      }
    }
    // Pass 2: everything else in order.
    for (NodeId id = 2; id < src.NumNodes(); ++id) {
      const Node& n = src.node(id);
      if (n.kind == NodeKind::kReg) continue;
      if (n.kind == NodeKind::kInput) {
        map[id] = out.AddInput(n.name);
        continue;
      }
      std::vector<NodeId> fanin;
      for (NodeId f : n.fanin) fanin.push_back(map[f]);
      NodeKind kind = n.kind;
      const bool is_gate = kind == NodeKind::kAnd || kind == NodeKind::kOr;
      if (is_gate) {
        const size_t my_site = seen++;
        if (my_site == site) {
          applied = true;
          switch (fault) {
            case Fault::kStuckAt0:
              map[id] = out.Const0();
              continue;
            case Fault::kStuckAt1:
              map[id] = out.Const1();
              continue;
            case Fault::kAndToOr:
              kind = kind == NodeKind::kAnd ? NodeKind::kOr : NodeKind::kAnd;
              break;
            case Fault::kDropFanin:
              if (fanin.size() > 2) fanin.pop_back();
              break;
            case Fault::kFlipInit:
              break;  // handled in pass 1
          }
        }
      }
      switch (kind) {
        case NodeKind::kAnd: map[id] = out.And(fanin); break;
        case NodeKind::kOr: map[id] = out.Or(fanin); break;
        case NodeKind::kNot: map[id] = out.Not(fanin[0]); break;
        case NodeKind::kXor: map[id] = out.Xor(fanin[0], fanin[1]); break;
        case NodeKind::kBuf: map[id] = out.Buf(fanin[0], n.name); break;
        default: break;
      }
    }
    // Pass 3: register pins.
    for (NodeId id = 2; id < src.NumNodes(); ++id) {
      const Node& n = src.node(id);
      if (n.kind != NodeKind::kReg) continue;
      out.SetRegD(map[id], map[n.fanin[0]]);
      if (n.enable != rtl::kInvalidNode) {
        out.SetRegEnable(map[id], map[n.enable]);
      }
    }
    for (const rtl::OutputPort& port : src.outputs()) {
      out.MarkOutput(map[port.node], port.name);
    }
    if (!applied) return NotFoundError("site out of range");
    CFGTAG_RETURN_IF_ERROR(out.Validate());
    return out;
  }
};

// Drives both netlists with the same byte stream (inputs matched by name
// d0..d7) and reports whether any output ever diverges. Byte-level
// stimulus exercises the decoder/chain/arm logic far more densely than
// random bit vectors, which almost never spell valid tokens.
bool DivergesOnStream(const Netlist& a, const Netlist& b,
                      const std::string& bytes) {
  auto sim_a = rtl::Simulator::Create(&a);
  auto sim_b = rtl::Simulator::Create(&b);
  EXPECT_TRUE(sim_a.ok());
  EXPECT_TRUE(sim_b.ok());
  std::vector<std::pair<NodeId, NodeId>> ins;
  for (NodeId ia : a.inputs()) {
    const NodeId ib = b.FindByName(a.node(ia).name);
    EXPECT_NE(ib, rtl::kInvalidNode);
    ins.emplace_back(ia, ib);
  }
  // 8 inputs named d0..d7, LSB first — the generator's layout.
  const std::string padded = bytes + std::string(16, '\n');
  for (char ch : padded) {
    const unsigned char c = static_cast<unsigned char>(ch);
    for (const auto& [ia, ib] : ins) {
      const int bit = a.node(ia).name[1] - '0';
      sim_a->SetInput(ia, (c >> bit) & 1);
      sim_b->SetInput(ib, (c >> bit) & 1);
    }
    sim_a->Step();
    sim_b->Step();
    for (const rtl::OutputPort& oa : a.outputs()) {
      for (const rtl::OutputPort& ob : b.outputs()) {
        if (oa.name == ob.name &&
            sim_a->Get(oa.node) != sim_b->Get(ob.node)) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(FaultInjectionTest, EquivalenceCheckerCatchesGateFaults) {
  auto design = core::HardwareDesign::Create(MustParse(R"(
NUM [0-9]+
%%
s: "<n>" NUM "</n>";
%%
)"));
  ASSERT_TRUE(design.ok());
  const Netlist& golden = design->generated().netlist;

  // Conforming stimulus covering every byte the grammar decodes (all ten
  // digits, every tag character) plus near-miss variants.
  const std::string stimulus =
      "<n>1234567890</n> <n>7</n> <x>9</x> <n>45</n <nn>1</n> "
      "<n>05</n> <n>678</n>";

  Rng rng(42);
  int caught = 0, injected = 0;
  for (auto fault : {Mutator::Fault::kStuckAt0, Mutator::Fault::kStuckAt1,
                     Mutator::Fault::kAndToOr}) {
    for (int trial = 0; trial < 6; ++trial) {
      auto mutated = Mutator::Apply(golden, fault, rng.NextIndex(60));
      if (!mutated.ok()) continue;
      ++injected;
      caught += DivergesOnStream(golden, *mutated, stimulus);
    }
  }
  ASSERT_GE(injected, 10);
  // Some faults are logically masked (e.g. inside a never-armed path), but
  // the majority must be detected.
  EXPECT_GE(caught * 100 / injected, 60) << caught << "/" << injected;
}

TEST(FaultInjectionTest, TagStreamComparisonCatchesFaultsOnRealInput) {
  // Drive the mutated netlist with real conforming input via the
  // cycle-accurate harness and compare tags — this is the stronger oracle
  // because conforming bytes exercise the arm/chain logic densely.
  auto g = MustParse(R"(
NUM [0-9]+
%%
s: "<n>" NUM "</n>";
%%
)");
  auto compiled = core::CompiledTagger::Compile(g.Clone());
  ASSERT_TRUE(compiled.ok());
  const auto golden_tags = compiled->Tag("<n>123</n>");
  auto design = core::HardwareDesign::Create(g);
  ASSERT_TRUE(design.ok());
  ASSERT_FALSE(golden_tags.empty());

  int caught = 0, injected = 0;
  for (size_t site = 0;; ++site) {
    auto mutated = Mutator::Apply(design->generated().netlist,
                                  Mutator::Fault::kStuckAt0, site);
    if (!mutated.ok()) break;  // ran out of gate sites
    ++injected;
    caught += DivergesOnStream(design->generated().netlist, *mutated,
                               "<n>1234567890</n> <n>9</n> <n>05</n>");
  }
  ASSERT_GE(injected, 20);
  EXPECT_GE(caught * 100 / injected, 50) << caught << "/" << injected;
}

TEST(FaultInjectionTest, FlippedRegisterInitIsDetected) {
  // Flipping the boot register's init kills the start pulse: the anchored
  // tagger then tags nothing — the equivalence checker must see outputs
  // diverge.
  auto design = core::HardwareDesign::Create(MustParse(R"(
%%
s: "ab";
%%
)"));
  ASSERT_TRUE(design.ok());
  const Netlist& golden = design->generated().netlist;
  int caught = 0, injected = 0;
  // Sweep every register; most init flips wash out in a cycle or two
  // (pipeline registers reload immediately), but the boot register's init
  // IS the start pulse — flipping it must kill the anchored match.
  for (size_t site = 0;; ++site) {
    auto mutated =
        Mutator::Apply(golden, Mutator::Fault::kFlipInit, site);
    if (!mutated.ok()) break;
    ++injected;
    caught += DivergesOnStream(golden, *mutated, "ab ab");
  }
  ASSERT_GE(injected, 4);
  EXPECT_GE(caught, 1);
}

}  // namespace
}  // namespace cfgtag
