// Property tests: on randomly generated grammars and inputs, the engines
// must relate as the paper claims —
//   * the cycle-accurate netlist, the functional reference model and the
//     production engine behind CompiledTagger::Tag are bit-identical (they
//     implement the same machine), under every option combination;
//   * on inputs accepted by the true (LL) parser, the hardware tag stream
//     is a superset of the parser's tag stream (§3.1 FSA collapse).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>

#include "common/rng.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "oracle.h"
#include "reference/ll_parser.h"

namespace cfgtag {
namespace {

using core::CompiledTagger;
using grammar::Grammar;
using grammar::Symbol;
using tagger::ArmMode;
using tagger::Tag;

// Builds a random grammar: a handful of literal and class tokens wired into
// random right-linear-ish productions (kept LL-friendly but not always
// LL(1) — the LL check is skipped when table construction fails).
Grammar RandomGrammar(Rng& rng) {
  Grammar g;
  const int num_lits = 2 + static_cast<int>(rng.NextIndex(3));
  std::vector<int32_t> tokens;
  for (int i = 0; i < num_lits; ++i) {
    // Distinct literal spellings.
    std::string text;
    text.push_back(static_cast<char>('a' + i));
    text += rng.NextString(1 + rng.NextIndex(3), "xyz");
    auto t = g.AddLiteralToken(text);
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.6)) {
    auto t = g.AddToken("NUM", "[0-9]+");
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.4)) {
    auto t = g.AddToken("HEX", "[a-f][a-f0-9]*");
    if (t.ok()) tokens.push_back(*t);
  }

  const int num_nts = 2 + static_cast<int>(rng.NextIndex(2));
  std::vector<int32_t> nts;
  for (int i = 0; i < num_nts; ++i) {
    nts.push_back(g.AddNonterminal("n" + std::to_string(i)));
  }
  // Every nonterminal gets 1-2 productions; rule bodies start with a token
  // (keeps First sets simple) and may reference later nonterminals.
  for (int i = 0; i < num_nts; ++i) {
    const int alts = 1 + static_cast<int>(rng.NextIndex(2));
    for (int a = 0; a < alts; ++a) {
      std::vector<Symbol> rhs;
      rhs.push_back(Symbol::Terminal(
          tokens[rng.NextIndex(tokens.size())]));
      const int extra = static_cast<int>(rng.NextIndex(3));
      for (int e = 0; e < extra; ++e) {
        if (rng.NextBool(0.35) && i + 1 < num_nts) {
          rhs.push_back(Symbol::Nonterminal(
              nts[i + 1 + rng.NextIndex(num_nts - i - 1)]));
        } else {
          rhs.push_back(Symbol::Terminal(
              tokens[rng.NextIndex(tokens.size())]));
        }
      }
      g.AddProduction(nts[i], std::move(rhs));
    }
  }
  g.SetStart(nts[0]);
  return g;
}

// Derives a random sentence from the grammar (depth-bounded), with random
// whitespace between tokens.
std::string RandomSentence(const Grammar& g, Rng& rng) {
  std::string out;
  std::function<void(int32_t, int)> derive = [&](int32_t nt, int depth) {
    // Pick a production of nt (prefer token-only ones when deep).
    std::vector<const grammar::Production*> prods;
    for (const auto& p : g.productions()) {
      if (p.lhs == nt) prods.push_back(&p);
    }
    const grammar::Production* pick =
        prods[rng.NextIndex(prods.size())];
    if (depth > 6) {
      for (const auto* p : prods) {
        bool token_only = true;
        for (const Symbol& s : p->rhs) token_only &= s.IsTerminal();
        if (token_only) {
          pick = p;
          break;
        }
      }
    }
    for (const Symbol& s : pick->rhs) {
      if (rng.NextBool(0.4)) out.append(rng.NextIndex(2) + 1, ' ');
      if (s.IsTerminal()) {
        const grammar::TokenDef& def = g.tokens()[s.index];
        if (def.is_literal) {
          out += def.literal_text;
        } else if (def.name == "NUM") {
          out += std::to_string(rng.NextIndex(10000));
        } else {  // HEX
          out += "a" + rng.NextString(rng.NextIndex(4), "abcdef0123456789");
        }
      } else {
        derive(s.index, depth + 1);
      }
    }
  };
  derive(g.start(), 0);
  return out;
}

struct EquivCase {
  uint64_t seed;
  bool longest_match;
  ArmMode arm_mode;
};

// Readable, deterministic test names (the default printer dumps the
// struct's raw bytes, padding included).
void PrintTo(const EquivCase& c, std::ostream* os) {
  static const char* const kModes[] = {"anchored", "scan", "resync"};
  *os << "seed" << c.seed << (c.longest_match ? "_lm_" : "_nolm_")
      << kModes[static_cast<int>(c.arm_mode)];
}

class EquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EquivalenceTest, NetlistMatchesFunctionalModel) {
  const EquivCase c = GetParam();
  Rng rng(c.seed * 1000003 + 17);
  Grammar g = RandomGrammar(rng);
  ASSERT_TRUE(g.Validate().ok());

  hwgen::HwOptions opt;
  opt.tagger.longest_match = c.longest_match;
  opt.tagger.arm_mode = c.arm_mode;
  Grammar g_input = g.Clone();
  auto compiled = CompiledTagger::Compile(std::move(g_input), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto design = core::HardwareDesign::Create(g, opt);
  ASSERT_TRUE(design.ok()) << design.status();

  for (int round = 0; round < 4; ++round) {
    // Half conforming sentences, half random garbage.
    const std::string input =
        round % 2 == 0 ? RandomSentence(g, rng)
                       : rng.NextString(rng.NextIndex(40), "abxyz 0<>/");
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    auto oracle = testing_oracle::OracleTags(g, opt.tagger, input);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(*oracle, *hw)
        << "seed=" << c.seed << " lm=" << c.longest_match
        << " mode=" << static_cast<int>(c.arm_mode) << " input='" << input
        << "'";
    EXPECT_EQ(compiled->Tag(input), *hw)
        << "seed=" << c.seed << " lm=" << c.longest_match
        << " mode=" << static_cast<int>(c.arm_mode) << " input='" << input
        << "'";
  }
}

TEST_P(EquivalenceTest, HardwareTagsSupersetOfLlParser) {
  const EquivCase c = GetParam();
  if (c.arm_mode != ArmMode::kAnchored) {
    GTEST_SKIP() << "LL comparison only in parse mode";
  }
  Rng rng(c.seed * 7 + 3);
  Grammar g = RandomGrammar(rng);
  ASSERT_TRUE(g.Validate().ok());

  Grammar g2 = g.Clone();
  auto parser = tagger::PredictiveParser::Create(&g2, {});
  if (!parser.ok()) GTEST_SKIP() << "grammar not LL(1): " << parser.status();

  hwgen::HwOptions opt;
  opt.tagger.longest_match = c.longest_match;
  auto compiled = CompiledTagger::Compile(g.Clone(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  for (int round = 0; round < 4; ++round) {
    const std::string input = RandomSentence(g, rng);
    auto ll = parser->Parse(input);
    if (!ll.ok()) continue;  // lexing ambiguity in a random grammar
    auto hw = compiled->Tag(input);
    for (const Tag& t : *ll) {
      EXPECT_TRUE(std::find(hw.begin(), hw.end(), t) != hw.end())
          << "missing token " << g.tokens()[t.token].name << " end=" << t.end
          << " input='" << input << "'";
    }
  }
}

std::vector<EquivCase> MakeCases() {
  std::vector<EquivCase> cases;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    cases.push_back({seed, true, ArmMode::kAnchored});
    cases.push_back({seed, false, ArmMode::kAnchored});
    cases.push_back({seed, true, ArmMode::kScan});
    cases.push_back({seed, true, ArmMode::kResync});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGrammars, EquivalenceTest,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace cfgtag
