// Quantifies the paper's §3.1 design decision: collapsing the push-down
// automaton into a finite automaton (Fig. 2) makes the hardware accept a
// *superset* of the grammar. On conforming inputs the tag stream matches
// the true parser's; on non-conforming inputs the hardware keeps tagging
// where a true parser stops.
//
// Workloads: the paper's balanced-parenthesis grammar (Fig. 1) and XML-RPC.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "reference/ll_parser.h"
#include "xmlrpc/message_gen.h"

namespace cfgtag::bench {
namespace {

void BalancedParens() {
  auto g = grammar::ParseGrammar(R"grm(
%%
e: "(" e ")" | "0";
%%
)grm");
  CheckOk(g.status(), "parens grammar");
  grammar::Grammar g2 = g->Clone();
  auto parser = ValueOrDie(tagger::PredictiveParser::Create(&g2, {}),
                           "parser");
  auto tagger = ValueOrDie(
      core::CompiledTagger::Compile(std::move(g).value()), "compile");

  std::printf(
      "Balanced parentheses (paper Fig. 1/2: PDA collapsed to FSA)\n\n");
  std::printf("%8s | %10s %12s | %12s %12s\n", "depth", "accepted",
              "tags==LL", "rejected", "FSA tags");

  Rng rng(7);
  for (int depth : {1, 2, 4, 8, 16}) {
    // Balanced input: ('^depth' 0 ')'^depth; unbalanced: drop one ')'.
    std::string balanced(depth, '(');
    balanced += "0";
    balanced.append(depth, ')');
    std::string unbalanced = balanced.substr(0, balanced.size() - 1);

    auto ll = parser.Parse(balanced);
    CheckOk(ll.status(), "parse balanced");
    auto fsa = tagger.Tag(balanced);
    const bool tags_equal = fsa.size() == ll->size();

    const bool rejected = !parser.Accepts(unbalanced);
    auto fsa_unbalanced = tagger.Tag(unbalanced);
    std::printf("%8d | %10s %12s | %12s %12zu\n", depth, "yes",
                tags_equal ? "yes" : "NO", rejected ? "yes" : "NO",
                fsa_unbalanced.size());
  }
  std::printf(
      "\nThe FSA tags all %s tokens of the unbalanced input although the\n"
      "true parser rejects it — the §3.1 superset behaviour (harmless under\n"
      "the paper's conforming-input assumption).\n\n",
      "2*depth");
}

void XmlRpcSuperset() {
  auto g = xmlrpc::XmlRpcGrammar();
  CheckOk(g.status(), "grammar");
  grammar::Grammar g2 = g->Clone();
  auto parser = ValueOrDie(tagger::PredictiveParser::Create(&g2, {}),
                           "parser");
  auto tagger = ValueOrDie(
      core::CompiledTagger::Compile(std::move(g).value()), "compile");

  xmlrpc::MessageGenerator gen({}, 5);
  size_t ll_total = 0, hw_total = 0, covered = 0;
  int corrupted_accepted_by_ll = 0, corrupted_tagged_by_hw = 0;
  Rng rng(13);
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    const std::string msg = gen.Generate();
    auto ll = parser.Parse(msg);
    CheckOk(ll.status(), "parse");
    auto hw = tagger.Tag(msg);
    ll_total += ll->size();
    hw_total += hw.size();
    for (const auto& t : *ll) {
      covered += std::find(hw.begin(), hw.end(), t) != hw.end();
    }

    // Corrupt the message: truncate after a random tag boundary.
    std::string corrupted = msg.substr(0, msg.size() / 2);
    corrupted_accepted_by_ll += parser.Accepts(corrupted);
    corrupted_tagged_by_hw += !tagger.Tag(corrupted).empty();
  }
  std::printf("XML-RPC superset check (%d generated messages)\n\n",
              kMessages);
  std::printf("  LL parser tags:          %zu\n", ll_total);
  std::printf("  hardware tags:           %zu\n", hw_total);
  std::printf("  LL tags covered by HW:   %zu (%.1f%%)\n", covered,
              100.0 * covered / static_cast<double>(ll_total));
  std::printf("  HW extra tags:           %zu (%.1f%% overhead)\n",
              hw_total - covered,
              100.0 * (hw_total - covered) / static_cast<double>(ll_total));
  std::printf("  truncated msgs LL-accepted: %d / %d\n",
              corrupted_accepted_by_ll, kMessages);
  std::printf("  truncated msgs HW-tagged:   %d / %d\n",
              corrupted_tagged_by_hw, kMessages);
}

}  // namespace
}  // namespace cfgtag::bench

int main() {
  cfgtag::bench::BalancedParens();
  cfgtag::bench::XmlRpcSuperset();
  return 0;
}
