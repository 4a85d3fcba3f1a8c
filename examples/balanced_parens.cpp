// The paper's first worked example (Fig. 1/2): "0" in balanced
// parentheses. Demonstrates the central design decision of §3.1 — the
// push-down automaton is collapsed into a finite automaton, so the
// hardware tags a *superset* of the grammar's language: every balanced
// string tags exactly like the true parser, and unbalanced strings are
// still tagged token-by-token instead of being rejected.
//
// Build & run:  ./build/examples/balanced_parens

#include <cstdio>

#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "reference/ll_parser.h"

int main() {
  using namespace cfgtag;

  // Fig. 1: E -> ( E ) | 0
  const char* text = R"grm(
%%
e: "(" e ")" | "0";
%%
)grm";
  auto grammar = grammar::ParseGrammar(text);
  grammar::Grammar for_parser = grammar->Clone();
  auto parser = tagger::PredictiveParser::Create(&for_parser, {});
  auto tagger = core::CompiledTagger::Compile(std::move(grammar).value());
  if (!tagger.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 tagger.status().ToString().c_str());
    return 1;
  }

  const std::vector<const char*> inputs = {
      "0", "(0)", "((0))", "(((0)))",  // balanced: in the language
      "((0)",                          // missing ')': rejected by the PDA
      "(0))",                          // extra ')': rejected by the PDA
      ")0(",                           // nonsense
  };

  std::printf("%-12s | %-12s | %-10s | %s\n", "input", "true parser",
              "FSA tags", "FSA tag stream");
  for (const char* input : inputs) {
    const bool accepted = parser->Accepts(input);
    auto tags = tagger->Tag(input);
    std::string stream;
    for (const tagger::Tag& t : tags) {
      stream += tagger->grammar().tokens()[t.token].name + " ";
    }
    std::printf("%-12s | %-12s | %-10zu | %s\n", input,
                accepted ? "accepts" : "rejects", tags.size(),
                stream.c_str());
  }

  std::printf(
      "\nThe FSA (paper Fig. 2b) accepts a superset: on \"((0)\" it tags\n"
      "every token although the grammar requires balanced parentheses —\n"
      "the recursion state that would catch this was deliberately not\n"
      "implemented (\"we assume that the data already conforms to the\n"
      "grammar\", §3.1).\n");
  return 0;
}
