#ifndef CFGTAG_REFERENCE_LL_PARSER_H_
#define CFGTAG_REFERENCE_LL_PARSER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "grammar/analysis.h"
#include "grammar/grammar.h"
#include "regex/position_automaton.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

// Table-driven predictive (LL(1)) parser built from the same First/Follow
// sets as the hardware. This is the "true parser" of paper §3.1/§3.3: it
// keeps the recursion state the hardware deliberately drops, so
//
//   * it rejects inputs that do not conform to the grammar, and
//   * its tag stream on conforming inputs is the ground truth that the
//     hardware's tag stream must be a superset of.
//
// Lexing is context-directed: at each step only the tokens the parse stack
// can accept are tried (longest match), mirroring how the hardware's
// follow-wiring restricts which tokenizers are armed.
class PredictiveParser {
 public:
  // Fails with kFailedPrecondition if the grammar is not LL(1).
  static StatusOr<PredictiveParser> Create(const grammar::Grammar* grammar,
                                           const TaggerOptions& options);

  // Parses the whole input; returns the token tags in stream order, or an
  // error describing the first point where the input leaves the language.
  StatusOr<std::vector<Tag>> Parse(std::string_view input) const;

  // True iff the input is a sentence of the grammar.
  bool Accepts(std::string_view input) const { return Parse(input).ok(); }

  const grammar::Analysis& analysis() const { return analysis_; }

  // MatchTokenAt's result when no prefix matches.
  static constexpr size_t kNoMatch = static_cast<size_t>(-1);

 private:
  PredictiveParser(const grammar::Grammar* grammar, TaggerOptions options);

  const grammar::Grammar* grammar_;
  TaggerOptions options_;
  grammar::Analysis analysis_;
  std::vector<regex::PositionAutomaton> automata_;  // per token
  // table_[nt * stride + (token+1)]: production index, -1 = error.
  // Column 0 is the end-of-input marker.
  std::vector<int32_t> table_;
  size_t stride_ = 0;

  int32_t Lookup(int32_t nt, int32_t token) const {
    return table_[static_cast<size_t>(nt) * stride_ +
                  static_cast<size_t>(token + 1)];
  }

  // Longest match of token t's automaton at input[pos..]; kNoMatch if none.
  size_t MatchTokenAt(int32_t t, std::string_view input, size_t pos) const;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_REFERENCE_LL_PARSER_H_
