#include "reference/ll_parser.h"

#include <algorithm>

#include "common/strings.h"
#include "regex/nfa.h"

namespace cfgtag::tagger {

PredictiveParser::PredictiveParser(const grammar::Grammar* grammar,
                                   TaggerOptions options)
    : grammar_(grammar), options_(options) {}

StatusOr<PredictiveParser> PredictiveParser::Create(
    const grammar::Grammar* grammar, const TaggerOptions& options) {
  CFGTAG_ASSIGN_OR_RETURN(auto analysis, grammar::Analyze(*grammar));
  PredictiveParser p(grammar, options);
  p.analysis_ = std::move(analysis);
  for (const grammar::TokenDef& def : grammar->tokens()) {
    p.automata_.push_back(regex::PositionAutomaton::Build(*def.regex));
  }

  // Build the LL(1) table: for production X -> alpha, every token in
  // First(alpha) selects it; if alpha is nullable, every token in
  // Follow(X) (including end-of-input) selects it too.
  p.stride_ = grammar->NumTokens() + 1;
  p.table_.assign(grammar->NumNonterminals() * p.stride_, -1);
  auto set_entry = [&](int32_t nt, int32_t token, int32_t prod) -> Status {
    int32_t& cell = p.table_[static_cast<size_t>(nt) * p.stride_ +
                             static_cast<size_t>(token + 1)];
    if (cell != -1 && cell != prod) {
      return FailedPreconditionError(
          "grammar is not LL(1): conflict on (" +
          grammar->nonterminals()[nt] + ", " +
          (token == grammar::Analysis::kEndMarker
               ? std::string("$end")
               : grammar->tokens()[token].name) +
          ")");
    }
    cell = prod;
    return Status::Ok();
  };
  for (size_t pi = 0; pi < grammar->productions().size(); ++pi) {
    const grammar::Production& prod = grammar->productions()[pi];
    auto [first, nullable] = p.analysis_.FirstOfSequence(prod.rhs, 0);
    for (int32_t t : first) {
      CFGTAG_RETURN_IF_ERROR(
          set_entry(prod.lhs, t, static_cast<int32_t>(pi)));
    }
    if (nullable) {
      for (int32_t t : p.analysis_.follow_nt[prod.lhs]) {
        CFGTAG_RETURN_IF_ERROR(
            set_entry(prod.lhs, t, static_cast<int32_t>(pi)));
      }
    }
  }
  return p;
}

size_t PredictiveParser::MatchTokenAt(int32_t t, std::string_view input,
                                      size_t pos) const {
  const regex::PositionAutomaton& pa = automata_[t];
  const size_t nw = pa.NumWords();
  std::vector<uint64_t> state(nw, 0), next(nw, 0);
  size_t best = regex::Nfa::kNoMatch;
  bool first_step = true;
  for (size_t i = pos; i < input.size(); ++i) {
    pa.StepState(state.data(), first_step, static_cast<unsigned char>(input[i]),
                 next.data());
    first_step = false;
    bool dead = true;
    for (size_t w = 0; w < nw; ++w) dead &= next[w] == 0;
    if (dead) break;
    if (pa.Accepts(next.data())) best = i - pos + 1;
    state.swap(next);
  }
  return best;
}

StatusOr<std::vector<Tag>> PredictiveParser::Parse(
    std::string_view input) const {
  std::vector<Tag> tags;
  std::vector<grammar::Symbol> stack;
  stack.push_back(grammar::Symbol::Nonterminal(grammar_->start()));

  size_t pos = 0;
  auto skip_delims = [&] {
    while (pos < input.size() &&
           options_.delimiters.Test(static_cast<unsigned char>(input[pos]))) {
      ++pos;
    }
  };

  // Resolves the lookahead token at `pos` among `candidates` (token ids);
  // returns {token, length} or {-1, 0}.
  auto lex = [&](const std::vector<int32_t>& candidates)
      -> std::pair<int32_t, size_t> {
    int32_t best_tok = -1;
    size_t best_len = 0;
    for (int32_t t : candidates) {
      const size_t len = MatchTokenAt(t, input, pos);
      if (len != regex::Nfa::kNoMatch && len > best_len) {
        best_len = len;
        best_tok = t;
      }
    }
    return {best_tok, best_len};
  };

  while (!stack.empty()) {
    skip_delims();
    const grammar::Symbol top = stack.back();
    if (top.IsTerminal()) {
      const size_t len = MatchTokenAt(top.index, input, pos);
      if (len == regex::Nfa::kNoMatch || len == 0) {
        return InvalidArgumentError(
            "parse error at offset " + std::to_string(pos) + ": expected " +
            grammar_->tokens()[top.index].name);
      }
      stack.pop_back();
      Tag tag;
      tag.token = top.index;
      tag.end = pos + len - 1;
      tag.length = static_cast<uint32_t>(len);
      tags.push_back(tag);
      pos += len;
      continue;
    }
    // Nonterminal: find the lookahead among the tokens this nonterminal can
    // accept, then expand via the LL(1) table.
    std::vector<int32_t> candidates;
    for (size_t t = 0; t < grammar_->NumTokens(); ++t) {
      if (Lookup(top.index, static_cast<int32_t>(t)) != -1) {
        candidates.push_back(static_cast<int32_t>(t));
      }
    }
    int32_t lookahead = grammar::Analysis::kEndMarker;
    if (pos < input.size()) {
      auto [tok, len] = lex(candidates);
      if (tok >= 0) {
        lookahead = tok;
      } else if (Lookup(top.index, grammar::Analysis::kEndMarker) == -1) {
        return InvalidArgumentError(
            "parse error at offset " + std::to_string(pos) +
            ": no viable token for " + grammar_->nonterminals()[top.index]);
      }
    }
    const int32_t prod = Lookup(top.index, lookahead);
    if (prod == -1) {
      return InvalidArgumentError(
          "parse error at offset " + std::to_string(pos) + ": " +
          grammar_->nonterminals()[top.index] + " cannot derive the input");
    }
    stack.pop_back();
    const grammar::Production& production = grammar_->productions()[prod];
    for (auto it = production.rhs.rbegin(); it != production.rhs.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  skip_delims();
  if (pos != input.size()) {
    return InvalidArgumentError("trailing input at offset " +
                                std::to_string(pos));
  }
  return tags;
}

}  // namespace cfgtag::tagger
