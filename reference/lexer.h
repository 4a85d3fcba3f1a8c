#ifndef CFGTAG_REFERENCE_LEXER_H_
#define CFGTAG_REFERENCE_LEXER_H_

#include <array>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "grammar/grammar.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

// A classic context-free lexer (what flex generates): one combined DFA over
// *all* token patterns, maximal munch, earliest-token priority on ties.
// This is the "traditional software" baseline: it has no grammatical
// context, so the same byte sequence always lexes to the same token
// regardless of position — precisely the limitation the paper's
// follow-wired tokenizers remove.
class Lexer {
 public:
  // Builds the combined DFA from the grammar's token list (subset
  // construction over the union of the tokens' automata; each DFA state
  // remembers the highest-priority accepting token).
  static StatusOr<Lexer> Create(const grammar::Grammar* grammar);

  // Greedy tokenization: at each position skip delimiters, take the
  // longest match among all tokens (earliest token id wins ties), emit a
  // tag, continue after it. A byte that starts no token is skipped
  // silently (flex's default ECHO-and-continue, minus the echo).
  std::vector<Tag> Lex(std::string_view input) const;

  // Like Lex, but reports the number of bytes that were skipped because
  // they started no token (a cheap malformedness signal).
  std::vector<Tag> Lex(std::string_view input, uint64_t* skipped_bytes) const;

  size_t NumDfaStates() const { return accept_.size(); }

  const TaggerOptions& options() const { return options_; }

 private:
  Lexer() = default;

  static constexpr int32_t kDead = -1;

  std::vector<std::array<int32_t, 256>> trans_;
  // accept_[state] = token id accepted in this state, or -1.
  std::vector<int32_t> accept_;
  uint32_t start_ = 0;
  TaggerOptions options_;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_REFERENCE_LEXER_H_
