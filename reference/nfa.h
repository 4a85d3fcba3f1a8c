#ifndef CFGTAG_REFERENCE_NFA_H_
#define CFGTAG_REFERENCE_NFA_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "regex/regex_ast.h"

namespace cfgtag::regex {

// Thompson-construction NFA: the matching oracle the position automaton
// (the tokenizers' structure) is cross-checked against. A reference model,
// not part of the product; it keeps the regex namespace of the AST it
// compiles.
class Nfa {
 public:
  static constexpr size_t kNoMatch = static_cast<size_t>(-1);

  struct Transition {
    CharClass on;
    uint32_t to;
  };
  struct State {
    std::vector<Transition> arcs;
    std::vector<uint32_t> eps;
  };

  static Nfa Build(const RegexNode& re);

  bool FullMatch(std::string_view input) const;

  // Length of the longest prefix of input[pos..] this NFA matches, or
  // kNoMatch if no prefix (including the empty one) matches.
  size_t LongestPrefixMatch(std::string_view input, size_t pos) const;

  size_t NumStates() const { return states_.size(); }

 private:
  // Adds eps-reachable states of `from` into `set` (a membership bitmap +
  // worklist pattern).
  void EpsClosure(std::vector<uint32_t>& worklist,
                  std::vector<uint8_t>& member) const;

  std::vector<State> states_;
  uint32_t start_ = 0;
  uint32_t accept_ = 0;
};

}  // namespace cfgtag::regex

#endif  // CFGTAG_REFERENCE_NFA_H_
