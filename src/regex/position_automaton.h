#ifndef CFGTAG_REGEX_POSITION_AUTOMATON_H_
#define CFGTAG_REGEX_POSITION_AUTOMATON_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "regex/regex_ast.h"

namespace cfgtag::regex {

// Glushkov position automaton of a regex: one state per kLiteral position,
// no epsilon transitions. This is precisely the hardware structure of the
// paper's tokenizers (§3.2): one pipeline register per pattern byte, with
// an AND gate combining the decoded character and the predecessor
// registers. The generator emits one register per `positions` entry, wires
// `follow` edges as its OR/AND network, injects the arm signal into
// `first` positions, and takes the match output from `last` positions.
struct PositionAutomaton {
  // Character class consumed when *entering* each position.
  std::vector<CharClass> positions;
  // follow[p] = positions reachable immediately after p.
  std::vector<std::vector<uint32_t>> follow;
  // Positions that can start a match.
  std::vector<uint32_t> first;
  // is_last[p] != 0 iff a match can end at p.
  std::vector<uint8_t> is_last;
  // Whether the regex matches the empty string (rejected for tokens).
  bool nullable = false;

  static PositionAutomaton Build(const RegexNode& re);

  size_t NumPositions() const { return positions.size(); }

  // --- Bit-parallel software execution (used by the functional model) ---
  // States are bitmaps over positions, stored in 64-bit words. The steps
  // read only the members above, so concurrent callers on one automaton
  // need no synchronization.
  size_t NumWords() const { return (positions.size() + 63) / 64; }

  // state' = { q in follow(p) : p in state, c in class(q) }
  //          u { q in first : inject, c in class(q) }
  void StepState(const uint64_t* state, bool inject, unsigned char c,
                 uint64_t* next_state) const;

  // True if any position in `state` is accepting.
  bool Accepts(const uint64_t* state) const;

  // True if some transition out of an *accepting* live position consumes
  // `c` — the Fig. 7 longest-match look-ahead condition ("this detection is
  // not the longest: the accepted run keeps going").
  bool CanExtend(const uint64_t* state, unsigned char c) const;

 private:
  // Calls `f(p)` for each live position p of `state` until one returns
  // true; returns whether one did.
  template <typename F>
  bool AnyLive(const uint64_t* state, F f) const;
};

}  // namespace cfgtag::regex

#endif  // CFGTAG_REGEX_POSITION_AUTOMATON_H_
