#include "reference/nfa.h"

#include <algorithm>
#include <utility>

namespace cfgtag::regex {

namespace {

// Recursive Thompson construction helper operating on a state vector.
struct Builder {
  std::vector<Nfa::State>* states;

  uint32_t NewState() {
    states->emplace_back();
    return static_cast<uint32_t>(states->size() - 1);
  }

  // Returns {entry, exit} for the fragment.
  std::pair<uint32_t, uint32_t> Build(const RegexNode& re) {
    switch (re.kind) {
      case RegexNode::Kind::kEpsilon: {
        const uint32_t s = NewState();
        return {s, s};
      }
      case RegexNode::Kind::kLiteral: {
        const uint32_t in = NewState();
        const uint32_t out = NewState();
        (*states)[in].arcs.push_back({re.char_class, out});
        return {in, out};
      }
      case RegexNode::Kind::kConcat: {
        uint32_t entry = 0, exit = 0;
        bool first = true;
        for (const auto& child : re.children) {
          auto [i, o] = Build(*child);
          if (first) {
            entry = i;
            first = false;
          } else {
            (*states)[exit].eps.push_back(i);
          }
          exit = o;
        }
        if (first) {  // empty concat == epsilon
          entry = exit = NewState();
        }
        return {entry, exit};
      }
      case RegexNode::Kind::kAlternate: {
        const uint32_t in = NewState();
        const uint32_t out = NewState();
        for (const auto& child : re.children) {
          auto [i, o] = Build(*child);
          (*states)[in].eps.push_back(i);
          (*states)[o].eps.push_back(out);
        }
        return {in, out};
      }
      case RegexNode::Kind::kStar: {
        const uint32_t in = NewState();
        const uint32_t out = NewState();
        auto [i, o] = Build(*re.children[0]);
        (*states)[in].eps.push_back(i);
        (*states)[in].eps.push_back(out);
        (*states)[o].eps.push_back(i);
        (*states)[o].eps.push_back(out);
        return {in, out};
      }
      case RegexNode::Kind::kPlus: {
        const uint32_t in = NewState();
        const uint32_t out = NewState();
        auto [i, o] = Build(*re.children[0]);
        (*states)[in].eps.push_back(i);
        (*states)[o].eps.push_back(i);
        (*states)[o].eps.push_back(out);
        return {in, out};
      }
      case RegexNode::Kind::kOptional: {
        const uint32_t in = NewState();
        const uint32_t out = NewState();
        auto [i, o] = Build(*re.children[0]);
        (*states)[in].eps.push_back(i);
        (*states)[in].eps.push_back(out);
        (*states)[o].eps.push_back(out);
        return {in, out};
      }
    }
    const uint32_t s = NewState();
    return {s, s};
  }
};

}  // namespace

Nfa Nfa::Build(const RegexNode& re) {
  Nfa nfa;
  Builder b{&nfa.states_};
  auto [entry, exit] = b.Build(re);
  nfa.start_ = entry;
  nfa.accept_ = exit;
  return nfa;
}

void Nfa::EpsClosure(std::vector<uint32_t>& worklist,
                     std::vector<uint8_t>& member) const {
  for (size_t i = 0; i < worklist.size(); ++i) {
    const uint32_t s = worklist[i];
    for (uint32_t t : states_[s].eps) {
      if (!member[t]) {
        member[t] = 1;
        worklist.push_back(t);
      }
    }
  }
}

size_t Nfa::LongestPrefixMatch(std::string_view input, size_t pos) const {
  std::vector<uint8_t> member(states_.size(), 0);
  std::vector<uint32_t> current;
  current.push_back(start_);
  member[start_] = 1;
  EpsClosure(current, member);

  size_t best = member[accept_] ? 0 : kNoMatch;
  std::vector<uint8_t> next_member(states_.size(), 0);
  std::vector<uint32_t> next;

  for (size_t i = pos; i < input.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(input[i]);
    next.clear();
    std::fill(next_member.begin(), next_member.end(), 0);
    for (uint32_t s : current) {
      for (const Transition& t : states_[s].arcs) {
        if (t.on.Test(c) && !next_member[t.to]) {
          next_member[t.to] = 1;
          next.push_back(t.to);
        }
      }
    }
    if (next.empty()) break;
    EpsClosure(next, next_member);
    current.swap(next);
    member.swap(next_member);
    if (member[accept_]) best = i - pos + 1;
  }
  return best;
}

bool Nfa::FullMatch(std::string_view input) const {
  // A full match exists iff some prefix match covers the whole input; the
  // longest-match scan tracks the maximal one, so compare against size.
  // (LongestPrefixMatch returns the longest, which is >= any other match,
  // and matching is monotone in no way — so check explicitly.)
  std::vector<uint8_t> member(states_.size(), 0);
  std::vector<uint32_t> current;
  current.push_back(start_);
  member[start_] = 1;
  EpsClosure(current, member);

  std::vector<uint8_t> next_member(states_.size(), 0);
  std::vector<uint32_t> next;
  for (const char ch : input) {
    const unsigned char c = static_cast<unsigned char>(ch);
    next.clear();
    std::fill(next_member.begin(), next_member.end(), 0);
    for (uint32_t s : current) {
      for (const Transition& t : states_[s].arcs) {
        if (t.on.Test(c) && !next_member[t.to]) {
          next_member[t.to] = 1;
          next.push_back(t.to);
        }
      }
    }
    if (next.empty()) return false;
    EpsClosure(next, next_member);
    current.swap(next);
    member.swap(next_member);
  }
  return member[accept_];
}

}  // namespace cfgtag::regex
