#include "regex/position_automaton.h"

#include <algorithm>

namespace cfgtag::regex {

namespace {

// Per-subexpression summary used during construction.
struct Frag {
  std::vector<uint32_t> first;
  std::vector<uint32_t> last;
  bool nullable = false;
};

std::vector<uint32_t> UnionSorted(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

struct Builder {
  PositionAutomaton* out;

  void AddFollow(const std::vector<uint32_t>& from,
                 const std::vector<uint32_t>& to) {
    for (uint32_t p : from) {
      auto& f = out->follow[p];
      for (uint32_t q : to) f.push_back(q);
    }
  }

  Frag Build(const RegexNode& re) {
    switch (re.kind) {
      case RegexNode::Kind::kEpsilon:
        return Frag{{}, {}, true};
      case RegexNode::Kind::kLiteral: {
        const uint32_t p = static_cast<uint32_t>(out->positions.size());
        out->positions.push_back(re.char_class);
        out->follow.emplace_back();
        return Frag{{p}, {p}, false};
      }
      case RegexNode::Kind::kConcat: {
        Frag acc{{}, {}, true};
        for (const auto& child : re.children) {
          Frag f = Build(*child);
          AddFollow(acc.last, f.first);
          if (acc.nullable) acc.first = UnionSorted(acc.first, f.first);
          acc.last =
              f.nullable ? UnionSorted(acc.last, f.last) : std::move(f.last);
          acc.nullable = acc.nullable && f.nullable;
        }
        return acc;
      }
      case RegexNode::Kind::kAlternate: {
        Frag acc{{}, {}, false};
        for (const auto& child : re.children) {
          Frag f = Build(*child);
          acc.first = UnionSorted(acc.first, f.first);
          acc.last = UnionSorted(acc.last, f.last);
          acc.nullable = acc.nullable || f.nullable;
        }
        return acc;
      }
      case RegexNode::Kind::kStar:
      case RegexNode::Kind::kPlus: {
        Frag f = Build(*re.children[0]);
        AddFollow(f.last, f.first);
        f.nullable = f.nullable || re.kind == RegexNode::Kind::kStar;
        return f;
      }
      case RegexNode::Kind::kOptional: {
        Frag f = Build(*re.children[0]);
        f.nullable = true;
        return f;
      }
    }
    return Frag{{}, {}, true};
  }
};

}  // namespace

PositionAutomaton PositionAutomaton::Build(const RegexNode& re) {
  PositionAutomaton pa;
  Builder b{&pa};
  Frag root = b.Build(re);
  pa.first = std::move(root.first);
  pa.is_last.assign(pa.positions.size(), 0);
  for (uint32_t p : root.last) pa.is_last[p] = 1;
  pa.nullable = root.nullable;
  // Dedup follow lists (Plus/Star can insert duplicates).
  for (auto& f : pa.follow) {
    std::sort(f.begin(), f.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
  }
  return pa;
}

template <typename F>
bool PositionAutomaton::AnyLive(const uint64_t* state, F f) const {
  const size_t np = positions.size();
  for (size_t w = 0; w < NumWords(); ++w) {
    uint64_t bits = state[w];
    while (bits) {
      const uint32_t p = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      bits &= bits - 1;
      if (p >= np) break;
      if (f(p)) return true;
    }
  }
  return false;
}

void PositionAutomaton::StepState(const uint64_t* state, bool inject,
                                  unsigned char c,
                                  uint64_t* next_state) const {
  for (size_t w = 0; w < NumWords(); ++w) next_state[w] = 0;
  auto enter = [&](uint32_t q) {
    if (positions[q].Test(c)) next_state[q / 64] |= 1ULL << (q % 64);
  };
  AnyLive(state, [&](uint32_t p) {
    for (uint32_t q : follow[p]) enter(q);
    return false;
  });
  if (inject) {
    for (uint32_t q : first) enter(q);
  }
}

bool PositionAutomaton::Accepts(const uint64_t* state) const {
  return AnyLive(state, [this](uint32_t p) { return is_last[p] != 0; });
}

bool PositionAutomaton::CanExtend(const uint64_t* state,
                                  unsigned char c) const {
  return AnyLive(state, [this, c](uint32_t p) {
    if (!is_last[p]) return false;
    for (uint32_t q : follow[p]) {
      if (positions[q].Test(c)) return true;
    }
    return false;
  });
}

}  // namespace cfgtag::regex
