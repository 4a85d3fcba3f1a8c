#include "reference/lexer.h"

#include <algorithm>
#include <map>

#include "regex/position_automaton.h"

namespace cfgtag::tagger {

StatusOr<Lexer> Lexer::Create(const grammar::Grammar* grammar) {
  CFGTAG_RETURN_IF_ERROR(grammar->Validate());

  // Union automaton over global Glushkov positions.
  std::vector<regex::PositionAutomaton> automata;
  std::vector<size_t> offset = {0};
  for (const grammar::TokenDef& def : grammar->tokens()) {
    automata.push_back(regex::PositionAutomaton::Build(*def.regex));
    offset.push_back(offset.back() + automata.back().NumPositions());
  }
  const size_t total = offset.back();

  struct GlobalPos {
    const regex::CharClass* cls;
    int32_t token;
    bool is_last;
    const std::vector<uint32_t>* follow;  // local ids within the token
    size_t base;                          // global id of local position 0
  };
  std::vector<GlobalPos> pos(total);
  for (size_t t = 0; t < automata.size(); ++t) {
    const regex::PositionAutomaton& pa = automata[t];
    for (size_t p = 0; p < pa.NumPositions(); ++p) {
      GlobalPos& g = pos[offset[t] + p];
      g.cls = &pa.positions[p];
      g.token = static_cast<int32_t>(t);
      g.is_last = pa.is_last[p] != 0;
      g.follow = &pa.follow[p];
      g.base = offset[t];
    }
  }
  // The initial move: all first positions of all tokens.
  std::vector<uint32_t> initial;
  for (size_t t = 0; t < automata.size(); ++t) {
    for (uint32_t p : automata[t].first) {
      initial.push_back(static_cast<uint32_t>(offset[t] + p));
    }
  }
  std::sort(initial.begin(), initial.end());

  Lexer lexer;
  std::map<std::vector<uint32_t>, uint32_t> subset_id;
  std::vector<std::vector<uint32_t>> worklist;

  auto intern = [&](std::vector<uint32_t> set) {
    auto [it, inserted] =
        subset_id.emplace(std::move(set),
                          static_cast<uint32_t>(subset_id.size()));
    if (inserted) {
      worklist.push_back(it->first);
      lexer.trans_.emplace_back();
      lexer.trans_.back().fill(kDead);
      // Earliest accepting token wins (flex tie-break).
      int32_t acc = -1;
      for (uint32_t g : it->first) {
        if (pos[g].is_last && (acc == -1 || pos[g].token < acc)) {
          acc = pos[g].token;
        }
      }
      lexer.accept_.push_back(acc);
    }
    return it->second;
  };

  // State 0: the start state, reached before consuming any byte. Its
  // outgoing transitions inject `initial`.
  lexer.start_ = intern({});  // empty set marks "at token start"
  for (size_t w = 0; w < worklist.size(); ++w) {
    const std::vector<uint32_t> current = worklist[w];
    const uint32_t cur_id = subset_id.at(current);
    const bool is_start = current.empty();
    const std::vector<uint32_t>& sources = is_start ? initial : current;
    for (int c = 0; c < 256; ++c) {
      std::vector<uint32_t> next;
      if (is_start) {
        for (uint32_t g : sources) {
          if (pos[g].cls->Test(static_cast<unsigned char>(c))) {
            next.push_back(g);
          }
        }
      } else {
        for (uint32_t g : sources) {
          for (uint32_t f : *pos[g].follow) {
            const uint32_t gf = static_cast<uint32_t>(pos[g].base + f);
            if (pos[gf].cls->Test(static_cast<unsigned char>(c))) {
              next.push_back(gf);
            }
          }
        }
      }
      if (next.empty()) continue;
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      lexer.trans_[cur_id][c] = static_cast<int32_t>(intern(std::move(next)));
    }
  }
  return lexer;
}

std::vector<Tag> Lexer::Lex(std::string_view input) const {
  uint64_t skipped = 0;
  return Lex(input, &skipped);
}

std::vector<Tag> Lexer::Lex(std::string_view input,
                            uint64_t* skipped_bytes) const {
  std::vector<Tag> tags;
  *skipped_bytes = 0;
  size_t at = 0;
  while (at < input.size()) {
    const unsigned char c = static_cast<unsigned char>(input[at]);
    if (options_.delimiters.Test(c)) {
      ++at;
      continue;
    }
    // Maximal munch from `at`.
    int32_t state = static_cast<int32_t>(start_);
    int32_t best_token = -1;
    size_t best_len = 0;
    for (size_t i = at; i < input.size(); ++i) {
      state = trans_[state][static_cast<unsigned char>(input[i])];
      if (state == kDead) break;
      if (accept_[state] >= 0) {
        best_token = accept_[state];
        best_len = i - at + 1;
      }
    }
    if (best_token < 0) {
      ++*skipped_bytes;
      ++at;
      continue;
    }
    Tag tag;
    tag.token = best_token;
    tag.end = at + best_len - 1;
    tag.length = static_cast<uint32_t>(best_len);
    tags.push_back(tag);
    at += best_len;
  }
  return tags;
}

}  // namespace cfgtag::tagger
