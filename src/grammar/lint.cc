#include "grammar/lint.h"

#include <algorithm>
#include <set>

#include "grammar/analysis.h"
#include "regex/position_automaton.h"

namespace cfgtag::grammar {

const char* LintKindName(LintFinding::Kind kind) {
  switch (kind) {
    case LintFinding::Kind::kUnreachableNonterminal:
      return "unreachable-nonterminal";
    case LintFinding::Kind::kUnusedToken:
      return "unused-token";
    case LintFinding::Kind::kArmConflict:
      return "arm-conflict";
    case LintFinding::Kind::kPrefixShadow:
      return "prefix-shadow";
    case LintFinding::Kind::kNonproductiveNonterminal:
      return "nonproductive-nonterminal";
  }
  return "?";
}

StatusOr<std::vector<LintFinding>> Lint(const Grammar& g) {
  CFGTAG_RETURN_IF_ERROR(g.Validate());
  CFGTAG_ASSIGN_OR_RETURN(auto analysis, Analyze(g));
  std::vector<LintFinding> findings;

  // ---- Reachability from the start symbol -----------------------------
  std::vector<uint8_t> reachable(g.NumNonterminals(), 0);
  std::vector<uint8_t> token_used(g.NumTokens(), 0);
  std::vector<int32_t> work = {g.start()};
  reachable[g.start()] = 1;
  while (!work.empty()) {
    const int32_t nt = work.back();
    work.pop_back();
    for (const Production& p : g.productions()) {
      if (p.lhs != nt) continue;
      for (const Symbol& s : p.rhs) {
        if (s.IsTerminal()) {
          token_used[s.index] = 1;
        } else if (!reachable[s.index]) {
          reachable[s.index] = 1;
          work.push_back(s.index);
        }
      }
    }
  }
  for (size_t nt = 0; nt < g.NumNonterminals(); ++nt) {
    if (!reachable[nt]) {
      findings.push_back(
          {LintFinding::Kind::kUnreachableNonterminal,
           {g.nonterminals()[nt]},
           "nonterminal '" + g.nonterminals()[nt] +
               "' is unreachable from the start symbol"});
    }
  }
  for (size_t t = 0; t < g.NumTokens(); ++t) {
    // Count every use, not just reachable ones, as "used".
    for (const Production& p : g.productions()) {
      for (const Symbol& s : p.rhs) {
        if (s.IsTerminal() && static_cast<size_t>(s.index) == t) {
          token_used[t] = 1;
        }
      }
    }
    if (!token_used[t]) {
      findings.push_back({LintFinding::Kind::kUnusedToken,
                          {g.tokens()[t].name},
                          "token " + g.tokens()[t].name +
                              " is defined but never used; its tokenizer "
                              "would be dead logic"});
    }
  }

  // ---- Productivity ----------------------------------------------------
  std::vector<uint8_t> productive(g.NumNonterminals(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Production& p : g.productions()) {
      if (productive[p.lhs]) continue;
      bool all = true;
      for (const Symbol& s : p.rhs) {
        all &= s.IsTerminal() || productive[s.index] != 0;
      }
      if (all) {
        productive[p.lhs] = 1;
        changed = true;
      }
    }
  }
  for (size_t nt = 0; nt < g.NumNonterminals(); ++nt) {
    if (reachable[nt] && !productive[nt]) {
      findings.push_back({LintFinding::Kind::kNonproductiveNonterminal,
                          {g.nonterminals()[nt]},
                          "nonterminal '" + g.nonterminals()[nt] +
                              "' can never derive a terminal string"});
    }
  }

  // ---- Same-cycle conflicts within each arm set ------------------------
  // Arm sets: the start tokens, and Follow(u) for every token u. Two
  // tokens armed together conflict when one's full pattern is also matched
  // by the other (identical match ending the same cycle) — the paper's
  // §3.4 simultaneous-detection case, needing set partitioning or eq. 5
  // priorities.
  std::vector<regex::PositionAutomaton> automata;
  automata.reserve(g.NumTokens());
  for (const TokenDef& def : g.tokens()) {
    automata.push_back(regex::PositionAutomaton::Build(*def.regex));
  }
  // Whether token t's pattern matches all of `text`: the start positions
  // are injected on the first byte only, and the last state must accept.
  std::vector<uint64_t> state, next;
  auto full_match = [&](int32_t t, const std::string& text) {
    const regex::PositionAutomaton& pa = automata[t];
    if (text.empty()) return pa.nullable;
    state.assign(pa.NumWords(), 0);
    next.assign(pa.NumWords(), 0);
    for (size_t i = 0; i < text.size(); ++i) {
      pa.StepState(state.data(), i == 0, static_cast<unsigned char>(text[i]),
                   next.data());
      state.swap(next);
    }
    return pa.Accepts(state.data());
  };

  std::set<std::pair<int32_t, int32_t>> reported_conflicts;
  std::set<std::pair<int32_t, int32_t>> reported_shadows;
  auto check_pair = [&](int32_t a, int32_t b) {
    if (a == b) return;
    if (a > b) std::swap(a, b);
    const TokenDef& ta = g.tokens()[a];
    const TokenDef& tb = g.tokens()[b];
    // Definite same-cycle match: a literal accepted in full by the other
    // token, or two identical patterns.
    bool conflict = ta.pattern == tb.pattern;
    if (!conflict && ta.is_literal) conflict = full_match(b, ta.literal_text);
    if (!conflict && tb.is_literal) conflict = full_match(a, tb.literal_text);
    if (conflict && reported_conflicts.emplace(a, b).second) {
      findings.push_back(
          {LintFinding::Kind::kArmConflict,
           {ta.name, tb.name},
           "tokens " + ta.name + " and " + tb.name +
               " are armed together and can match on the same cycle; "
               "partition the encoder or assign eq. 5 priorities"});
    }
    // Literal prefix shadowing: the shorter fires mid-way into the longer.
    if (ta.is_literal && tb.is_literal && !conflict) {
      const std::string& sa = ta.literal_text;
      const std::string& sb = tb.literal_text;
      const bool a_pref = sb.size() > sa.size() &&
                          sb.compare(0, sa.size(), sa) == 0;
      const bool b_pref = sa.size() > sb.size() &&
                          sa.compare(0, sb.size(), sb) == 0;
      if ((a_pref || b_pref) && reported_shadows.emplace(a, b).second) {
        findings.push_back(
            {LintFinding::Kind::kPrefixShadow,
             {ta.name, tb.name},
             "token " + (a_pref ? ta.name : tb.name) + " is a prefix of " +
                 (a_pref ? tb.name : ta.name) +
                 " in the same arm context; the short match fires early"});
      }
    }
  };

  auto check_set = [&](const std::set<int32_t>& arm_set) {
    std::vector<int32_t> tokens;
    for (int32_t t : arm_set) {
      if (t != Analysis::kEndMarker) tokens.push_back(t);
    }
    for (size_t i = 0; i < tokens.size(); ++i) {
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        check_pair(tokens[i], tokens[j]);
      }
    }
  };

  check_set(analysis.start_tokens);
  for (size_t u = 0; u < g.NumTokens(); ++u) {
    check_set(analysis.follow_tok[u]);
  }
  return findings;
}

}  // namespace cfgtag::grammar
