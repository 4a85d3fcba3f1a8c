#include "reference/functional_model.h"

#include <algorithm>

namespace cfgtag::tagger {

FunctionalTagger::FunctionalTagger(const grammar::Grammar* grammar,
                                   TaggerOptions options)
    : grammar_(grammar), options_(options) {}

StatusOr<FunctionalTagger> FunctionalTagger::Create(
    const grammar::Grammar* grammar, const TaggerOptions& options) {
  CFGTAG_ASSIGN_OR_RETURN(auto analysis, grammar::Analyze(*grammar));
  FunctionalTagger t(grammar, options);
  t.analysis_ = std::move(analysis);
  const size_t num_tokens = grammar->NumTokens();
  t.automata_.reserve(num_tokens);
  for (const grammar::TokenDef& def : grammar->tokens()) {
    t.automata_.push_back(regex::PositionAutomaton::Build(*def.regex));
  }
  t.follow_tokens_.resize(num_tokens);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    for (int32_t f : t.analysis_.follow_tok[tok]) {
      if (f != grammar::Analysis::kEndMarker) {
        t.follow_tokens_[tok].push_back(f);
      }
    }
  }
  t.start_tokens_.assign(t.analysis_.start_tokens.begin(),
                         t.analysis_.start_tokens.end());
  t.is_start_.assign(num_tokens, 0);
  for (int32_t s : t.start_tokens_) t.is_start_[s] = 1;
  t.word_offset_.assign(num_tokens + 1, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    t.word_offset_[tok + 1] = t.word_offset_[tok] +
                              t.automata_[tok].NumWords();
  }
  return t;
}

size_t FunctionalTagger::TotalPositions() const {
  size_t total = 0;
  for (const auto& a : automata_) total += a.NumPositions();
  return total;
}

void FunctionalTagger::Run(std::string_view input, const TagSink& sink) const {
  TaggerSession session(this);
  session.Feed(input, sink);
  session.Finish(sink);
}

std::vector<Tag> FunctionalTagger::TagAll(std::string_view input) const {
  std::vector<Tag> tags;
  Run(input, [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

// ----------------------------------------------------------- TaggerSession

TaggerSession::TaggerSession(const FunctionalTagger* tagger)
    : tagger_(tagger) {
  state_.assign(tagger_->word_offset_.back(), 0);
  size_t max_words = 1;
  for (const auto& pa : tagger_->automata_) {
    max_words = std::max(max_words, pa.NumWords());
  }
  scratch_.assign(max_words, 0);
  const size_t num_tokens = tagger_->automata_.size();
  armed_.assign(num_tokens, 0);
  new_arms_.assign(num_tokens, 0);
  is_live_.assign(num_tokens, 0);
  is_candidate_.assign(num_tokens, 0);
  Reset();
}

void TaggerSession::Reset() {
  std::fill(state_.begin(), state_.end(), 0);
  std::fill(armed_.begin(), armed_.end(), 0);
  std::fill(is_live_.begin(), is_live_.end(), 0);
  std::fill(new_arms_.begin(), new_arms_.end(), 0);
  std::fill(is_candidate_.begin(), is_candidate_.end(), 0);
  live_.clear();
  armed_list_.clear();
  new_arm_list_.clear();
  candidate_reset_.clear();
  if (tagger_->options_.arm_mode != ArmMode::kScan) {
    for (int32_t t : tagger_->start_tokens_) {
      armed_[t] = 1;
      armed_list_.push_back(t);
    }
  }
  prev_was_delim_ = false;
  has_pending_ = false;
  finished_ = false;
  stopped_ = false;
  pending_ = 0;
  pos_ = 0;
}

void TaggerSession::AddCandidate(int32_t token) {
  if (!is_candidate_[token]) {
    is_candidate_[token] = 1;
    candidates_.push_back(token);
  }
}

void TaggerSession::ProcessByte(unsigned char c, bool has_next,
                                unsigned char next_c, const TagSink& sink) {
  const TaggerOptions& options = tagger_->options_;
  const ArmMode mode = options.arm_mode;
  const size_t num_tokens = tagger_->automata_.size();
  const bool delim = options.delimiters.Test(c);

  (void)num_tokens;
  // Step only tokens that can change: those with live state, plus — on a
  // non-delimiter byte — those with a reason to inject. Cold tokens have
  // all-zero state and no injection, so skipping them is exact.
  candidates_.clear();
  for (int32_t t : candidate_reset_) is_candidate_[t] = 0;
  candidate_reset_.clear();
  for (int32_t t : live_) AddCandidate(t);
  if (!delim) {
    for (int32_t t : armed_list_) AddCandidate(t);
    if (mode == ArmMode::kScan ||
        (mode == ArmMode::kResync && prev_was_delim_)) {
      for (int32_t t : tagger_->start_tokens_) AddCandidate(t);
    }
  }
  // Keep token order: emissions at the same byte must come out in token-id
  // order (the contract shared with the cycle-accurate harness).
  std::sort(candidates_.begin(), candidates_.end());
  candidate_reset_ = candidates_;

  new_arm_list_.clear();
  live_.clear();
  for (int32_t t : candidates_) {
    const regex::PositionAutomaton& pa = tagger_->automata_[t];
    const bool start_armed =
        tagger_->is_start_[t] &&
        (mode == ArmMode::kScan ||
         (mode == ArmMode::kResync && prev_was_delim_));
    const bool inject = !delim && (armed_[t] || start_armed);
    uint64_t* cur = &state_[tagger_->word_offset_[t]];
    const size_t nw = pa.NumWords();
    pa.StepState(cur, inject, c, scratch_.data());
    // Emission with Fig. 7 look-ahead suppression.
    if (pa.Accepts(scratch_.data())) {
      const bool suppressed = options.longest_match && has_next &&
                              pa.CanExtend(scratch_.data(), next_c);
      if (!suppressed) {
        Tag tag;
        tag.token = t;
        tag.end = pos_;
        if (!stopped_ && !sink(tag)) stopped_ = true;
        for (int32_t f : tagger_->follow_tokens_[t]) {
          if (!new_arms_[f]) {
            new_arms_[f] = 1;
            new_arm_list_.push_back(f);
          }
        }
      }
    }
    // Commit and track liveness.
    bool nonzero = false;
    for (size_t w = 0; w < nw; ++w) {
      cur[w] = scratch_[w];
      nonzero |= scratch_[w] != 0;
    }
    if (nonzero) {
      live_.push_back(t);
      is_live_[t] = 1;
    } else {
      is_live_[t] = 0;
    }
  }

  // Arms are consumed by a non-delimiter byte, survive delimiters, and
  // matches ending at this byte arm their Follow sets for the next byte.
  if (!delim) {
    for (int32_t t : armed_list_) armed_[t] = 0;
    armed_list_.clear();
  }
  for (int32_t t : new_arm_list_) {
    new_arms_[t] = 0;  // reset the dedupe flag for the next byte
    if (!armed_[t]) {
      armed_[t] = 1;
      armed_list_.push_back(t);
    }
  }
  prev_was_delim_ = delim;
  ++pos_;
}

void TaggerSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_) return;
  for (const char ch : chunk) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (has_pending_) {
      ProcessByte(pending_, /*has_next=*/true, c, sink);
      if (stopped_) return;
    }
    pending_ = c;
    has_pending_ = true;
  }
}

void TaggerSession::Finish(const TagSink& sink) {
  if (finished_) return;
  finished_ = true;
  if (stopped_ || !has_pending_) return;
  ProcessByte(pending_, /*has_next=*/false, 0, sink);
  has_pending_ = false;
}

}  // namespace cfgtag::tagger
