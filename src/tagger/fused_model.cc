#include "tagger/fused_model.h"

#include <algorithm>

#include "grammar/analysis.h"
#include "regex/position_automaton.h"

namespace cfgtag::tagger {

namespace {

inline size_t MetaWords(size_t words) { return (words + 63) / 64; }

inline bool MetaTest(const uint64_t* meta, size_t w) {
  return (meta[w >> 6] >> (w & 63)) & 1;
}

}  // namespace

StatusOr<FusedTagger> FusedTagger::Create(const grammar::Grammar* grammar,
                                          const TaggerOptions& options) {
  CFGTAG_ASSIGN_OR_RETURN(auto analysis, grammar::Analyze(*grammar));
  FusedTagger t(grammar, options);
  const size_t num_tokens = grammar->NumTokens();
  t.num_tokens_ = num_tokens;

  // All tables are built into a heap Storage block; the tagger's views are
  // bound to it at the end (the artifact loader binds the same views into
  // an mmap'd file instead).
  auto store = std::make_shared<Storage>();
  Storage& s = *store;

  // Per-token position automata are only needed at build time; everything
  // the per-byte step reads is baked into the fused tables below.
  std::vector<regex::PositionAutomaton> automata;
  automata.reserve(num_tokens);
  for (const grammar::TokenDef& def : grammar->tokens()) {
    automata.push_back(regex::PositionAutomaton::Build(*def.regex));
  }

  // Word-aligned fused layout (the FunctionalTagger word_offset_ scheme):
  // token t owns words [word_offset_[t], word_offset_[t+1]) exclusively.
  s.word_offset.assign(num_tokens + 1, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    s.word_offset[tok + 1] =
        s.word_offset[tok] + static_cast<uint32_t>(automata[tok].NumWords());
    t.total_positions_ += automata[tok].NumPositions();
  }
  t.num_words_ = s.word_offset[num_tokens];
  t.meta_words_ = MetaWords(t.num_words_);
  s.word_token.assign(t.num_words_, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    for (uint32_t w = s.word_offset[tok]; w < s.word_offset[tok + 1]; ++w) {
      s.word_token[w] = static_cast<int32_t>(tok);
    }
  }

  // Byte classes over every distinct character class the machine tests:
  // all position classes plus the delimiter set. Any two bytes in one
  // class take identical transitions everywhere, so per-class tables are
  // exact.
  std::vector<regex::CharClass> classes;
  classes.push_back(options.delimiters);
  for (const auto& pa : automata) {
    for (const regex::CharClass& cc : pa.positions) classes.push_back(cc);
  }
  t.classifier_ = ByteClassifier::Build(classes);
  const size_t num_classes = t.classifier_.NumClasses();
  s.class_is_delim.assign(num_classes, 0);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    s.class_is_delim[cls] =
        options.delimiters.Test(
            t.classifier_.Representative(static_cast<uint16_t>(cls)))
            ? 1
            : 0;
  }

  const size_t nw = t.num_words_;
  auto set_global_bit = [&](std::vector<uint64_t>& v, size_t tok, uint32_t q) {
    const size_t gb = static_cast<size_t>(s.word_offset[tok]) * 64 + q;
    v[gb >> 6] |= 1ULL << (gb & 63);
  };

  // Per-class position masks and the global accept mask.
  s.class_mask.assign(num_classes * nw, 0);
  s.accept_mask.assign(nw, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    const regex::PositionAutomaton& pa = automata[tok];
    for (uint32_t q = 0; q < pa.NumPositions(); ++q) {
      for (size_t cls = 0; cls < num_classes; ++cls) {
        if (pa.positions[q].Test(
                t.classifier_.Representative(static_cast<uint16_t>(cls)))) {
          const size_t gb = static_cast<size_t>(s.word_offset[tok]) * 64 + q;
          s.class_mask[cls * nw + (gb >> 6)] |= 1ULL << (gb & 63);
        }
      }
      if (pa.is_last[q]) set_global_bit(s.accept_mask, tok, q);
    }
  }

  // Follow rows, token-width wide, flattened. Global bit index of token
  // t's local position q is word_offset_[t]*64 + q (the layout is
  // word-aligned), so row_offset_ is indexed densely by global bit.
  s.row_offset.assign(nw * 64, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    const regex::PositionAutomaton& pa = automata[tok];
    const size_t width = s.word_offset[tok + 1] - s.word_offset[tok];
    for (uint32_t q = 0; q < pa.NumPositions(); ++q) {
      const size_t gb = static_cast<size_t>(s.word_offset[tok]) * 64 + q;
      s.row_offset[gb] = static_cast<uint32_t>(s.row_data.size());
      const size_t base = s.row_data.size();
      s.row_data.resize(base + width, 0);
      for (uint32_t succ : pa.follow[q]) {
        s.row_data[base + succ / 64] |= 1ULL << (succ % 64);
      }
    }
  }

  // Look-ahead extension masks: accepting position p is set in
  // ext_mask_[cls] iff some follow(p) position consumes a byte of cls —
  // so the Fig. 7 suppression test per token collapses to
  // (state & accept & ext[next_cls]) != 0 over the token's words.
  s.ext_mask.assign(num_classes * nw, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    const regex::PositionAutomaton& pa = automata[tok];
    const uint32_t ws = s.word_offset[tok];
    const size_t width = s.word_offset[tok + 1] - ws;
    for (uint32_t q = 0; q < pa.NumPositions(); ++q) {
      if (!pa.is_last[q]) continue;
      const size_t gb = static_cast<size_t>(ws) * 64 + q;
      const uint64_t* row = s.row_data.data() + s.row_offset[gb];
      for (size_t cls = 0; cls < num_classes; ++cls) {
        const uint64_t* cm = s.class_mask.data() + cls * nw + ws;
        bool extends = false;
        for (size_t v = 0; v < width; ++v) {
          if (row[v] & cm[v]) {
            extends = true;
            break;
          }
        }
        if (extends) s.ext_mask[cls * nw + (gb >> 6)] |= 1ULL << (gb & 63);
      }
    }
  }

  // Sparse injection patterns. A token's pattern is its first positions
  // placed at its global offset; start_first_ unions the start tokens',
  // arm_pattern_[t] unions t's Follow set's.
  auto append_first = [&](std::vector<WordBits>* out, int32_t tok) {
    const regex::PositionAutomaton& pa = automata[tok];
    const uint32_t ws = s.word_offset[tok];
    const size_t width = s.word_offset[tok + 1] - ws;
    std::vector<uint64_t> local(width, 0);
    for (uint32_t q : pa.first) local[q / 64] |= 1ULL << (q % 64);
    for (size_t v = 0; v < width; ++v) {
      if (local[v] == 0) continue;
      // Tokens own disjoint words and the Analyze token sets hold each
      // token once, so no word is appended twice.
      out->push_back(WordBits{ws + static_cast<uint32_t>(v), local[v]});
    }
  };

  for (int32_t start_tok : analysis.start_tokens) {
    append_first(&s.start_first, start_tok);
  }
  s.arm_offset.assign(num_tokens + 1, 0);
  for (size_t tok = 0; tok < num_tokens; ++tok) {
    std::vector<WordBits> pattern;
    for (int32_t f : analysis.follow_tok[tok]) {
      if (f != grammar::Analysis::kEndMarker) append_first(&pattern, f);
    }
    s.arm_pattern.insert(s.arm_pattern.end(), pattern.begin(),
                          pattern.end());
    s.arm_offset[tok + 1] = static_cast<uint32_t>(s.arm_pattern.size());
  }

  // Armed-byte prefilter tables: a class can arm iff it is not a delimiter
  // and its bytes hit some start token's first positions. When the machine
  // is fully idle in scan mode, bytes of non-arming classes change nothing
  // but the position and the delimiter flag, so whole runs of them are
  // skipped with a vector scan over the arming byte set.
  s.class_can_arm.assign(num_classes, 0);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    if (s.class_is_delim[cls]) continue;
    const uint64_t* cm = s.class_mask.data() + cls * nw;
    for (const WordBits& wb : s.start_first) {
      if (cm[wb.word] & wb.bits) {
        s.class_can_arm[cls] = 1;
        break;
      }
    }
  }

  t.BindStorage(s);
  t.backing_ = std::move(store);
  t.BuildDerived();
  return t;
}

void FusedTagger::BuildDerived() {
  regex::CharClass arm_set;
  for (int b = 0; b < 256; ++b) {
    if (class_can_arm_[classifier_.ClassOf(static_cast<unsigned char>(b))]) {
      arm_set.Set(static_cast<unsigned char>(b));
    }
  }
  delim_scanner_ = RunScanner::ForSet(options_.delimiters);
  arm_scanner_ = RunScanner::ForSet(arm_set);
}

void FusedTagger::BindStorage(const Storage& s) {
  auto bind = [](auto& view, const auto& vec) {
    view = {vec.data(), vec.size()};
  };
  bind(word_offset_, s.word_offset);
  bind(word_token_, s.word_token);
  bind(class_is_delim_, s.class_is_delim);
  bind(class_can_arm_, s.class_can_arm);
  bind(class_mask_, s.class_mask);
  bind(ext_mask_, s.ext_mask);
  bind(accept_mask_, s.accept_mask);
  bind(row_offset_, s.row_offset);
  bind(row_data_, s.row_data);
  bind(start_first_, s.start_first);
  bind(arm_pattern_, s.arm_pattern);
  bind(arm_offset_, s.arm_offset);
}

// ------------------------------------------------------------ FusedSession

FusedSession::FusedSession(const FusedTagger* tagger) : tagger_(nullptr) {
  Rebind(tagger);
}

void FusedSession::Rebind(const FusedTagger* tagger) {
  tagger_ = tagger;
  // The meta shape follows the word count, so one test covers both; stale
  // meta bits must never outlive the words they index.
  if (state_.size() != tagger_->num_words_) {
    state_.assign(tagger_->num_words_, 0);
    next_.assign(tagger_->num_words_, 0);
    armed_first_.assign(tagger_->num_words_, 0);
    state_meta_.assign(tagger_->meta_words_, 0);
    next_meta_.assign(tagger_->meta_words_, 0);
    armed_meta_.assign(tagger_->meta_words_, 0);
  }
}

void FusedSession::ProcessClass(uint8_t cls, bool has_next,
                                uint8_t next_cls) {
  const FusedTagger& t = *tagger_;
  const size_t nw = t.num_words_;
  const ArmMode mode = t.options_.arm_mode;
  const bool delim = t.class_is_delim_[cls] != 0;

  uint64_t* next = next_.data();
  uint64_t* next_meta = next_meta_.data();
  std::fill(next_meta_.begin(), next_meta_.end(), 0);

  // OR `bits` into next[w], zeroing the word on first touch.
  auto touch_or = [&](size_t w, uint64_t bits) {
    const size_t mi = w >> 6;
    const uint64_t mb = 1ULL << (w & 63);
    if (next_meta[mi] & mb) {
      next[w] |= bits;
    } else {
      next_meta[mi] |= mb;
      next[w] = bits;
    }
  };

  // 1. Successors of live positions — word ops over marked words only.
  //    Every bit of word w belongs to word_token_[w], and its follow row
  //    spans just that token's words (width 1 for most tokens, making the
  //    inner loop a pure accumulate-and-OR on a single word).
  for (size_t mi = 0; mi < state_meta_.size(); ++mi) {
    uint64_t mbits = state_meta_[mi];
    while (mbits) {
      const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
      mbits &= mbits - 1;
      uint64_t bits = state_[w];
      const int32_t tok = t.word_token_[w];
      const uint32_t ws = t.word_offset_[tok];
      const uint32_t we = t.word_offset_[tok + 1];
      if (we - ws == 1) {
        uint64_t acc = 0;
        const size_t base = w * 64;
        while (bits) {
          acc |= t.row_data_[t.row_offset_[base + static_cast<size_t>(
                                                     __builtin_ctzll(bits))]];
          bits &= bits - 1;
        }
        if (acc) touch_or(w, acc);
      } else {
        while (bits) {
          const size_t gb =
              w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          const uint64_t* row = t.row_data_.data() + t.row_offset_[gb];
          for (uint32_t v = ws; v < we; ++v) {
            if (row[v - ws]) touch_or(v, row[v - ws]);
          }
        }
      }
    }
  }

  // 2. Injection: pending arms, plus start tokens in scan/resync arming.
  if (!delim) {
    if (armed_any_) {
      for (size_t mi = 0; mi < armed_meta_.size(); ++mi) {
        uint64_t mbits = armed_meta_[mi];
        while (mbits) {
          const size_t w =
              mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
          mbits &= mbits - 1;
          touch_or(w, armed_first_[w]);
        }
      }
    }
    if (mode == ArmMode::kScan ||
        (mode == ArmMode::kResync && prev_was_delim_)) {
      for (const WordBits& wb : t.start_first_) {
        touch_or(wb.word, wb.bits);
      }
    }
  }

  // 3. Single-pass class filter over the touched words; words filtered to
  //    zero drop out of the meta so later passes skip them.
  const uint64_t* cm = t.class_mask_.data() + static_cast<size_t>(cls) * nw;
  // Local copies keep the loop-invariant flag and array bases in registers
  // (member loads would re-read through `this` after the next[w] store).
  uint64_t any = 0;
  for (size_t mi = 0; mi < next_meta_.size(); ++mi) {
    uint64_t mbits = next_meta[mi];
    uint64_t kept = 0;
    while (mbits) {
      const uint64_t low = mbits & (~mbits + 1);
      const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
      mbits ^= low;
      next[w] &= cm[w];
      if (next[w]) kept |= low;
      any |= next[w];
    }
    next_meta[mi] = kept;
  }

  // 4. Match extraction: accept-mask AND over live words, one emission per
  //    token (ascending word order == ascending token id, the contract
  //    shared with the cycle-accurate harness), Fig. 7 look-ahead folded
  //    in as the ext-mask AND.
  emitted_.clear();
  if (any) {
    const uint64_t* ext =
        (t.options_.longest_match && has_next)
            ? t.ext_mask_.data() + static_cast<size_t>(next_cls) * nw
            : nullptr;
    size_t skip_until = 0;
    for (size_t mi = 0; mi < next_meta_.size(); ++mi) {
      uint64_t mbits = next_meta[mi];
      while (mbits) {
        const size_t w =
            mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
        mbits &= mbits - 1;
        if (w < skip_until) continue;
        if ((next[w] & t.accept_mask_[w]) == 0) continue;
        const int32_t tok = t.word_token_[w];
        const uint32_t ws = t.word_offset_[tok];
        const uint32_t we = t.word_offset_[tok + 1];
        skip_until = we;
        bool suppressed = false;
        if (ext != nullptr) {
          for (uint32_t v = ws; v < we && !suppressed; ++v) {
            if (MetaTest(next_meta, v) &&
                (next[v] & t.accept_mask_[v] & ext[v])) {
              suppressed = true;
            }
          }
        }
        if (!suppressed) emitted_.push_back(tok);
      }
    }
  }

  // 5. Arms: consumed by a non-delimiter byte, survive delimiters; this
  //    byte's matches arm their Follow sets for the next byte — one OR of
  //    a precomputed word pattern per match.
  if (!delim && armed_any_) {
    for (size_t mi = 0; mi < armed_meta_.size(); ++mi) {
      uint64_t mbits = armed_meta_[mi];
      while (mbits) {
        const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
        mbits &= mbits - 1;
        armed_first_[w] = 0;
      }
      armed_meta_[mi] = 0;
    }
    armed_any_ = false;
  }
  for (int32_t tok : emitted_) {
    const uint32_t begin = t.arm_offset_[tok];
    const uint32_t end = t.arm_offset_[tok + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const WordBits& wb = t.arm_pattern_[i];
      armed_first_[wb.word] |= wb.bits;
      armed_meta_[wb.word >> 6] |= 1ULL << (wb.word & 63);
      armed_any_ = true;
    }
  }

  state_.swap(next_);
  state_meta_.swap(next_meta_);
  any_live_ = any != 0;
  prev_was_delim_ = delim;
}

void FusedSession::LoadConfig(const WordBits* state, size_t num_state,
                              const WordBits* armed, size_t num_armed,
                              bool prev_delim) {
  // Zero the currently marked armed words (the OR-accumulate invariant
  // requires unmarked words to be zero); state words are only read where
  // marked, so clearing their meta suffices.
  for (size_t mi = 0; mi < armed_meta_.size(); ++mi) {
    uint64_t mbits = armed_meta_[mi];
    while (mbits) {
      const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
      mbits &= mbits - 1;
      armed_first_[w] = 0;
    }
    armed_meta_[mi] = 0;
  }
  std::fill(state_meta_.begin(), state_meta_.end(), 0);
  for (size_t k = 0; k < num_state; ++k) {
    state_[state[k].word] = state[k].bits;
    state_meta_[state[k].word >> 6] |= 1ULL << (state[k].word & 63);
  }
  for (size_t k = 0; k < num_armed; ++k) {
    armed_first_[armed[k].word] = armed[k].bits;
    armed_meta_[armed[k].word >> 6] |= 1ULL << (armed[k].word & 63);
  }
  any_live_ = num_state != 0;
  armed_any_ = num_armed != 0;
  prev_was_delim_ = prev_delim;
}

void FusedSession::SnapshotConfig(std::vector<WordBits>* state,
                                  std::vector<WordBits>* armed) const {
  for (size_t mi = 0; mi < state_meta_.size(); ++mi) {
    uint64_t mbits = state_meta_[mi];
    while (mbits) {
      const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
      mbits &= mbits - 1;
      if (state_[w]) {
        state->push_back(WordBits{static_cast<uint32_t>(w), state_[w]});
      }
    }
  }
  for (size_t mi = 0; mi < armed_meta_.size(); ++mi) {
    uint64_t mbits = armed_meta_[mi];
    while (mbits) {
      const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
      mbits &= mbits - 1;
      if (armed_first_[w]) {
        armed->push_back(WordBits{static_cast<uint32_t>(w), armed_first_[w]});
      }
    }
  }
}

}  // namespace cfgtag::tagger
