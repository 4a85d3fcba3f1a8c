#include "tagger/fused_model.h"

#include <algorithm>

#include "grammar/analysis.h"
#include "obs/attribution.h"
#include "regex/position_automaton.h"
#include "tagger/simd/dispatch.h"

namespace cfgtag::tagger {

namespace {

// Bytes classified per chunked-Feed block: small enough that the class-id
// scratch stays L1-resident alongside the fused state, large enough to
// amortize the vector classify's setup over the state loop.
constexpr size_t kClassifyBlock = 512;

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
  class_tables_ = simd::BuildClassTables(classifier_.class_map(),
                                         classifier_.NumClasses());
  session_pool_ = std::make_shared<FusedSessionPool>();
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

void FusedTagger::Run(std::string_view input, const TagSink& sink) const {
  FusedSessionPool::Handle session = session_pool_->Acquire(this);
  session->Feed(input, sink);
  session->Finish(sink);
}

std::vector<Tag> FusedTagger::TagAll(std::string_view input) const {
  std::vector<Tag> tags;
  Run(input, [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

// ------------------------------------------------------------ FusedSession

FusedSession::FusedSession(const FusedTagger* tagger) : tagger_(nullptr) {
  Rebind(tagger);
}

void FusedSession::Rebind(const FusedTagger* tagger) {
  if (tagger != tagger_) {
    // The old tagger may already be gone (pooled sessions outlive the
    // tagger that last used them), so unmerged attribution cannot be
    // resolved to token names any more — drop it rather than chase a
    // possibly dangling pointer.
    attr_dirty_ = false;
    std::fill(attr_matches_.begin(), attr_matches_.end(), 0);
    std::fill(attr_live_.begin(), attr_live_.end(), 0);
    tagger_ = tagger;
    if (state_.size() != tagger_->num_words_) {
      state_.assign(tagger_->num_words_, 0);
      next_.assign(tagger_->num_words_, 0);
      armed_first_.assign(tagger_->num_words_, 0);
    }
    if (state_meta_.size() != tagger_->meta_words_) {
      state_meta_.assign(tagger_->meta_words_, 0);
      next_meta_.assign(tagger_->meta_words_, 0);
      armed_meta_.assign(tagger_->meta_words_, 0);
    }
  }
  Reset();
}

void FusedSession::Reset() {
  FlushAttribution();
  attr_on_ = obs::AttributionTable::enabled();
  if (attr_on_ && (attr_matches_.size() != tagger_->num_tokens_ ||
                   attr_live_.size() != tagger_->num_words_)) {
    attr_matches_.assign(tagger_->num_tokens_, 0);
    attr_live_.assign(tagger_->num_words_, 0);
  }
  // Unmarked state/next words are never read, but armed_first_ words must
  // be zero wherever unmarked (the OR-accumulate invariant), and a full
  // zero of everything is the cheapest way to restore all invariants.
  std::fill(state_.begin(), state_.end(), 0);
  std::fill(next_.begin(), next_.end(), 0);
  std::fill(armed_first_.begin(), armed_first_.end(), 0);
  std::fill(state_meta_.begin(), state_meta_.end(), 0);
  std::fill(next_meta_.begin(), next_meta_.end(), 0);
  std::fill(armed_meta_.begin(), armed_meta_.end(), 0);
  armed_any_ = false;
  any_live_ = false;
  if (tagger_->options_.arm_mode != ArmMode::kScan) {
    for (const WordBits& wb : tagger_->start_first_) {
      armed_first_[wb.word] |= wb.bits;
      armed_meta_[wb.word >> 6] |= 1ULL << (wb.word & 63);
      armed_any_ = true;
    }
  }
  prev_was_delim_ = false;
  has_pending_ = false;
  finished_ = false;
  stopped_ = false;
  pending_ = 0;
  pos_ = 0;
}

void FusedSession::ProcessByte(unsigned char c, bool has_next,
                               unsigned char next_c, const TagSink& sink) {
  const ByteClassifier& classifier = tagger_->classifier_;
  ProcessClass(classifier.ClassOf(c), has_next,
               has_next ? classifier.ClassOf(next_c) : uint8_t{0}, sink);
}

void FusedSession::ProcessClass(uint8_t cls, bool has_next, uint8_t next_cls,
                                const TagSink& sink) {
  const FusedTagger& t = *tagger_;
  const size_t nw = t.num_words_;
  const ArmMode mode = t.options_.arm_mode;
  const bool delim = t.class_is_delim_[cls] != 0;
  if (attr_on_) attr_dirty_ = true;

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

  // Live-word attribution is *sampled*: every 64th byte credits its kept
  // words with weight 64, in a separate rescan of the kept meta bits. A
  // post-pass (instead of instrumenting the filter loop above) keeps the
  // filter loop's codegen byte-identical whether attribution is on or
  // off, and testing pos_ before the flag gives both configurations the
  // same 63-in-64-not-taken branch here. The estimate stays unbiased over
  // runs longer than the stride, and byte 0 is always sampled, so short
  // streams still register.
  if ((pos_ & 63) == 0 && attr_on_) {
    uint64_t* const attr_live = attr_live_.data();
    for (size_t mi = 0; mi < next_meta_.size(); ++mi) {
      uint64_t mbits = next_meta[mi];
      while (mbits) {
        const size_t w = mi * 64 + static_cast<size_t>(__builtin_ctzll(mbits));
        mbits &= mbits - 1;
        attr_live[w] += 64;
      }
    }
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
        if (!suppressed) {
          Tag tag;
          tag.token = tok;
          tag.end = pos_;
          if (!stopped_ && !sink(tag)) stopped_ = true;
          if (attr_on_) ++attr_matches_[static_cast<size_t>(tok)];
          emitted_.push_back(tok);
        }
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
  ++pos_;
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
  has_pending_ = false;
  finished_ = false;
  stopped_ = false;
  pending_ = 0;
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

void FusedSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_ || chunk.empty()) return;
  const char* data = chunk.data();
  const size_t n = chunk.size();
  const FusedTagger& t = *tagger_;
  const ArmMode mode = t.options_.arm_mode;
  const RunScanner& delim = t.delim_scanner_;
  const RunScanner& arm = t.arm_scanner_;
  const SkipMetrics& skips = SkipMetrics::Get();

  if (has_pending_) {
    ProcessByte(pending_, /*has_next=*/true,
                static_cast<unsigned char>(data[0]), sink);
    has_pending_ = false;
    if (stopped_) return;
  }

  size_t i = 0;
  while (i < n) {
    if (!any_live_) {
      // Idle fast paths: with an all-zero fused state, bytes that cannot
      // inject change nothing but the position and the delimiter flag, so
      // whole runs are skipped without stepping — and the run boundary is
      // found with a multi-byte vector/SWAR/memchr scan, not a per-byte
      // test.
      if (delim.Test(static_cast<unsigned char>(data[i]))) {
        // Delimiter run: no injection on delimiters, arms survive.
        const size_t j = i + 1 + delim.FindFirstNotIn(data + i + 1, n - i - 1);
        skips.Of(SkipMetrics::kDelimiter, delim.strategy())
            ->Increment(j - i);
        pos_ += j - i;
        prev_was_delim_ = true;
        i = j;
        continue;
      }
      if (!armed_any_ && mode == ArmMode::kAnchored) {
        // Dead stream: anchored arming can never re-inject. Positional, no
        // scan runs — strategy "none".
        skips.Of(SkipMetrics::kAnchored, SkipStrategy::kNone)
            ->Increment(n - i);
        pos_ += n - i;
        prev_was_delim_ = delim.Test(static_cast<unsigned char>(data[n - 1]));
        return;
      }
      if (!armed_any_ && mode == ArmMode::kResync && !prev_was_delim_) {
        // Mid-garbage in resync mode: start injection waits for the next
        // delimiter, so non-delimiter bytes are inert.
        const size_t j = i + 1 + delim.FindFirstIn(data + i + 1, n - i - 1);
        skips.Of(SkipMetrics::kResync, delim.strategy())->Increment(j - i);
        pos_ += j - i;
        prev_was_delim_ = false;
        i = j;
        continue;
      }
      if (!armed_any_ && mode == ArmMode::kScan &&
          !arm.Test(static_cast<unsigned char>(data[i]))) {
        // Armed-byte prefilter: fully idle in scan mode, bytes that cannot
        // start any token (the arming set is the non-delimiter bytes
        // intersecting some start token's first positions) only advance
        // the position and the delimiter flag. Delimiters never arm, so
        // the skipped run may mix garbage and delimiters; the flag is
        // recovered from the last skipped byte.
        const size_t j = i + 1 + arm.FindFirstIn(data + i + 1, n - i - 1);
        skips.Of(SkipMetrics::kArmed, arm.strategy())->Increment(j - i);
        pos_ += j - i;
        prev_was_delim_ = delim.Test(static_cast<unsigned char>(data[j - 1]));
        i = j;
        continue;
      }
    }
    const size_t avail = n - i;
    if (avail < 2) break;  // only the lagging look-ahead byte remains
    // Chunked translate-then-step: classify a block of raw bytes into a
    // dense class-id stream with one vectorized call, then run the state
    // loop over class ids only. The block loop hands control back to the
    // idle skips above exactly when one would fire (machine fully idle AND
    // the upcoming byte is skippable), so dead stretches are never
    // re-classified byte by byte, and live stretches never bounce back
    // out.
    const size_t block = std::min(avail, kClassifyBlock);
    if (cls_buf_.size() < block) cls_buf_.assign(kClassifyBlock, 0);
    simd::Active().classify(t.class_tables_, data + i, block,
                            cls_buf_.data());
    const uint8_t* cls = cls_buf_.data();
    size_t j = 0;
    while (j + 1 < block) {
      ProcessClass(cls[j], /*has_next=*/true, cls[j + 1], sink);
      if (stopped_) return;
      ++j;
      if (!any_live_) {
        const uint8_t nc = cls[j];
        if (t.class_is_delim_[nc] != 0) break;
        if (!armed_any_ &&
            (mode == ArmMode::kAnchored ||
             (mode == ArmMode::kResync && !prev_was_delim_) ||
             (mode == ArmMode::kScan && t.class_can_arm_[nc] == 0))) {
          break;
        }
      }
    }
    i += j;
  }
  if (i < n) {
    pending_ = static_cast<unsigned char>(data[i]);
    has_pending_ = true;
  }
}

void FusedSession::Finish(const TagSink& sink) {
  if (finished_) return;
  finished_ = true;
  if (!stopped_ && has_pending_) {
    ProcessByte(pending_, /*has_next=*/false, 0, sink);
    has_pending_ = false;
  }
  FlushAttribution();
}

void FusedSession::FlushAttribution() {
  if (!attr_dirty_) return;
  attr_dirty_ = false;
  const std::vector<grammar::TokenDef>& tokens = tagger_->grammar().tokens();
  obs::AttributionTable& table = obs::AttributionTable::Default();
  // Fold the per-word live counts onto their owning tokens (words are
  // never shared between tokens), then merge token rows in one pass.
  std::vector<uint64_t> live(attr_matches_.size(), 0);
  for (size_t w = 0; w < attr_live_.size(); ++w) {
    if (attr_live_[w] != 0) {
      live[static_cast<size_t>(tagger_->word_token_[w])] += attr_live_[w];
      attr_live_[w] = 0;
    }
  }
  for (size_t tok = 0; tok < attr_matches_.size(); ++tok) {
    if (attr_matches_[tok] == 0 && live[tok] == 0) continue;
    table.AddToken(tokens[tok].name, attr_matches_[tok], live[tok]);
    attr_matches_[tok] = 0;
  }
}

}  // namespace cfgtag::tagger
