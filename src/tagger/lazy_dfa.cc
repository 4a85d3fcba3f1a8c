#include "tagger/lazy_dfa.h"

#include <algorithm>
#include <limits>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"

namespace cfgtag::tagger {

namespace {

// Approximate per-state index cost (one unordered_multimap node plus
// bucket share) folded into the cache budget accounting.
constexpr size_t kIndexNodeBytes = 48;

// Entries a flat table may hold: every premultiplied id plus class fits
// int32_t.
constexpr size_t kMaxTableEntries =
    static_cast<size_t>(std::numeric_limits<int32_t>::max());

// What the idle skips read of the current configuration: an interned
// state's, or in fallback the scratch configuration's plus the session's
// pending class.
struct IdleFacts {
  bool live;
  bool armed;
  bool prev_delim;
  int16_t pending_cls;
};

// The idle fast paths, one set for both stepping modes. A dead
// configuration cycles through configurations differing only in pending
// class and delimiter flag, so a whole inert run collapses to position
// arithmetic plus ONE real step on the run's last byte — which re-derives
// the exact successor, because it is invariant across the run. Built once
// per Feed so the per-byte test reads only locals.
class IdleSkipper {
 public:
  explicit IdleSkipper(const FusedTagger& f)
      : f_(f),
        mode_(f.options().arm_mode),
        delim_(f.delimiter_scanner()),
        arm_(f.arm_scanner()) {}

  // With a dead configuration and a pending byte: the index of the last
  // byte of the inert run starting at data[i] (i itself when nothing
  // skips). Counts the bytes jumped over.
  size_t LastInertByte(const IdleFacts& cur, const char* data, size_t i,
                       size_t n) const {
    const bool pending_delim =
        f_.ClassIsDelim(static_cast<uint8_t>(cur.pending_cls));
    size_t j = i;
    SkipMetrics::Kind kind = SkipMetrics::kNumKinds;
    const RunScanner* scanner = nullptr;  // null: a positional skip
    if (pending_delim && delim_.Test(static_cast<unsigned char>(data[i]))) {
      // Delimiter run: dead + delimiter pending emits nothing and
      // preserves arms whatever the input, so jump to the run's end.
      j = i + delim_.FindFirstNotIn(data + i, n - i) - 1;
      kind = SkipMetrics::kDelimiter;
      scanner = &delim_;
    } else if (!cur.armed && mode_ == ArmMode::kAnchored) {
      // Dead stream: anchored arming can never re-inject; only the last
      // byte is stepped (keeping the pending machinery consistent).
      j = n - 1;
      kind = SkipMetrics::kAnchored;
    } else if (!cur.armed && mode_ == ArmMode::kResync && !cur.prev_delim &&
               !pending_delim &&
               !delim_.Test(static_cast<unsigned char>(data[i]))) {
      // Mid-garbage in resync mode: start injection waits for the next
      // delimiter, so non-delimiter bytes are inert.
      j = i + delim_.FindFirstIn(data + i, n - i) - 1;
      kind = SkipMetrics::kResync;
      scanner = &delim_;
    } else if (!cur.armed && mode_ == ArmMode::kScan &&
               !f_.ClassCanArm(static_cast<uint8_t>(cur.pending_cls)) &&
               !arm_.Test(static_cast<unsigned char>(data[i]))) {
      // Armed-byte prefilter: fully idle in scan mode, bytes that cannot
      // start any token are inert, so jump to the last such byte and step
      // there. The run may mix garbage and delimiters (delimiters never
      // arm); the skipped configurations differ only in pending class and
      // delimiter flag, neither of which scan mode's injection reads, so
      // the tags are exact.
      j = i + arm_.FindFirstIn(data + i, n - i) - 1;
      kind = SkipMetrics::kArmed;
      scanner = &arm_;
    }
    if (j > i) {
      SkipMetrics::Get()
          .Of(kind, scanner != nullptr ? scanner->strategy()
                                       : SkipStrategy::kNone)
          ->Increment(j - i);
    }
    return j;
  }

 private:
  const FusedTagger& f_;
  const ArmMode mode_;
  const RunScanner& delim_;
  const RunScanner& arm_;
};

}  // namespace

const DfaCacheMetrics& DfaCacheMetrics::Get() {
  static const DfaCacheMetrics kMetrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return DfaCacheMetrics{
        reg.GetCounter("cfgtag_dfa_cache_states",
                       "DFA configurations interned by lazy-DFA sessions"),
        reg.GetCounter("cfgtag_dfa_cache_flushes",
                       "Lazy-DFA transition caches dropped at the byte cap"),
        reg.GetCounter("cfgtag_dfa_cache_fallbacks",
                       "Lazy-DFA sessions that fell back to uncached fused steps "
                       "after repeated cache flushes")};
  }();
  return kMetrics;
}

// --------------------------------------------------------- LazyDfaTagger

LazyDfaTagger::LazyDfaTagger(FusedTagger fused,
                             std::shared_ptr<const AotDfaTable> aot)
    : fused_(std::move(fused)),
      aot_(std::move(aot)),
      session_pool_(std::make_shared<LazyDfaSessionPool>()) {
  start_.SetStart(fused_);
}

StatusOr<LazyDfaTagger> LazyDfaTagger::Create(const grammar::Grammar* grammar,
                                              const TaggerOptions& options) {
  CFGTAG_ASSIGN_OR_RETURN(FusedTagger fused,
                          FusedTagger::Create(grammar, options));
  return Wrap(std::move(fused));
}

LazyDfaTagger LazyDfaTagger::Wrap(FusedTagger fused,
                                  std::shared_ptr<const AotDfaTable> aot) {
  return LazyDfaTagger(std::move(fused), std::move(aot));
}

void LazyDfaTagger::Run(std::string_view input, const TagSink& sink) const {
  LazyDfaSessionPool::Handle session = session_pool_->Acquire(this);
  session->Feed(input, sink);
  session->Finish(sink);
}

std::vector<Tag> LazyDfaTagger::TagAll(std::string_view input) const {
  std::vector<Tag> tags;
  Run(input, [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

// -------------------------------------------------------- LazyDfaSession

LazyDfaSession::LazyDfaSession(const LazyDfaTagger* tagger)
    : tagger_(nullptr), scratch_(&tagger->fused()) {
  Rebind(tagger);
}

void LazyDfaSession::Rebind(const LazyDfaTagger* tagger) {
  if (tagger != tagger_) {
    // The old tagger may already be gone (pooled sessions outlive the
    // tagger that last used them), so unflushed attribution cannot be
    // resolved to token names any more: drop it rather than merge it.
    attr_dirty_ = false;
    std::fill(attr_matches_.begin(), attr_matches_.end(), 0);
    attr_dfa_hits_ = attr_dfa_misses_ = 0;
    tagger_ = tagger;
    scratch_.Rebind(&tagger_->fused());
    num_classes_ = tagger_->fused().NumByteClasses();
    aot_ = tagger_->aot();
    num_aot_ = aot_ ? static_cast<int32_t>(aot_->states.size()) : 0;
    flushes_ = 0;
    fallback_ = false;
    ClearCache();
  }
  Reset();
}

void LazyDfaSession::ClearCache() {
  cache_.Clear();
  special_.clear();
  next_.assign(fallback_ ? 0 : static_cast<size_t>(num_aot_) * num_classes_,
               kUnbuilt);
  cache_bytes_ = next_.size() * sizeof(int32_t);
  budget_.ReleaseAll();
  budget_.Add(cache_bytes_);
}

void LazyDfaSession::Reset() {
  FlushAttribution();
  attr_on_ = obs::AttributionTable::enabled();
  if (attr_on_ &&
      attr_matches_.size() != tagger_->grammar().NumTokens()) {
    attr_matches_.assign(tagger_->grammar().NumTokens(), 0);
  }
  consumed_ = 0;
  finished_ = false;
  stopped_ = false;
  const DfaConfig& start = tagger_->start_config();
  if (fallback_) {
    scratch_.LoadConfig(start.state.data(), start.state.size(),
                        start.armed.data(), start.armed.size(),
                        start.prev_delim);
    pending_cls_ = start.pending_cls;
    return;
  }
  state_ = InternState(start);
}

int32_t LazyDfaSession::InternState(const DfaConfig& cfg) {
  // Baked states first: they can never be evicted, so a hit here costs the
  // session nothing and keeps its transitions shared.
  if (aot_ != nullptr) {
    const int32_t id = FindDfaState(aot_->states.data(),
                                    aot_->snap_pool.data(), aot_->index, cfg);
    if (id >= 0) return id;
  }
  int32_t local = cache_.Find(cfg);
  if (local < 0) {
    local = cache_.Append(cfg);
    next_.resize(next_.size() + num_classes_, kUnbuilt);
    const size_t charged =
        sizeof(DfaStateInfo) + num_classes_ * sizeof(int32_t) +
        (cfg.state.size() + cfg.armed.size()) * sizeof(WordBits) +
        kIndexNodeBytes;
    cache_bytes_ += charged;
    budget_.Add(charged);
    DfaCacheMetrics::Get().states->Increment();
  }
  return num_aot_ + local;
}

bool LazyDfaSession::IsPlain(int32_t id) const {
  const DfaStateInfo& info = Info(id);
  if (info.pending_cls < 0) return false;
  return info.num_state != 0 ||
         (info.num_armed != 0 &&
          !tagger_->fused().ClassIsDelim(
              static_cast<uint8_t>(info.pending_cls)));
}

int32_t LazyDfaSession::Install(uint8_t cls, int32_t next,
                                const int32_t* emit, size_t count) {
  const bool plain = IsPlain(next);
  const int32_t premultiplied = next * static_cast<int32_t>(num_classes_);
  int32_t entry = premultiplied;
  size_t charged = 0;
  if (count != 0 || !plain) {
    entry = kUnbuilt - 1 - static_cast<int32_t>(special_.size());
    special_.push_back(SpecialTrans{
        premultiplied, static_cast<uint32_t>(cache_.emit_pool.size()),
        static_cast<uint32_t>(count), plain});
    cache_.emit_pool.insert(cache_.emit_pool.end(), emit, emit + count);
    charged = sizeof(SpecialTrans) + count * sizeof(int32_t);
  }
  next_[static_cast<size_t>(state_) * num_classes_ + cls] = entry;
  cache_bytes_ += charged;
  budget_.Add(charged);
  return entry;
}

void LazyDfaSession::LoadScratch() {
  const DfaStateInfo& info = Info(state_);
  const WordBits* snap = Snap(info, state_);
  scratch_.LoadConfig(snap, info.num_state, snap + info.num_state,
                      info.num_armed, info.prev_delim != 0);
  pending_cls_ = info.pending_cls;
}

void LazyDfaSession::EnterFallback() {
  // Order matters: scratch_ must absorb the current interned configuration
  // before the pools holding it are freed.
  LoadScratch();
  fallback_ = true;
  ClearCache();
  DfaCacheMetrics::Get().fallbacks->Increment();
  obs::RecordEvent(obs::EventKind::kDfaCacheFallback,
                   static_cast<int64_t>(flushes_),
                   static_cast<int64_t>(consumed_),
                   "lazy-dfa session fell back to fused");
}

void LazyDfaSession::FlushAttribution() {
  if (!attr_dirty_) return;
  attr_dirty_ = false;
  obs::AttributionTable& table = obs::AttributionTable::Default();
  const std::vector<grammar::TokenDef>& tokens = tagger_->grammar().tokens();
  for (size_t tok = 0; tok < attr_matches_.size(); ++tok) {
    if (attr_matches_[tok] == 0) continue;
    table.AddToken(tokens[tok].name, attr_matches_[tok]);
    attr_matches_[tok] = 0;
  }
  table.AddDfaCache(attr_dfa_hits_, attr_dfa_misses_);
  attr_dfa_hits_ = attr_dfa_misses_ = 0;
}

void LazyDfaSession::Flush() {
  ++flushes_;
  DfaCacheMetrics::Get().flushes->Increment();
  obs::RecordEvent(obs::EventKind::kDfaCacheFlush,
                   static_cast<int64_t>(cache_bytes_),
                   static_cast<int64_t>(flushes_), "dfa transition cache flush");
  if (flushes_ >= tagger_->options().dfa_flush_fallback) {
    EnterFallback();
    return;
  }
  if (state_ < num_aot_) {
    // The current state is baked: its id survives the flush by
    // construction; its row refills from the baked table.
    ClearCache();
    return;
  }
  // Copy the current configuration out of the pools, drop everything,
  // re-intern it as the sole survivor.
  const DfaStateInfo& info = Info(state_);
  tmp_.Assign(info, Snap(info, state_));
  ClearCache();
  state_ = InternState(tmp_);
}

int32_t LazyDfaSession::BuildTransition(uint8_t cls) {
  // The miss path is the only place the cache grows, so it is where
  // budget pressure (and the dfa.intern fault site) sheds the session to
  // uncached stepping. The steady-state hit path never reaches here.
  if (core::resilience::ResourceBudget::Process().ShouldShedDfa() ||
      core::resilience::FaultInjector::ShouldFail("dfa.intern")) {
    EnterFallback();
    return kUnbuilt;
  }
  // A build interns at most one state, so one more row must fit.
  if (cache_bytes_ > tagger_->options().dfa_cache_bytes ||
      next_.size() + num_classes_ > kMaxTableEntries) {
    Flush();
    if (fallback_) return kUnbuilt;
  }
  const DfaStateInfo& info = Info(state_);
  tmp_.Step(info, Snap(info, state_), cls, &scratch_, &tmp_emit_);
  const int32_t next = InternState(tmp_);
  return Install(cls, next, tmp_emit_.data(), tmp_emit_.size());
}

inline void LazyDfaSession::Emit(const int32_t* toks, size_t count,
                                 const TagSink& sink) {
  for (size_t k = 0; k < count; ++k) {
    Tag tag;
    tag.token = toks[k];
    tag.end = consumed_;
    if (!stopped_ && !sink(tag)) stopped_ = true;
    if (attr_on_) ++attr_matches_[static_cast<size_t>(toks[k])];
  }
}

void LazyDfaSession::StepScratch(bool has_next, uint8_t next_cls,
                                 const TagSink& sink) {
  if (pending_cls_ < 0) return;
  scratch_.ProcessClass(static_cast<uint8_t>(pending_cls_), has_next,
                        next_cls);
  Emit(scratch_.emitted_.data(), scratch_.emitted_.size(), sink);
  ++consumed_;
}

void LazyDfaSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_ || chunk.empty()) return;
  const char* data = chunk.data();
  const size_t n = chunk.size();
  const ByteClassifier& classes = tagger_->fused().classifier();
  const IdleSkipper skipper(tagger_->fused());
  if (attr_on_) attr_dirty_ = true;

  size_t i = 0;

  // Cached. The per-byte path below serves idle skips, first touches of
  // baked rows, misses and transitions into non-plain states; from a plain
  // state the inner loop takes one flat-table lookup per byte and leaves
  // only on a special transition it cannot replay, or the chunk's end.
  // Only a miss can enter fallback; the loop then hands the byte to the
  // uncached loop below.
  if (!fallback_) {
    const size_t nc = num_classes_;
    size_t skipped = 0;
    uint64_t misses = 0;
    int32_t id = state_;
    while (i < n) {
      // Copy what the skip checks need before any build can grow the cache.
      const DfaStateInfo& info = Info(id);
      const IdleFacts cur{info.num_state != 0, info.num_armed != 0,
                          info.prev_delim != 0, info.pending_cls};
      if (!cur.live && cur.pending_cls >= 0) {
        const size_t j = skipper.LastInertByte(cur, data, i, n);
        consumed_ += j - i;
        skipped += j - i;
        i = j;
      }
      const uint8_t cls =
          classes.ClassOf(static_cast<unsigned char>(data[i]));
      int32_t entry = next_[static_cast<size_t>(id) * nc + cls];
      if (entry == kUnbuilt) {
        state_ = id;
        const DfaTrans* baked =
            id < num_aot_ ? &aot_->trans[static_cast<size_t>(id) * nc + cls]
                          : nullptr;
        if (baked != nullptr && baked->next >= 0) {
          entry = Install(cls, baked->next,
                          aot_->emit_pool.data() + baked->emit_begin,
                          baked->emit_count);
        } else {
          ++misses;
          entry = BuildTransition(cls);  // a flush may re-intern state_
          if (fallback_) break;
        }
      }
      int32_t s = entry;
      bool plain = true;
      if (entry < 0) {
        const SpecialTrans& sp = special_[SpecialIndex(entry)];
        Emit(cache_.emit_pool.data() + sp.emit_begin, sp.emit_count, sink);
        s = sp.next;
        plain = sp.plain;
      }
      if (cur.pending_cls >= 0) ++consumed_;
      ++i;
      if (plain && !stopped_) {
        // The inner loop. `s` is premultiplied and plain: every byte
        // consumes the pending one and no idle skip can fire.
        const size_t i0 = i;
        const uint64_t c0 = consumed_;
        while (i < n) {
          const int32_t e =
              next_[static_cast<size_t>(s) +
                    classes.ClassOf(static_cast<unsigned char>(data[i]))];
          if (e >= 0) {
            s = e;
            ++i;
            continue;
          }
          if (e == kUnbuilt) break;
          const SpecialTrans& sp = special_[SpecialIndex(e)];
          if (!sp.plain) break;
          consumed_ = c0 + (i - i0);
          Emit(cache_.emit_pool.data() + sp.emit_begin, sp.emit_count, sink);
          s = sp.next;
          ++i;
          if (stopped_) break;
        }
        consumed_ = c0 + (i - i0);
      }
      id = static_cast<int32_t>(static_cast<size_t>(s) / nc);
      if (stopped_) break;
    }
    // Every byte stepped in this mode is one lookup; a miss that entered
    // fallback looked up the byte the uncached loop then steps.
    if (attr_on_) {
      attr_dfa_misses_ += misses;
      attr_dfa_hits_ += (i - skipped) + (fallback_ ? 1 : 0) - misses;
    }
    if (!fallback_) state_ = id;
    if (stopped_) return;
  }

  // Fallback: the configuration is in scratch_ and the pending class in
  // pending_cls_; each byte takes one uncached fused step on the pending
  // byte, with this byte as its look-ahead.
  while (i < n) {
    const IdleFacts cur{scratch_.any_live_, scratch_.armed_any_,
                        scratch_.prev_was_delim_, pending_cls_};
    if (!cur.live && cur.pending_cls >= 0) {
      const size_t j = skipper.LastInertByte(cur, data, i, n);
      consumed_ += j - i;
      i = j;
    }
    const uint8_t cls = classes.ClassOf(static_cast<unsigned char>(data[i]));
    StepScratch(/*has_next=*/true, cls, sink);
    pending_cls_ = cls;
    ++i;
    if (stopped_) return;
  }
}

void LazyDfaSession::Finish(const TagSink& sink) {
  if (finished_) return;
  finished_ = true;
  // One real fused step with no look-ahead, in both modes; not worth
  // caching (once per stream), and the pending class is again exact.
  if (!fallback_) LoadScratch();
  if (!stopped_) StepScratch(/*has_next=*/false, 0, sink);
  FlushAttribution();
}

}  // namespace cfgtag::tagger
