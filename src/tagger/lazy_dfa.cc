#include "tagger/lazy_dfa.h"

#include <algorithm>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"

namespace cfgtag::tagger {

namespace {

// Approximate per-state index cost (one unordered_multimap node plus
// bucket share) folded into the cache budget accounting. Also charged per
// overlay transition (same node shape).
constexpr size_t kIndexNodeBytes = 48;

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
    ClearCache();
    num_classes_ = tagger_->fused().NumByteClasses();
    aot_ = tagger_->aot();
    num_aot_ = aot_ ? static_cast<int32_t>(aot_->states.size()) : 0;
    flushes_ = 0;
    fallback_ = false;
  }
  Reset();
}

void LazyDfaSession::ClearCache() {
  cache_.Clear();
  overlay_.clear();
  cache_bytes_ = 0;
  budget_.ReleaseAll();
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
    local = cache_.Append(cfg, num_classes_);
    const size_t charged =
        sizeof(DfaStateInfo) + num_classes_ * sizeof(DfaTrans) +
        (cfg.state.size() + cfg.armed.size()) * sizeof(WordBits) +
        kIndexNodeBytes;
    cache_bytes_ += charged;
    budget_.Add(charged);
    DfaCacheMetrics::Get().states->Increment();
  }
  return num_aot_ + local;
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
  ClearCache();
  fallback_ = true;
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
    // The current state is baked: it (and every baked row) survives the
    // flush by construction — only the session's private cache drops.
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

DfaTrans LazyDfaSession::BuildTransition(uint8_t cls) {
  // The miss path is the only place the cache grows, so it is where
  // budget pressure (and the dfa.intern fault site) sheds the session to
  // uncached stepping. The steady-state hit path never reaches here.
  if (core::resilience::ResourceBudget::Process().ShouldShedDfa() ||
      core::resilience::FaultInjector::ShouldFail("dfa.intern")) {
    EnterFallback();
    return DfaTrans{};
  }
  if (cache_bytes_ > tagger_->options().dfa_cache_bytes) {
    Flush();
    if (fallback_) return DfaTrans{};
  }
  const DfaStateInfo& info = Info(state_);
  tmp_.Step(info, Snap(info, state_), cls, &scratch_, &tmp_emit_);
  const DfaTrans tr = cache_.AddTrans(InternState(tmp_), tmp_emit_);
  cache_bytes_ += tmp_emit_.size() * sizeof(int32_t);
  budget_.Add(tmp_emit_.size() * sizeof(int32_t));
  if (state_ < num_aot_) {
    // Baked rows are shared and immutable; runtime-built overflow out of a
    // baked state lives in the session's private overlay.
    overlay_[static_cast<uint64_t>(state_) * num_classes_ + cls] = tr;
    cache_bytes_ += kIndexNodeBytes + sizeof(DfaTrans);
    budget_.Add(kIndexNodeBytes + sizeof(DfaTrans));
  } else {
    cache_.trans[static_cast<size_t>(state_ - num_aot_) * num_classes_ + cls] =
        tr;
  }
  return tr;
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

  // Cached: one table lookup per byte. Only a miss can enter fallback; the
  // loop then hands the byte to the uncached loop below, which keeps the
  // uncached step off this loop's path. The state id stays in a local on
  // the dependent lookup chain; state_ is synced around the build.
  if (!fallback_) {
    int32_t state = state_;
    while (i < n) {
      // Copy what the skip checks need before any build can grow the cache.
      const DfaStateInfo& info = Info(state);
      const IdleFacts cur{info.num_state != 0, info.num_armed != 0,
                          info.prev_delim != 0, info.pending_cls};
      if (!cur.live && cur.pending_cls >= 0) {
        const size_t j = skipper.LastInertByte(cur, data, i, n);
        consumed_ += j - i;
        i = j;
      }
      const uint8_t cls =
          classes.ClassOf(static_cast<unsigned char>(data[i]));
      // Fetch the transition from whichever region owns the current state:
      // baked row, then the session overlay for baked-row misses, then the
      // session's own rows. The emission pool follows the row's origin.
      DfaTrans tr;
      const int32_t* emit_base = cache_.emit_pool.data();
      if (state < num_aot_) {
        tr = aot_->trans[static_cast<size_t>(state) * num_classes_ + cls];
        if (tr.next >= 0) {
          emit_base = aot_->emit_pool.data();
        } else if (!overlay_.empty()) {
          const auto it = overlay_.find(
              static_cast<uint64_t>(state) * num_classes_ + cls);
          if (it != overlay_.end()) tr = it->second;
        }
      } else {
        tr = cache_.trans[static_cast<size_t>(state - num_aot_) *
                              num_classes_ +
                          cls];
      }
      if (tr.next < 0) {
        if (attr_on_) ++attr_dfa_misses_;
        state_ = state;
        tr = BuildTransition(cls);  // a flush may re-intern state_
        if (fallback_) break;
        emit_base = cache_.emit_pool.data();  // insertions may have reallocated
      } else if (attr_on_) {
        ++attr_dfa_hits_;
      }
      if (tr.emit_count != 0) {
        Emit(emit_base + tr.emit_begin, tr.emit_count, sink);
      }
      if (cur.pending_cls >= 0) ++consumed_;
      state = tr.next;
      ++i;
      if (stopped_) break;
    }
    state_ = state;
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
