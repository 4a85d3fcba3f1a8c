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
                       "Lazy-DFA sessions that fell back to fused execution "
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
    // As with FusedSession::Rebind: the old tagger may be gone, so drop
    // (not merge) any unflushed attribution.
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
  if (fallback_) {
    // In fallback the scratch session runs the real stream, so it counts
    // for itself (its Reset() resamples the attribution switch).
    scratch_.Reset();
    return;
  }
  // Scratch steps must never count (Finish's last step included): every
  // emission they produce is replayed (and counted) from the cache.
  scratch_.attr_on_ = false;
  state_ = InternState(tagger_->start_config());
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

void LazyDfaSession::MaterializeScratch() {
  const FusedTagger& f = tagger_->fused();
  const DfaStateInfo info = Info(state_);
  const WordBits* snap = Snap(info, state_);
  scratch_.LoadConfig(snap, info.num_state, snap + info.num_state,
                      info.num_armed, info.prev_delim != 0);
  scratch_.pos_ = consumed_;
  scratch_.stopped_ = stopped_;
  if (info.pending_cls >= 0) {
    scratch_.has_pending_ = true;
    scratch_.pending_ =
        f.classifier().Representative(static_cast<uint16_t>(info.pending_cls));
  }
}

void LazyDfaSession::SyncFromScratch() {
  consumed_ = scratch_.pos_;
  stopped_ = scratch_.stopped_;
}

void LazyDfaSession::EnterFallback() {
  // Order matters: the scratch session must absorb the current interned
  // configuration before the pools holding it are freed.
  MaterializeScratch();
  ClearCache();
  fallback_ = true;
  // From here the scratch session runs the real stream, so it takes over
  // attribution counting (LoadConfig does not resample the switch).
  scratch_.attr_on_ = attr_on_;
  if (attr_on_ &&
      scratch_.attr_matches_.size() != tagger_->grammar().NumTokens()) {
    scratch_.attr_matches_.assign(tagger_->grammar().NumTokens(), 0);
    // Live-word counts are per fused state word, not per token.
    scratch_.attr_live_.assign(tagger_->fused().NumStateWords(), 0);
  }
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
    table.AddToken(tokens[tok].name, attr_matches_[tok], /*live_words=*/0);
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
  // fused stepping. The steady-state hit path never reaches here.
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

void LazyDfaSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_ || chunk.empty()) return;
  if (fallback_) {
    scratch_.Feed(chunk, sink);
    SyncFromScratch();
    return;
  }
  const char* data = chunk.data();
  const size_t n = chunk.size();
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  const ArmMode mode = f.options().arm_mode;
  const RunScanner& delim = f.delimiter_scanner();
  const RunScanner& arm = f.arm_scanner();
  const SkipMetrics& skips = SkipMetrics::Get();
  if (attr_on_) attr_dirty_ = true;

  size_t i = 0;
  while (i < n) {
    // Copy what the skip checks need before any build can grow the cache.
    const DfaStateInfo cur = Info(state_);
    const int16_t pending = cur.pending_cls;
    if (cur.num_state == 0 && pending >= 0) {
      // Idle fast paths, the DFA rendition: a dead configuration cycles
      // through states differing only in pending class and delimiter
      // flag, so a whole inert run collapses to position arithmetic plus
      // ONE real transition on the run's last byte — which re-derives the
      // exact successor, because it is invariant across the run.
      const bool pending_delim = f.ClassIsDelim(static_cast<uint8_t>(pending));
      const bool armed = cur.num_armed != 0;
      if (pending_delim && delim.Test(static_cast<unsigned char>(data[i]))) {
        // Delimiter run: dead + delimiter pending emits nothing and
        // preserves arms whatever the input, so jump to the run's end.
        const size_t j = i + delim.FindFirstNotIn(data + i, n - i);
        if (j > i + 1) {
          skips.Of(SkipMetrics::kDelimiter, delim.strategy())
              ->Increment(j - 1 - i);
          consumed_ += j - 1 - i;
          i = j - 1;
        }
      } else if (!armed && mode == ArmMode::kAnchored) {
        // Dead stream: anchored arming can never re-inject; only the last
        // byte is fed (keeping the pending machinery consistent).
        if (n - i > 1) {
          skips.Of(SkipMetrics::kAnchored, SkipStrategy::kNone)
              ->Increment(n - 1 - i);
          consumed_ += n - 1 - i;
          i = n - 1;
        }
      } else if (!armed && mode == ArmMode::kResync && !cur.prev_delim &&
                 !pending_delim &&
                 !delim.Test(static_cast<unsigned char>(data[i]))) {
        // Mid-garbage in resync mode: start injection waits for the next
        // delimiter, so non-delimiter bytes are inert.
        const size_t j = i + delim.FindFirstIn(data + i, n - i);
        if (j > i + 1) {
          skips.Of(SkipMetrics::kResync, delim.strategy())
              ->Increment(j - 1 - i);
          consumed_ += j - 1 - i;
          i = j - 1;
        }
      } else if (!armed && mode == ArmMode::kScan &&
                 !f.ClassCanArm(static_cast<uint8_t>(pending)) &&
                 !arm.Test(static_cast<unsigned char>(data[i]))) {
        // Armed-byte prefilter, DFA rendition: fully idle in scan mode,
        // bytes that cannot start any token are inert, so jump to the
        // last such byte and take one real transition there. The run may
        // mix garbage and delimiters (delimiters never arm); the
        // intermediate states differ only in pending class and delimiter
        // flag, neither of which scan mode's injection reads, so the tags
        // are exact.
        const size_t j = i + arm.FindFirstIn(data + i, n - i);
        if (j > i + 1) {
          skips.Of(SkipMetrics::kArmed, arm.strategy())
              ->Increment(j - 1 - i);
          consumed_ += j - 1 - i;
          i = j - 1;
        }
      }
    }
    const uint8_t cls = classes.ClassOf(static_cast<unsigned char>(data[i]));
    // Fetch the transition from whichever region owns the current state:
    // baked row, then the session overlay for baked-row misses, then the
    // session's own rows. The emission pool follows the row's origin.
    DfaTrans tr;
    const int32_t* emit_base = cache_.emit_pool.data();
    if (state_ < num_aot_) {
      tr = aot_->trans[static_cast<size_t>(state_) * num_classes_ + cls];
      if (tr.next >= 0) {
        emit_base = aot_->emit_pool.data();
      } else if (!overlay_.empty()) {
        const auto it = overlay_.find(
            static_cast<uint64_t>(state_) * num_classes_ + cls);
        if (it != overlay_.end()) tr = it->second;
      }
    } else {
      tr = cache_.trans[static_cast<size_t>(state_ - num_aot_) * num_classes_ +
                        cls];
    }
    if (tr.next < 0) {
      if (attr_on_) ++attr_dfa_misses_;
      tr = BuildTransition(cls);
      emit_base = cache_.emit_pool.data();  // insertions may have reallocated
      if (fallback_) {
        // The scratch session holds the exact current configuration and
        // stream position; the rest of the stream runs pure fused.
        scratch_.Feed(std::string_view(data + i, n - i), sink);
        SyncFromScratch();
        return;
      }
    } else if (attr_on_) {
      ++attr_dfa_hits_;
    }
    if (tr.emit_count != 0) {
      const int32_t* toks = emit_base + tr.emit_begin;
      for (uint32_t k = 0; k < tr.emit_count; ++k) {
        Tag tag;
        tag.token = toks[k];
        tag.end = consumed_;
        if (!stopped_ && !sink(tag)) stopped_ = true;
        if (attr_on_) {
          ++attr_matches_[static_cast<size_t>(toks[k])];
        }
      }
    }
    if (pending >= 0) ++consumed_;
    state_ = tr.next;
    ++i;
    if (stopped_) return;
  }
}

void LazyDfaSession::Finish(const TagSink& sink) {
  if (finished_) return;
  finished_ = true;
  if (fallback_) {
    scratch_.Finish(sink);  // scratch merges its own attribution
    SyncFromScratch();
    FlushAttribution();
    return;
  }
  if (!stopped_ && Info(state_).pending_cls >= 0) {
    // One real fused step with no look-ahead; not worth caching (once per
    // stream), and the class representative is again exact. The scratch
    // step does not count attribution, so the wrapper tallies the final
    // byte's emissions here.
    MaterializeScratch();
    if (attr_on_) {
      scratch_.Finish([this, &sink](const Tag& tag) {
        ++attr_matches_[static_cast<size_t>(tag.token)];
        return sink(tag);
      });
    } else {
      scratch_.Finish(sink);
    }
    SyncFromScratch();
  }
  FlushAttribution();
}

}  // namespace cfgtag::tagger
