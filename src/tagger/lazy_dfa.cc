#include "tagger/lazy_dfa.h"

#include <algorithm>
#include <cstdint>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "tagger/session_pool.h"

namespace cfgtag::tagger {

namespace {

// Table entry flags: the step emits; an idle skip may start out of the
// entry's source state on its class, and which one. kUnbuilt keeps every
// bit set, so the walk's exit test catches it and its kind is kLeave.
constexpr int32_t kEmits = 1;
constexpr int32_t kExit = 2;
constexpr int kKindShift = 2;
constexpr int32_t kUnbuilt = -1;

// The walk kind of an exit entry (bits 2-3): the run of a delimiter,
// resync or armed skip may end at the entry's byte, which the next byte
// tells (LazyDfaTagger::run_ends); any other exit leaves the walk.
constexpr int32_t kRunDelimiter = 0;
constexpr int32_t kRunResync = 1;
constexpr int32_t kRunArmed = 2;
constexpr int32_t kLeave = 3;
// By SkipMetrics::Kind: an anchored run never ends before the chunk does.
constexpr int32_t kWalkKind[] = {kRunDelimiter, kLeave, kRunResync,
                                 kRunArmed};

// Approximate per-state index cost (one unordered_multimap node plus
// bucket share) folded into the cache budget accounting.
constexpr size_t kIndexNodeBytes = 48;

constexpr SkipMetrics::Kind kNoSkip = SkipMetrics::kNumKinds;

// Trail entries between the starts of two lanes' trail regions: a slice's
// worth plus an odd number of cache lines, so the lanes' lockstep trail
// writes do not all fall in one cache set.
constexpr size_t kTrailStride = LazyDfaSession::kSliceBytes + 136;

// What the idle skips read of the current configuration: an interned
// state's, or in fallback the scratch configuration's plus the session's
// pending class.
struct IdleFacts {
  bool live;
  bool armed;
  bool prev_delim;
  int16_t pending_cls;
};

IdleFacts FactsOf(const DfaStateInfo& info) {
  return {info.num_state != 0, info.num_armed != 0, info.prev_delim != 0,
          info.pending_cls};
}

// The idle fast paths, one set for both stepping modes. A dead
// configuration cycles through configurations differing only in pending
// class and delimiter flag, so a whole inert run collapses to position
// arithmetic plus ONE real step on the run's last byte — which re-derives
// the exact successor, because it is invariant across the run.
//
// Which skip may start from `cur` on a byte of class `cls` (kNoSkip: none).
// A function of state facts and byte class alone, so it is folded into
// the table entry's exit bit when the entry is installed.
SkipMetrics::Kind SkipKind(const FusedTagger& f, const IdleFacts& cur,
                           uint8_t cls) {
  if (cur.live || cur.pending_cls < 0) return kNoSkip;
  const uint8_t pending = static_cast<uint8_t>(cur.pending_cls);
  const bool pending_delim = f.ClassIsDelim(pending);
  // Delimiter run: dead + delimiter pending emits nothing and preserves
  // arms whatever the input, so jump to the run's end.
  if (pending_delim && f.ClassIsDelim(cls)) return SkipMetrics::kDelimiter;
  if (cur.armed) return kNoSkip;
  switch (f.options().arm_mode) {
    case ArmMode::kAnchored:
      // Dead stream: anchored arming can never re-inject; only the last
      // byte is stepped (keeping the pending machinery consistent).
      return SkipMetrics::kAnchored;
    case ArmMode::kResync:
      // Mid-garbage in resync mode: start injection waits for the next
      // delimiter, so non-delimiter bytes are inert.
      return !cur.prev_delim && !pending_delim && !f.ClassIsDelim(cls)
                 ? SkipMetrics::kResync
                 : kNoSkip;
    case ArmMode::kScan:
      // Armed-byte prefilter: fully idle in scan mode, bytes that cannot
      // start any token are inert, so jump to the last such byte and step
      // there. The run may mix garbage and delimiters (delimiters never
      // arm); the skipped configurations differ only in pending class and
      // delimiter flag, neither of which scan mode's injection reads, so
      // the tags are exact.
      return !f.ClassCanArm(pending) && !f.ClassCanArm(cls)
                 ? SkipMetrics::kArmed
                 : kNoSkip;
  }
  return kNoSkip;
}

// The index of the last byte of the inert run of `kind` starting at
// data[i] and bounded by n (i itself for kNoSkip).
size_t LastInertByte(const FusedTagger& f, SkipMetrics::Kind kind,
                     const char* data, size_t i, size_t n) {
  switch (kind) {
    case SkipMetrics::kDelimiter:
      return i + f.delimiter_scanner().FindFirstNotIn(data + i, n - i) - 1;
    case SkipMetrics::kAnchored:
      return n - 1;
    case SkipMetrics::kResync:
      return i + f.delimiter_scanner().FindFirstIn(data + i, n - i) - 1;
    case SkipMetrics::kArmed:
      return i + f.arm_scanner().FindFirstIn(data + i, n - i) - 1;
    default:
      return i;
  }
}

// Counts `len` bytes jumped by a skip of `kind`, labelled with the scanner
// that found the run's end.
void CountSkip(const FusedTagger& f, SkipMetrics::Kind kind, size_t len) {
  if (len == 0) return;
  const RunScanner* scanner = kind == SkipMetrics::kArmed ? &f.arm_scanner()
                              : kind == SkipMetrics::kAnchored
                                  ? nullptr
                                  : &f.delimiter_scanner();
  SkipMetrics::Get()
      .Of(kind, scanner != nullptr ? scanner->strategy() : SkipStrategy::kNone)
      ->Increment(len);
}

// The idle skip, if one may start from `cur` at data[i]: counts it and
// returns the index of the byte to step (i when nothing skips).
size_t TakeSkip(const FusedTagger& f, const IdleFacts& cur, const char* data,
                size_t i, size_t n) {
  const SkipMetrics::Kind kind = SkipKind(
      f, cur, f.classifier().ClassOf(static_cast<unsigned char>(data[i])));
  const size_t j = LastInertByte(f, kind, data, i, n);
  CountSkip(f, kind, j - i);
  return j;
}

// The exit flags of an entry out of a state with idle facts `facts` on a
// byte of class `cls`: none unless an idle skip may start there, else the
// exit bit and the skip's walk kind. Out of the stream-start state there
// is no pending byte to consume, which only the per-byte path accounts
// for, so that exit leaves.
int32_t ExitFlags(const FusedTagger& f, const IdleFacts& facts, uint8_t cls) {
  if (facts.pending_cls < 0) return kExit | kLeave << kKindShift;
  const SkipMetrics::Kind kind = SkipKind(f, facts, cls);
  return kind == kNoSkip ? 0 : kExit | kWalkKind[kind] << kKindShift;
}

// A built entry: the premultiplied successor and the flags.
int32_t Entry(int32_t next, size_t num_classes, int32_t exit, bool emits) {
  return LazyDfaSession::EncodeEntry(static_cast<size_t>(next) * num_classes,
                                     exit | (emits ? kEmits : 0));
}

// Whether the idle run that exit entry `e` may start ends before byte
// `after`: never for kLeave, unbuilt entries included.
inline bool RunEndsBefore(int32_t e, unsigned char after,
                          const uint8_t* run_ends) {
  return ((run_ends[after] >> ((e >> kKindShift) & 3)) & 1) != 0;
}

// The low 32 bits of a byte's address: a trail position. Positions of
// bytes less than 4 GiB apart subtract exactly.
inline uint32_t Addr32(const void* at) {
  return static_cast<uint32_t>(reinterpret_cast<uintptr_t>(at));
}

// The baked table's rows in the walk's entry format. Exit flags depend on
// a state's idle facts and the byte class alone, so each distinct facts
// value (of at most 8 * (classes + 1)) gets one row of them, filled when a
// state first has it.
std::vector<int32_t> WalkFormat(const FusedTagger& f, const AotDfaTable& aot) {
  const size_t nc = aot.num_classes;
  std::vector<int32_t> exits(8 * (nc + 1) * nc, kUnbuilt);
  std::vector<int32_t> next(aot.states.size() * nc);
  for (size_t id = 0; id < aot.states.size(); ++id) {
    const IdleFacts facts = FactsOf(aot.states[id]);
    const size_t key =
        (facts.live * 4u + facts.armed * 2u + facts.prev_delim) * (nc + 1) +
        static_cast<size_t>(facts.pending_cls + 1);
    int32_t* const flags = exits.data() + key * nc;
    if (flags[0] == kUnbuilt) {
      for (size_t cls = 0; cls < nc; ++cls) {
        flags[cls] = ExitFlags(f, facts, static_cast<uint8_t>(cls));
      }
    }
    const DfaTrans* const row = aot.trans.data() + id * nc;
    for (size_t cls = 0; cls < nc; ++cls) {
      next[id * nc + cls] =
          row[cls].next < 0 ? kUnbuilt
                            : Entry(row[cls].next, nc, flags[cls],
                                    row[cls].emit_count != 0);
    }
  }
  return next;
}

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
  if (aot_ != nullptr) baked_next_ = WalkFormat(fused_, *aot_);
  const RunScanner& delim = fused_.delimiter_scanner();
  const RunScanner& arm = fused_.arm_scanner();
  for (int b = 0; b < 256; ++b) {
    const unsigned char c = static_cast<unsigned char>(b);
    run_ends_[b] = static_cast<uint8_t>(
        (delim.Test(c) ? 1 << kRunResync : 1 << kRunDelimiter) |
        (arm.Test(c) ? 1 << kRunArmed : 0));
  }
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
    for (EmitList& list : emits_) list.replays = 0;
    attr_dfa_hits_ = attr_dfa_misses_ = 0;
    tagger_ = tagger;
    scratch_.Rebind(&tagger_->fused());
    num_classes_ = tagger_->fused().NumByteClasses();
    aot_ = tagger_->aot();
    num_aot_ = aot_ ? static_cast<int32_t>(aot_->states.size()) : 0;
    baked_slots_ = static_cast<size_t>(num_aot_) * num_classes_;
    flushes_ = 0;
    fallback_ = false;
    ClearCache();
  }
  Reset();
}

void LazyDfaSession::ClearCache() {
  ClearPadMemo();
  start_id_ = -1;
  FoldEmitCounts();
  cache_.Clear();
  emits_.clear();
  own_table_ = false;
  next_.clear();
  emit_ref_.clear();
  std::fill(std::begin(guess_), std::end(guess_), -1);
  cache_bytes_ = 0;
  budget_.ReleaseAll();
}

inline const int32_t* LazyDfaSession::Table() const {
  return own_table_ ? next_.data() : tagger_->baked_next().data();
}

void LazyDfaSession::OwnTable() {
  if (own_table_) return;
  own_table_ = true;
  const std::vector<int32_t>& baked = tagger_->baked_next();
  next_.assign(baked.begin(), baked.end());
  emit_ref_.assign(baked.size(), 0);
  const size_t charged = baked.size() * (sizeof(int32_t) + sizeof(uint32_t));
  cache_bytes_ += charged;
  budget_.Add(charged);
}

void LazyDfaSession::Reset() {
  FlushAttribution();
  attr_on_ = obs::AttributionTable::enabled();
  if (attr_on_ &&
      attr_matches_.size() != tagger_->grammar().NumTokens()) {
    attr_matches_.assign(tagger_->grammar().NumTokens(), 0);
  }
  consumed_ = 0;
  tags_ = 0;
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
  if (start_id_ < 0) start_id_ = InternState(start);
  state_ = start_id_;
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
    OwnTable();
    local = cache_.Append(cfg);
    next_.resize(next_.size() + num_classes_, kUnbuilt);
    emit_ref_.resize(next_.size());
    const size_t charged =
        sizeof(DfaStateInfo) +
        num_classes_ * (sizeof(int32_t) + sizeof(uint32_t)) +
        (cfg.state.size() + cfg.armed.size()) * sizeof(WordBits) +
        kIndexNodeBytes;
    cache_bytes_ += charged;
    budget_.Add(charged);
    DfaCacheMetrics::Get().states->Increment();
  }
  return num_aot_ + local;
}

size_t LazyDfaSession::Put(size_t slot, int32_t next, int32_t exit,
                           const int32_t* emit, size_t count) {
  size_t charged = 0;
  if (count != 0) {
    emit_ref_[slot] = static_cast<uint32_t>(emits_.size());
    emits_.push_back(EmitList{static_cast<uint32_t>(cache_.emit_pool.size()),
                              static_cast<uint32_t>(count), 0});
    cache_.emit_pool.insert(cache_.emit_pool.end(), emit, emit + count);
    charged = sizeof(EmitList) + count * sizeof(int32_t);
  }
  next_[slot] = Entry(next, num_classes_, exit, count != 0);
  return charged;
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

void LazyDfaSession::FoldEmitCounts() {
  if (!attr_on_) return;
  for (EmitList& list : emits_) {
    if (list.replays == 0) continue;
    for (uint32_t k = 0; k < list.count; ++k) {
      attr_matches_[static_cast<size_t>(
          cache_.emit_pool[list.begin + k])] += list.replays;
    }
    list.replays = 0;
  }
}

void LazyDfaSession::FlushAttribution() {
  if (!attr_dirty_) return;
  attr_dirty_ = false;
  FoldEmitCounts();
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
    // construction, and the session walks the baked table again.
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

bool LazyDfaSession::ShedOnMiss() {
  // The miss path is the only place the cache grows, so it is where
  // budget pressure (and the dfa.intern fault site) sheds the session to
  // uncached stepping. The steady-state hit path never reaches here.
  if (!core::resilience::ResourceBudget::Process().ShouldShedDfa() &&
      !core::resilience::FaultInjector::ShouldFail("dfa.intern")) {
    return false;
  }
  EnterFallback();
  return true;
}

bool LazyDfaSession::CacheFull() const {
  // A build interns at most one state, so one more row must fit.
  return cache_bytes_ > tagger_->options().dfa_cache_bytes ||
         TableFull(next_.size(), num_classes_);
}

int32_t LazyDfaSession::BuildTransition(uint8_t cls) {
  if (ShedOnMiss()) return kUnbuilt;
  if (CacheFull()) {
    Flush();
    if (fallback_) return kUnbuilt;
  }
  return BuildFrom(state_, cls);
}

int32_t LazyDfaSession::BuildFrom(int32_t from, uint8_t cls) {
  OwnTable();
  const DfaStateInfo& info = Info(from);
  tmp_.Step(info, Snap(info, from), cls, &scratch_, &tmp_emit_);
  const int32_t next = InternState(tmp_);  // may move Info(from)
  const size_t slot = static_cast<size_t>(from) * num_classes_ + cls;
  const size_t charged =
      Put(slot, next, ExitFlags(tagger_->fused(), FactsOf(Info(from)), cls),
          tmp_emit_.data(), tmp_emit_.size());
  cache_bytes_ += charged;
  budget_.Add(charged);
  return next_[slot];
}

inline void LazyDfaSession::Emit(const int32_t* toks, size_t count,
                                 const TagSink& sink) {
  for (size_t k = 0; k < count && !stopped_; ++k) {
    Tag tag;
    tag.token = toks[k];
    tag.end = consumed_;
    ++tags_;
    if (!sink(tag)) stopped_ = true;
  }
}

inline void LazyDfaSession::EmitSlot(size_t slot, const TagSink& sink) {
  // The session builds only where the bake did not.
  if (slot < baked_slots_ && aot_->trans[slot].next >= 0) {
    const DfaTrans& t = aot_->trans[slot];
    const int32_t* const toks = aot_->emit_pool.data() + t.emit_begin;
    if (attr_on_) {
      for (uint32_t k = 0; k < t.emit_count; ++k) {
        ++attr_matches_[static_cast<size_t>(toks[k])];
      }
    }
    Emit(toks, t.emit_count, sink);
    return;
  }
  EmitList& list = emits_[emit_ref_[slot]];
  if (attr_on_) ++list.replays;
  Emit(cache_.emit_pool.data() + list.begin, list.count, sink);
}

size_t LazyDfaSession::Replay(size_t from, size_t to, const char* origin,
                              uint64_t off, const TagSink& sink) {
  const TrailEntry* const trail = trail_.get();
  const uint32_t at = Addr32(origin);
  for (size_t k = from; k < to; ++k) {
    const uint32_t rel = trail[k].pos - at;
    consumed_ = off + rel;
    EmitSlot(trail[k].slot, sink);
    if (stopped_) {
      ++consumed_;
      state_ = static_cast<int32_t>(Successor(Table()[trail[k].slot]) /
                                    num_classes_);
      return static_cast<size_t>(rel) + 1;
    }
  }
  return 0;
}

void LazyDfaSession::LogPadSkip(SkipMetrics::Kind kind, size_t len) {
  pad_rec_->skips.push_back(PadSkip{
      static_cast<uint32_t>(pad_rec_->tags.size()),
      static_cast<uint32_t>(len), kind});
}

void LazyDfaSession::StepScratch(bool has_next, uint8_t next_cls,
                                 const TagSink& sink) {
  if (pending_cls_ < 0) return;
  scratch_.ProcessClass(static_cast<uint8_t>(pending_cls_), has_next,
                        next_cls);
  Emit(scratch_.emitted_.data(), scratch_.emitted_.size(), sink);
  if (attr_on_) {
    for (const int32_t tok : scratch_.emitted_) {
      ++attr_matches_[static_cast<size_t>(tok)];
    }
  }
  ++consumed_;
}

bool LazyDfaSession::StepSlow(Cursor& c, const TagSink& sink) {
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  // Copy what the skip checks need before any build can grow the cache.
  const IdleFacts cur = FactsOf(Info(state_));
  const size_t j = TakeSkip(f, cur, c.data, c.i, c.n);
  if (pad_rec_ != nullptr && j != c.i) {
    LogPadSkip(SkipKind(f, cur, classes.ClassOf(
                                    static_cast<unsigned char>(c.data[c.i]))),
               j - c.i);
  }
  consumed_ += j - c.i;
  c.skipped += j - c.i;
  c.i = j;
  const uint8_t cls = classes.ClassOf(static_cast<unsigned char>(c.data[c.i]));
  int32_t entry = Table()[static_cast<size_t>(state_) * num_classes_ + cls];
  if (entry == kUnbuilt) {
    ++c.misses;
    entry = BuildTransition(cls);  // a flush may re-intern state_
    if (fallback_) return false;
  }
  if ((entry & kEmits) != 0) {
    EmitSlot(static_cast<size_t>(state_) * num_classes_ + cls, sink);
  }
  if (cur.pending_cls >= 0) ++consumed_;
  ++c.i;
  state_ = static_cast<int32_t>(Successor(entry) / num_classes_);
  return !stopped_;
}

bool LazyDfaSession::StepSegment(Cursor& c, size_t end, const TagSink& sink) {
  // Pass 1: a one-lane walk of at most kWalkBytes into the ordinary path's
  // trail region, which follows the lanes'. Its callers often stop early
  // (the router at the method name), and a short window bounds the walk
  // past the stop that pass 2 throws away. Like a lane, it takes the step
  // of an idle run that its byte ends when the next byte lies in the
  // window, and leaves on any other exit bit.
  const int32_t* const next = Table();
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const uint8_t* const run_ends = tagger_->run_ends();
  const unsigned char* const p =
      reinterpret_cast<const unsigned char*>(c.data) + c.i;
  const size_t m = std::min(end - c.i, kWalkBytes);
  TrailEntry* const trail = trail_.get();
  const size_t region = kLanes * kTrailStride;
  size_t t = region;
  int32_t s = state_ * static_cast<int32_t>(num_classes_);
  size_t r = 0;
  for (; r < m; ++r) {
    const uint32_t slot = static_cast<uint32_t>(s) + class_of[p[r]];
    const int32_t e = next[slot];
    if ((e & kExit) != 0 &&
        (r + 1 == m || !RunEndsBefore(e, p[r + 1], run_ends))) {
      break;
    }
    trail[t] = TrailEntry{Addr32(p + r), slot};
    t += static_cast<size_t>(e & kEmits);
    s = e >> kFlagBits;
  }
  if (r == 0) return StepSlow(c, sink);
  // Pass 2. The walk consumed one pending byte per byte it took.
  const uint64_t off = consumed_;
  const size_t stop = Replay(region, t, c.data + c.i, off, sink);
  if (stop != 0) {
    c.i += stop;
    return false;
  }
  consumed_ = off + r;
  c.i += r;
  state_ = static_cast<int32_t>(static_cast<size_t>(s) / num_classes_);
  return true;
}

template <size_t N>
size_t LazyDfaSession::Lockstep(Lane* const* lanes, const char* data) {
  const int32_t* const next = Table();
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const uint8_t* const run_ends = tagger_->run_ends();
  TrailEntry* const trail = trail_.get();
  const unsigned char* const base =
      reinterpret_cast<const unsigned char*>(data);
  // Each lane's next byte. The round reads these from memory (volatile):
  // held in registers, they would push the lanes' states out, and a
  // spilled state puts a store-to-load round trip on its lane's load chain.
  const unsigned char* volatile p[N];
  uint32_t s[N];
  TrailEntry* t[N];
  for (size_t k = 0; k < N; ++k) {
    p[k] = base + lanes[k]->pos;
    s[k] = static_cast<uint32_t>(lanes[k]->s);
    t[k] = trail + lanes[k]->t;
  }
  size_t rounds = kCheckpointBytes;
  size_t left = N;
  for (;;) {
    size_t m = rounds;
    for (size_t k = 0; k < N; ++k) {
      m = std::min(m, static_cast<size_t>(base + lanes[k]->end - p[k]));
    }
    // Each lane tests its own exit bit as it steps, so no lane's lookup
    // stays live across the round; the lanes before the one that met an
    // exit bit keep the round's byte.
    size_t r = 0;
    size_t exit = N;
    for (; r < m; ++r) {
      size_t k = 0;
      for (; k < N; ++k) {
        const unsigned char* const at = p[k] + r;
        const size_t slot = size_t{s[k]} + class_of[*at];
        const int32_t e = next[slot];
        if ((e & kExit) != 0) break;
        *t[k] = TrailEntry{Addr32(at), static_cast<uint32_t>(slot)};
        t[k] += e & kEmits;
        s[k] = static_cast<uint32_t>(e) >> kFlagBits;
      }
      if (k < N) {
        exit = k;
        break;
      }
    }
    for (size_t k = 0; k < N; ++k) {
      p[k] = p[k] + r + (k < exit && exit < N ? 1 : 0);
    }
    if (exit == N) break;
    rounds -= r;
    // Off the round: when lane `exit`'s byte ends the idle run and the next
    // byte lies before the lane's end, the skip would jump nothing and the
    // per-byte path would take this same entry, so the lane takes it here.
    const unsigned char* const at = p[exit];
    const size_t slot = size_t{s[exit]} + class_of[*at];
    const int32_t e = next[slot];
    if (at + 1 == base + lanes[exit]->end ||
        !RunEndsBefore(e, at[1], run_ends)) {
      left = exit;
      break;
    }
    *t[exit] = TrailEntry{Addr32(at), static_cast<uint32_t>(slot)};
    t[exit] += e & kEmits;
    s[exit] = static_cast<uint32_t>(e) >> kFlagBits;
    p[exit] = at + 1;
  }
  for (size_t k = 0; k < N; ++k) {
    lanes[k]->pos = static_cast<size_t>(p[k] - base);
    lanes[k]->s = static_cast<int32_t>(s[k]);
    lanes[k]->t = static_cast<uint32_t>(t[k] - trail);
  }
  return left;
}

void LazyDfaSession::LaneSlowStep(Lane& lane, const char* data,
                                  size_t base) {
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  const int32_t id =
      static_cast<int32_t>(static_cast<size_t>(lane.s) / num_classes_);
  // Lanes never start out of the stream-start state, and no step leads
  // into it, so every lane step consumes a pending byte.
  const SkipMetrics::Kind kind =
      SkipKind(f, FactsOf(Info(id)),
               classes.ClassOf(static_cast<unsigned char>(data[lane.pos])));
  const size_t j = LastInertByte(f, kind, data, lane.pos, lane.end);
  Checkpoint cp{static_cast<uint32_t>(lane.pos - base), id, lane.t, 0,
                kind, false};
  const uint8_t cls = classes.ClassOf(static_cast<unsigned char>(data[j]));
  const size_t slot = static_cast<size_t>(lane.s) + cls;
  // A skip that reaches the slice's end may run on past it: the ordinary
  // path takes it, from this checkpoint.
  const bool cut = kind != kNoSkip && j + 1 == lane.end;
  const int32_t entry = cut ? kUnbuilt : Table()[slot];
  if (entry == kUnbuilt) {
    lane.cps.push_back(cp);
    // A stall: the lane's state is likely still a wrong guess, so it
    // guesses again past the byte it could not step.
    const int32_t guess = guess_[static_cast<unsigned char>(data[j])];
    if (cut || guess < 0 || j + 1 == lane.end ||
        lane.restarts == kMaxRestarts) {
      lane.done = true;
      return;
    }
    ++lane.restarts;
    lane.pos = j + 1;
    lane.s = guess * static_cast<int32_t>(num_classes_);
    lane.cps.push_back(Checkpoint{static_cast<uint32_t>(lane.pos - base),
                                  guess, lane.t, 0, kNoSkip, true});
    return;
  }
  cp.skip_len = static_cast<uint32_t>(j - lane.pos);
  lane.cps.push_back(cp);
  trail_[lane.t] = TrailEntry{Addr32(data + j), static_cast<uint32_t>(slot)};
  lane.t += static_cast<uint32_t>(entry & kEmits);
  lane.s = entry >> kFlagBits;
  lane.pos = j + 1;
}

size_t LazyDfaSession::Adopt(Cursor& c, const Lane& lane, size_t from,
                             size_t base, const TagSink& sink) {
  const FusedTagger& f = tagger_->fused();
  // The consumed count before the byte at base + pos is off + pos.
  const uint64_t off = consumed_ - (c.i - base);
  size_t trail = lane.cps[from].trail;
  size_t q = from;
  for (;; ++q) {
    const Checkpoint& cp = lane.cps[q];
    const size_t stop = Replay(trail, cp.trail, c.data + base, off, sink);
    if (stop != 0) {
      c.i = base + stop;
      return q;
    }
    trail = cp.trail;
    if (cp.skip_len != 0) {
      CountSkip(f, cp.kind, cp.skip_len);
      c.skipped += cp.skip_len;
      if (pad_rec_ != nullptr) LogPadSkip(cp.kind, cp.skip_len);
    }
    if (q + 1 == lane.cps.size() || lane.cps[q + 1].restart) break;
  }
  const Checkpoint& last = lane.cps[q];
  c.i = base + last.pos;
  consumed_ = off + last.pos;
  state_ = last.state;
  return q;
}

void LazyDfaSession::WalkLanes(Lane** live, size_t num_live,
                               const char* data, size_t base) {
  static_assert(kLanes == 4, "WalkLanes dispatches 1 to 4 live lanes");
  while (num_live > 0) {
    size_t left;
    switch (num_live) {
      case 4: left = Lockstep<4>(live, data); break;
      case 3: left = Lockstep<3>(live, data); break;
      case 2: left = Lockstep<2>(live, data); break;
      default: left = Lockstep<1>(live, data); break;
    }
    if (left < num_live) LaneSlowStep(*live[left], data, base);
    size_t kept = 0;
    for (size_t k = 0; k < num_live; ++k) {
      Lane& lane = *live[k];
      // A checkpoint at the lane's end, and one every kCheckpointBytes of
      // walk, so a stream with few exits still converges soon.
      if (!lane.done &&
          (lane.pos == lane.end ||
           lane.pos - base >= lane.cps.back().pos + kCheckpointBytes)) {
        lane.cps.push_back(Checkpoint{
            static_cast<uint32_t>(lane.pos - base),
            static_cast<int32_t>(static_cast<size_t>(lane.s) / num_classes_),
            lane.t, 0, kNoSkip, false});
        lane.done = lane.pos == lane.end;
      }
      if (!lane.done) live[kept++] = &lane;
    }
    num_live = kept;
  }
}

void LazyDfaSession::NoteGuess(const Cursor& c) {
  if (c.i != 0) guess_[static_cast<unsigned char>(c.data[c.i - 1])] = state_;
}

void LazyDfaSession::Superblock(Cursor& c, const TagSink& sink) {
  const size_t base = c.i;
  // Speculate: lane 0 from the true state, the others from guesses.
  Lane* live[kLanes];
  for (size_t k = 0; k < kLanes; ++k) {
    Lane& lane = lanes_[k];
    lane.pos = base + k * kSliceBytes;
    lane.end = lane.pos + kSliceBytes;
    const int32_t guess =
        k == 0 ? -1 : guess_[static_cast<unsigned char>(c.data[lane.pos - 1])];
    const int32_t start = guess >= 0 ? guess : state_;
    lane.s = start * static_cast<int32_t>(num_classes_);
    lane.t = static_cast<uint32_t>(k * kTrailStride);
    lane.done = false;
    lane.restarts = 0;
    lane.cps.assign(1, Checkpoint{static_cast<uint32_t>(k * kSliceBytes),
                                  start, lane.t, 0, kNoSkip, true});
    live[k] = &lane;
  }
  WalkLanes(live, kLanes, c.data, base);

  // Commit: the ordinary path runs from the true state, adopting a lane's
  // guessed stretch at the first of its checkpoints it meets in the lane's
  // state, and notes the states it passes through for later guesses.
  // Checkpoints are in position order, so one cursor per lane finds them.
  const uint64_t flushes = flushes_;
  bool speculating = true;
  for (const Lane& lane : lanes_) {
    size_t q = 0;
    while (c.i < lane.end) {
      size_t stop = lane.end;
      if (speculating) {
        const size_t rel = c.i - base;
        while (q < lane.cps.size() && lane.cps[q].pos < rel) ++q;
        if (q < lane.cps.size() && lane.cps[q].pos == rel &&
            lane.cps[q].state == state_) {
          q = Adopt(c, lane, q, base, sink) + 1;
          if (stopped_) return;
          NoteGuess(c);
          continue;
        }
        // Walk no further than the lane's next checkpoint, to test it.
        size_t r = q;
        while (r < lane.cps.size() && lane.cps[r].pos <= rel) ++r;
        if (r < lane.cps.size()) stop = base + lane.cps[r].pos;
      }
      if (!StepSegment(c, stop, sink)) return;
      NoteGuess(c);
      // A flush renumbers states: the lanes' logs no longer apply.
      if (flushes_ != flushes) speculating = false;
    }
  }
}

void LazyDfaSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_ || chunk.empty()) return;
  if (attr_on_) attr_dirty_ = true;
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  Cursor c{chunk.data(), chunk.size(), 0, 0, 0};

  // Cached: superblocks while a full one remains (past the stream's first
  // byte, which the walk does not count), then walks and per-byte steps.
  // Only a miss can enter fallback; the byte then goes to the uncached
  // loop below.
  if (!fallback_) {
    if (!trail_) trail_.reset(new TrailEntry[(kLanes + 1) * kTrailStride]);
    while (c.i < c.n && !stopped_ && !fallback_) {
      if (c.n - c.i >= kLanes * kSliceBytes &&
          Info(state_).pending_cls >= 0) {
        Superblock(c, sink);
      } else {
        StepSegment(c, c.n, sink);
      }
    }
    // Every byte stepped in this mode is one lookup; a miss that entered
    // fallback looked up the byte the uncached loop then steps.
    if (attr_on_) {
      attr_dfa_misses_ += c.misses;
      attr_dfa_hits_ += (c.i - c.skipped) + (fallback_ ? 1 : 0) - c.misses;
    }
    if (stopped_) return;
  }

  // Fallback: the configuration is in scratch_ and the pending class in
  // pending_cls_; each byte takes one uncached fused step on the pending
  // byte, with this byte as its look-ahead.
  while (c.i < c.n) {
    const size_t j = TakeSkip(f,
                              IdleFacts{scratch_.any_live_,
                                        scratch_.armed_any_,
                                        scratch_.prev_was_delim_,
                                        pending_cls_},
                              c.data, c.i, c.n);
    consumed_ += j - c.i;
    c.i = j;
    const uint8_t cls =
        classes.ClassOf(static_cast<unsigned char>(c.data[c.i]));
    StepScratch(/*has_next=*/true, cls, sink);
    pending_cls_ = cls;
    ++c.i;
    if (stopped_) return;
  }
}

void LazyDfaSession::FeedPadding(std::string_view pad, const TagSink& sink) {
  // Fallback and attribution are slow paths that the plain Feed keeps
  // exact by construction.
  if (fallback_ || attr_on_ || finished_ || stopped_) {
    Feed(pad, sink);
    return;
  }
  if (pad != pad_bytes_) {
    ClearPadMemo();
    pad_bytes_.assign(pad);
  }
  const auto hit = pad_memo_.find(state_);
  if (hit != pad_memo_.end()) {
    ReplayPadding(hit->second, sink);
    return;
  }
  const int32_t from = state_;
  const uint64_t base = consumed_;
  const uint64_t flushes = flushes_;
  PadMemo memo;
  pad_rec_ = &memo;
  Feed(pad, [&](const Tag& t) {
    memo.tags.push_back(PadTag{static_cast<uint32_t>(t.end - base), t.token});
    return sink(t);
  });
  pad_rec_ = nullptr;
  // A flush renumbers the states; a fallback or an early stop leaves the
  // padding unfinished.
  if (stopped_ || fallback_ || flushes_ != flushes) return;
  memo.end_state = state_;
  memo.consumed = static_cast<uint32_t>(consumed_ - base);
  const size_t charged = sizeof(PadMemo) + kIndexNodeBytes +
                         memo.tags.size() * sizeof(PadTag) +
                         memo.skips.size() * sizeof(PadSkip);
  pad_memo_bytes_ += charged;
  cache_bytes_ += charged;
  budget_.Add(charged);
  pad_memo_.emplace(from, std::move(memo));
}

void LazyDfaSession::ReplayPadding(const PadMemo& memo, const TagSink& sink) {
  const FusedTagger& f = tagger_->fused();
  const uint64_t base = consumed_;
  size_t s = 0;
  for (size_t k = 0;; ++k) {
    for (; s < memo.skips.size() && memo.skips[s].tags <= k; ++s) {
      CountSkip(f, memo.skips[s].kind, memo.skips[s].len);
    }
    if (k == memo.tags.size()) break;
    consumed_ = base + memo.tags[k].delta;
    Emit(&memo.tags[k].token, 1, sink);
    if (stopped_) {
      ++consumed_;
      return;
    }
  }
  consumed_ = base + memo.consumed;
  state_ = memo.end_state;
}

void LazyDfaSession::ClearPadMemo() {
  pad_memo_.clear();
  cache_bytes_ -= pad_memo_bytes_;
  budget_.Release(pad_memo_bytes_);
  pad_memo_bytes_ = 0;
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
