#include "tagger/lazy_dfa.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <utility>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"

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

// The most of dfa_cache_bytes a table's storage is sized for: past it, the
// table is full when its storage is.
constexpr size_t kMaxSizedBytes = size_t{1} << 30;

constexpr SkipMetrics::Kind kNoSkip = SkipMetrics::kNumKinds;

// Trail entries between the starts of two lanes' trail regions: a slice's
// worth plus an odd number of cache lines, so the lanes' lockstep trail
// writes do not all fall in one cache set.
constexpr size_t kTrailStride = LazyDfaSession::kSliceBytes + 136;

// Reads entry `slot` of a table that builds publish into: with acquire, so
// whatever the build wrote before publishing it (the successor's state and
// row, the emission list) is visible. A plain load on x86.
inline int32_t LoadEntry(const int32_t* table, size_t slot) {
  return std::atomic_ref<int32_t>(const_cast<int32_t&>(table[slot]))
      .load(std::memory_order_acquire);
}

// Storage for `n` objects of an implicit-lifetime type, left uninitialized
// so that the pages nothing writes stay out of RSS.
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
template <typename T>
using RawArray = std::unique_ptr<T[], FreeDeleter>;
template <typename T>
RawArray<T> Reserve(size_t n) {
  void* p = std::malloc(std::max<size_t>(n, 1) * sizeof(T));
  if (p == nullptr) throw std::bad_alloc();
  return RawArray<T>(static_cast<T*>(p));
}

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

// Writes the baked table's rows into `next` in the walk's entry format.
// Exit flags depend on a state's idle facts and the byte class alone, so
// each distinct facts value (of at most 8 * (classes + 1)) gets one row of
// them, filled when a state first has it.
void WalkFormat(const FusedTagger& f, const AotDfaTable& aot, int32_t* next) {
  const size_t nc = aot.num_classes;
  std::vector<int32_t> exits(8 * (nc + 1) * nc, kUnbuilt);
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
}

// Under budget pressure or an injected dfa.intern fault, a miss builds
// nothing. The miss path is the only place the table grows, so it is where
// the budget (and the fault site) sheds; the hit path never reaches here.
bool ShedOnMiss() {
  return core::resilience::ResourceBudget::Process().ShouldShedDfa() ||
         core::resilience::FaultInjector::ShouldFail("dfa.intern");
}

}  // namespace

const DfaCacheMetrics& DfaCacheMetrics::Get() {
  static const DfaCacheMetrics kMetrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return DfaCacheMetrics{
        reg.GetCounter("cfgtag_dfa_cache_states",
                       "DFA configurations interned by lazy-DFA taggers"),
        reg.GetCounter("cfgtag_dfa_cache_fallbacks",
                       "Lazy-DFA streams that missed with no room to build "
                       "and took uncached fused steps")};
  }();
  return kMetrics;
}

// ---------------------------------------------------------- LazyDfaCache

// The one transition table of a tagger (see LazyDfaSession). The fields
// above `mu` are fixed at construction, or written under it only before
// the entry that leads to them is published; the ones below it are the
// build side, read and written under it.
struct LazyDfaCache {
  LazyDfaCache(const FusedTagger& f, const AotDfaTable* baked);

  const DfaStateInfo& Info(int32_t id) const {
    return id < num_aot ? aot->states[static_cast<size_t>(id)]
                        : states[static_cast<size_t>(id - num_aot)];
  }
  // First snapshot word of `info`, resolved into the owning pool.
  const WordBits* Snap(const DfaStateInfo& info, int32_t id) const {
    return (id < num_aot ? aot->snap_pool.data() : words.get()) +
           info.snap_begin;
  }
  // The record of `pad` fed from `state`, or null.
  const LazyDfaSession::PadMemo* FindPad(std::string_view pad,
                                         int32_t state) const {
    const LazyDfaSession::PadMemo* memo =
        std::atomic_ref<const LazyDfaSession::PadMemo*>(pads[state])
            .load(std::memory_order_acquire);
    return memo != nullptr && pad == pad_bytes ? memo : nullptr;
  }

  // The entry for `cls` out of `from`: built under the build mutex unless
  // another cursor built it first, or kUnbuilt with the table full.
  int32_t Build(const FusedTagger& f, int32_t from, uint8_t cls);
  // Publishes the record of `pad` fed from `state`, unless the table is
  // full, the state has one, or other padding was memoized first.
  void AddPad(std::string_view pad, int32_t state,
              LazyDfaSession::PadMemo memo);

  // The global id of `cfg`: a baked state if one matches, else an
  // interned one, interned on first sight with an unbuilt row.
  int32_t Intern(const DfaConfig& cfg);
  // Whether a build has no room: past dfa_cache_bytes, or the storage
  // could not take one more state, its words and its emission list.
  bool Full() const;
  void Charge(size_t n) {
    bytes += n;
    budget.Add(n);
  }

  const AotDfaTable* aot;
  size_t num_classes;
  int32_t num_aot;
  size_t baked_slots;  // num_aot * num_classes
  size_t cap_bytes;
  // The most snapshot words, and emission-pool words, one build adds.
  size_t build_words;
  size_t build_emits;
  size_t max_states;  // ids, baked included
  size_t max_words;
  size_t max_emits;
  // The flat table, baked rows first, and per slot built at run time the
  // offset in emit_pool of its emission list: a count, then the tokens.
  RawArray<int32_t> next;
  RawArray<uint32_t> emit_at;
  // Interned states (by id - num_aot) and their snapshot words.
  RawArray<DfaStateInfo> states;
  RawArray<WordBits> words;
  RawArray<int32_t> emit_pool;
  // FeedPadding's records by the state they start in (null: none), for
  // the padding bytes pad_bytes.
  RawArray<const LazyDfaSession::PadMemo*> pads;
  std::string pad_bytes;
  int32_t start_id;
  // The lane guesses the last superblock of any cursor left, by byte
  // value: a cursor's first superblock starts from these.
  std::atomic<int32_t> guesses[256];

  std::mutex mu;
  DfaIndex index;
  size_t num_states = 0;  // interned
  size_t num_words = 0;
  size_t num_emits = 0;
  size_t bytes = 0;
  // Mirrors bytes into the process resource budget, so that the tables
  // show up as one "dfa_cache" footprint.
  core::resilience::ScopedCharge budget{"dfa_cache"};
  std::vector<std::unique_ptr<LazyDfaSession::PadMemo>> pad_memos;
  // Scratch for build steps, kept allocated across them.
  FusedSession scratch;
  DfaConfig tmp;
  std::vector<int32_t> tmp_emit;
};

LazyDfaCache::LazyDfaCache(const FusedTagger& f, const AotDfaTable* baked)
    : aot(baked),
      num_classes(f.NumByteClasses()),
      num_aot(baked != nullptr ? static_cast<int32_t>(baked->states.size())
                               : 0),
      baked_slots(static_cast<size_t>(num_aot) * num_classes),
      cap_bytes(f.options().dfa_cache_bytes),
      build_words(2 * f.NumStateWords()),
      build_emits(1 + f.grammar().NumTokens()),
      scratch(&f) {
  const size_t nc = num_classes;
  const size_t sized = std::min(cap_bytes, kMaxSizedBytes);
  const size_t per_state = sizeof(DfaStateInfo) +
                           nc * (sizeof(int32_t) + sizeof(uint32_t)) +
                           kIndexNodeBytes;
  // What dfa_cache_bytes pays for, and room for the stream-start state and
  // for the one build that may cross the cap.
  max_states = static_cast<size_t>(num_aot) + 2 + sized / per_state;
  max_words = 2 * build_words + sized / sizeof(WordBits);
  max_emits = 2 * build_emits + sized / sizeof(int32_t);
  next = Reserve<int32_t>(max_states * nc);
  emit_at = Reserve<uint32_t>(max_states * nc);
  states = Reserve<DfaStateInfo>(max_states - static_cast<size_t>(num_aot));
  words = Reserve<WordBits>(max_words);
  emit_pool = Reserve<int32_t>(max_emits);
  pads = Reserve<const LazyDfaSession::PadMemo*>(max_states);
  for (std::atomic<int32_t>& guess : guesses) guess.store(-1);
  if (aot != nullptr) WalkFormat(f, *aot, next.get());
  std::fill(pads.get(), pads.get() + num_aot, nullptr);
  DfaConfig start;
  start.SetStart(f);
  start_id = Intern(start);
}

int32_t LazyDfaCache::Intern(const DfaConfig& cfg) {
  // Baked states first: they cost nothing.
  if (aot != nullptr) {
    const int32_t id = FindDfaState(aot->states.data(),
                                    aot->snap_pool.data(), aot->index, cfg);
    if (id >= 0) return id;
  }
  int32_t local = FindDfaState(states.get(), words.get(), index, cfg);
  if (local >= 0) return num_aot + local;
  local = static_cast<int32_t>(num_states++);
  DfaStateInfo& info = states[static_cast<size_t>(local)];
  info = DfaStateInfo{};
  info.hash = cfg.hash;
  info.snap_begin = static_cast<uint32_t>(num_words);
  info.num_state = static_cast<uint32_t>(cfg.state.size());
  info.num_armed = static_cast<uint32_t>(cfg.armed.size());
  info.pending_cls = cfg.pending_cls;
  info.prev_delim = cfg.prev_delim ? 1 : 0;
  WordBits* const armed = std::copy(cfg.state.begin(), cfg.state.end(),
                                    words.get() + num_words);
  std::copy(cfg.armed.begin(), cfg.armed.end(), armed);
  num_words += cfg.state.size() + cfg.armed.size();
  index.emplace(cfg.hash, local);
  const int32_t id = num_aot + local;
  int32_t* const row = next.get() + static_cast<size_t>(id) * num_classes;
  std::fill(row, row + num_classes, kUnbuilt);
  pads[static_cast<size_t>(id)] = nullptr;
  Charge(sizeof(DfaStateInfo) +
         num_classes * (sizeof(int32_t) + sizeof(uint32_t)) +
         (cfg.state.size() + cfg.armed.size()) * sizeof(WordBits) +
         kIndexNodeBytes);
  DfaCacheMetrics::Get().states->Increment();
  return id;
}

bool LazyDfaCache::Full() const {
  const size_t rows = static_cast<size_t>(num_aot) + num_states;
  return bytes > cap_bytes || rows == max_states ||
         LazyDfaSession::TableFull(rows * num_classes, num_classes) ||
         num_words + build_words > max_words ||
         num_emits + build_emits > max_emits;
}

int32_t LazyDfaCache::Build(const FusedTagger& f, int32_t from,
                            uint8_t cls) {
  const size_t slot = static_cast<size_t>(from) * num_classes + cls;
  std::lock_guard<std::mutex> lock(mu);
  const int32_t built = LoadEntry(next.get(), slot);
  if (built != kUnbuilt || Full()) return built;
  // The tagger may have moved since the last build.
  scratch.Rebind(&f);
  const DfaStateInfo& info = Info(from);
  tmp.Step(info, Snap(info, from), cls, &scratch, &tmp_emit);
  const int32_t to = Intern(tmp);
  const size_t count = tmp_emit.size();
  if (count != 0) {
    emit_at[slot] = static_cast<uint32_t>(num_emits);
    emit_pool[num_emits] = static_cast<int32_t>(count);
    std::copy(tmp_emit.begin(), tmp_emit.end(),
              emit_pool.get() + num_emits + 1);
    num_emits += 1 + count;
    Charge((1 + count) * sizeof(int32_t));
  }
  const int32_t entry =
      Entry(to, num_classes, ExitFlags(f, FactsOf(info), cls), count != 0);
  std::atomic_ref<int32_t>(next[slot]).store(entry,
                                             std::memory_order_release);
  return entry;
}

void LazyDfaCache::AddPad(std::string_view pad, int32_t state,
                          LazyDfaSession::PadMemo memo) {
  std::lock_guard<std::mutex> lock(mu);
  if (bytes > cap_bytes || pads[state] != nullptr) return;
  if (pad_bytes.empty()) {
    pad_bytes.assign(pad);
  } else if (pad != pad_bytes) {
    return;
  }
  Charge(sizeof(LazyDfaSession::PadMemo) + kIndexNodeBytes +
         memo.tags.size() * sizeof(LazyDfaSession::PadTag) +
         memo.skips.size() * sizeof(LazyDfaSession::PadSkip));
  pad_memos.push_back(
      std::make_unique<LazyDfaSession::PadMemo>(std::move(memo)));
  std::atomic_ref<const LazyDfaSession::PadMemo*>(pads[state])
      .store(pad_memos.back().get(), std::memory_order_release);
}

// --------------------------------------------------------- LazyDfaTagger

LazyDfaTagger::LazyDfaTagger(FusedTagger fused,
                             std::shared_ptr<const AotDfaTable> aot)
    : fused_(std::move(fused)), aot_(std::move(aot)) {
  const RunScanner& delim = fused_.delimiter_scanner();
  const RunScanner& arm = fused_.arm_scanner();
  for (int b = 0; b < 256; ++b) {
    const unsigned char c = static_cast<unsigned char>(b);
    run_ends_[b] = static_cast<uint8_t>(
        (delim.Test(c) ? 1 << kRunResync : 1 << kRunDelimiter) |
        (arm.Test(c) ? 1 << kRunArmed : 0));
  }
}

LazyDfaTagger::LazyDfaTagger(LazyDfaTagger&& other) noexcept
    : fused_(std::move(other.fused_)),
      aot_(std::move(other.aot_)),
      cache_(other.cache_.exchange(nullptr)) {
  std::copy(std::begin(other.run_ends_), std::end(other.run_ends_),
            run_ends_);
}

LazyDfaTagger::~LazyDfaTagger() { delete cache_.load(); }

LazyDfaCache& LazyDfaTagger::Cache() const {
  LazyDfaCache* cache = cache_.load(std::memory_order_acquire);
  if (cache == nullptr) {
    static std::mutex make;
    std::lock_guard<std::mutex> lock(make);
    cache = cache_.load(std::memory_order_relaxed);
    if (cache == nullptr) {
      cache = new LazyDfaCache(fused_, aot_.get());
      cache_.store(cache, std::memory_order_release);
    }
  }
  return *cache;
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
  LazyDfaSession session(this);
  session.Feed(input, sink);
  session.Finish(sink);
}

std::vector<Tag> LazyDfaTagger::TagAll(std::string_view input) const {
  std::vector<Tag> tags;
  Run(input, [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

size_t LazyDfaTagger::cache_states() const {
  LazyDfaCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.num_states;
}

size_t LazyDfaTagger::cache_bytes() const {
  LazyDfaCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.bytes;
}

// -------------------------------------------------------- LazyDfaSession

// A superblock's trail regions, one per lane, and its lanes.
struct LazyDfaSession::LaneScratch {
  std::unique_ptr<TrailEntry[]> trail{new TrailEntry[kLanes * kTrailStride]};
  Lane lanes[kLanes];
};

// Borrows the calling thread's lane scratch for one superblock, or makes a
// fresh set while a superblock further up the stack (one whose sink tags)
// holds it, and leaves one set with the thread when done.
class LazyDfaSession::LaneLease {
 public:
  LaneLease() : set_(std::move(Idle())) {
    if (set_ == nullptr) set_ = std::make_unique<LaneScratch>();
  }
  ~LaneLease() {
    if (Idle() == nullptr) Idle() = std::move(set_);
  }
  LaneLease(const LaneLease&) = delete;
  LaneLease& operator=(const LaneLease&) = delete;

  LaneScratch& operator*() const { return *set_; }

 private:
  // The thread's set while no superblock holds it.
  static std::unique_ptr<LaneScratch>& Idle() {
    thread_local std::unique_ptr<LaneScratch> idle;
    return idle;
  }

  std::unique_ptr<LaneScratch> set_;
};

LazyDfaSession::LazyDfaSession(const LazyDfaTagger* tagger)
    : tagger_(tagger),
      cache_(&tagger->Cache()),
      next_(cache_->next.get()),
      num_classes_(cache_->num_classes) {
  Reset();
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
  fallback_ = false;
  finished_ = false;
  stopped_ = false;
  state_ = cache_->start_id;
}

void LazyDfaSession::LoadScratch() {
  if (!scratch_) scratch_.emplace(&tagger_->fused());
  const DfaStateInfo& info = cache_->Info(state_);
  const WordBits* snap = cache_->Snap(info, state_);
  scratch_->LoadConfig(snap, info.num_state, snap + info.num_state,
                       info.num_armed, info.prev_delim != 0);
  pending_cls_ = info.pending_cls;
}

void LazyDfaSession::EnterFallback() {
  LoadScratch();
  fallback_ = true;
  DfaCacheMetrics::Get().fallbacks->Increment();
  obs::RecordEvent(obs::EventKind::kDfaCacheFallback,
                   static_cast<int64_t>(state_),
                   static_cast<int64_t>(consumed_),
                   "lazy-dfa stream fell back to fused");
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

int32_t LazyDfaSession::BuildTransition(uint8_t cls) {
  const int32_t entry =
      ShedOnMiss() ? kUnbuilt : cache_->Build(tagger_->fused(), state_, cls);
  if (entry == kUnbuilt) EnterFallback();
  return entry;
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
  const LazyDfaCache& c = *cache_;
  const int32_t* toks;
  size_t count;
  // The table builds only where the bake did not.
  if (slot < c.baked_slots && c.aot->trans[slot].next >= 0) {
    const DfaTrans& t = c.aot->trans[slot];
    toks = c.aot->emit_pool.data() + t.emit_begin;
    count = t.emit_count;
  } else {
    const int32_t* const list = c.emit_pool.get() + c.emit_at[slot];
    toks = list + 1;
    count = static_cast<size_t>(list[0]);
  }
  if (attr_on_) {
    for (size_t k = 0; k < count; ++k) {
      ++attr_matches_[static_cast<size_t>(toks[k])];
    }
  }
  Emit(toks, count, sink);
}

size_t LazyDfaSession::Replay(const TrailEntry* trail, size_t from,
                              size_t to, const char* origin, uint64_t off,
                              const TagSink& sink) {
  const uint32_t at = Addr32(origin);
  for (size_t k = from; k < to; ++k) {
    const uint32_t rel = trail[k].pos - at;
    consumed_ = off + rel;
    EmitSlot(trail[k].slot, sink);
    if (stopped_) {
      ++consumed_;
      state_ = static_cast<int32_t>(
          Successor(LoadEntry(next_, trail[k].slot)) / num_classes_);
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
  scratch_->ProcessClass(static_cast<uint8_t>(pending_cls_), has_next,
                         next_cls);
  Emit(scratch_->emitted_.data(), scratch_->emitted_.size(), sink);
  if (attr_on_) {
    for (const int32_t tok : scratch_->emitted_) {
      ++attr_matches_[static_cast<size_t>(tok)];
    }
  }
  ++consumed_;
}

bool LazyDfaSession::StepSlow(Cursor& c, const TagSink& sink) {
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  const IdleFacts cur = FactsOf(cache_->Info(state_));
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
  const size_t slot = static_cast<size_t>(state_) * num_classes_ + cls;
  int32_t entry = LoadEntry(next_, slot);
  if (entry == kUnbuilt) {
    ++c.misses;
    entry = BuildTransition(cls);
    if (fallback_) return false;
  }
  if ((entry & kEmits) != 0) EmitSlot(slot, sink);
  if (cur.pending_cls >= 0) ++consumed_;
  ++c.i;
  state_ = static_cast<int32_t>(Successor(entry) / num_classes_);
  return !stopped_;
}

bool LazyDfaSession::StepSegment(Cursor& c, size_t end, const TagSink& sink) {
  // Pass 1: a one-lane walk of at most kWalkBytes into walk_. Its callers
  // often stop early (the router at the method name), and a short window
  // bounds the walk past the stop that pass 2 throws away. Like a lane, it
  // takes the step of an idle run that its byte ends when the next byte
  // lies in the window, and leaves on any other exit bit.
  const int32_t* const next = next_;
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const uint8_t* const run_ends = tagger_->run_ends();
  const unsigned char* const p =
      reinterpret_cast<const unsigned char*>(c.data) + c.i;
  const size_t m = std::min(end - c.i, kWalkBytes);
  TrailEntry* const trail = walk_;
  size_t t = 0;
  int32_t s = state_ * static_cast<int32_t>(num_classes_);
  size_t r = 0;
  for (; r < m; ++r) {
    const uint32_t slot = static_cast<uint32_t>(s) + class_of[p[r]];
    const int32_t e = LoadEntry(next, slot);
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
  const size_t stop = Replay(trail, 0, t, c.data + c.i, off, sink);
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
size_t LazyDfaSession::Lockstep(Lane* const* lanes, TrailEntry* trail,
                                const char* data) {
  const int32_t* const next = next_;
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const uint8_t* const run_ends = tagger_->run_ends();
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
      // Unrolled, so that the lanes' states and trail ends stay scalars in
      // registers: GCC does not unroll a loop of atomic loads by itself.
#pragma GCC unroll 4
      for (; k < N; ++k) {
        const unsigned char* const at = p[k] + r;
        const size_t slot = size_t{s[k]} + class_of[*at];
        const int32_t e = LoadEntry(next, slot);
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
    // s and t are indexed by constants only, so that they stay registers.
    bool took = false;
    const auto take = [&](uint32_t& sk, TrailEntry*& tk, size_t k) {
      const unsigned char* const at = p[k];
      const size_t slot = size_t{sk} + class_of[*at];
      const int32_t e = LoadEntry(next, slot);
      if (at + 1 == base + lanes[k]->end ||
          !RunEndsBefore(e, at[1], run_ends)) {
        return;
      }
      *tk = TrailEntry{Addr32(at), static_cast<uint32_t>(slot)};
      tk += e & kEmits;
      sk = static_cast<uint32_t>(e) >> kFlagBits;
      p[k] = at + 1;
      took = true;
    };
    [&]<size_t... K>(std::index_sequence<K...>) {
      ((exit == K ? take(s[K], t[K], K) : void()), ...);
    }(std::make_index_sequence<N>{});
    if (!took) {
      left = exit;
      break;
    }
  }
  for (size_t k = 0; k < N; ++k) {
    lanes[k]->pos = static_cast<size_t>(p[k] - base);
    lanes[k]->s = static_cast<int32_t>(s[k]);
    lanes[k]->t = static_cast<uint32_t>(t[k] - trail);
  }
  return left;
}

void LazyDfaSession::LaneSlowStep(Lane& lane, TrailEntry* trail,
                                  const char* data, size_t base) {
  const FusedTagger& f = tagger_->fused();
  const ByteClassifier& classes = f.classifier();
  const int32_t id =
      static_cast<int32_t>(static_cast<size_t>(lane.s) / num_classes_);
  // Lanes never start out of the stream-start state, and no step leads
  // into it, so every lane step consumes a pending byte.
  const SkipMetrics::Kind kind =
      SkipKind(f, FactsOf(cache_->Info(id)),
               classes.ClassOf(static_cast<unsigned char>(data[lane.pos])));
  const size_t j = LastInertByte(f, kind, data, lane.pos, lane.end);
  Checkpoint cp{static_cast<uint32_t>(lane.pos - base), id, lane.t, 0,
                kind, false};
  const uint8_t cls = classes.ClassOf(static_cast<unsigned char>(data[j]));
  const size_t slot = static_cast<size_t>(lane.s) + cls;
  // A skip that reaches the slice's end may run on past it: the ordinary
  // path takes it, from this checkpoint.
  const bool cut = kind != kNoSkip && j + 1 == lane.end;
  const int32_t entry = cut ? kUnbuilt : LoadEntry(next_, slot);
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
  trail[lane.t] = TrailEntry{Addr32(data + j), static_cast<uint32_t>(slot)};
  lane.t += static_cast<uint32_t>(entry & kEmits);
  lane.s = entry >> kFlagBits;
  lane.pos = j + 1;
}

size_t LazyDfaSession::Adopt(Cursor& c, const Lane& lane,
                             const TrailEntry* trail, size_t from,
                             size_t base, const TagSink& sink) {
  const FusedTagger& f = tagger_->fused();
  // The consumed count before the byte at base + pos is off + pos.
  const uint64_t off = consumed_ - (c.i - base);
  size_t t = lane.cps[from].trail;
  size_t q = from;
  for (;; ++q) {
    const Checkpoint& cp = lane.cps[q];
    const size_t stop = Replay(trail, t, cp.trail, c.data + base, off, sink);
    if (stop != 0) {
      c.i = base + stop;
      return q;
    }
    t = cp.trail;
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
                               TrailEntry* trail, const char* data,
                               size_t base) {
  static_assert(kLanes == 4, "WalkLanes dispatches 1 to 4 live lanes");
  while (num_live > 0) {
    size_t left;
    switch (num_live) {
      case 4: left = Lockstep<4>(live, trail, data); break;
      case 3: left = Lockstep<3>(live, trail, data); break;
      case 2: left = Lockstep<2>(live, trail, data); break;
      default: left = Lockstep<1>(live, trail, data); break;
    }
    if (left < num_live) LaneSlowStep(*live[left], trail, data, base);
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
  if (!guessed_) {
    for (size_t b = 0; b < 256; ++b) {
      guess_[b] = cache_->guesses[b].load(std::memory_order_acquire);
    }
    guessed_ = true;
  }
  const LaneLease lease;
  Lane* const lanes = (*lease).lanes;
  TrailEntry* const trail = (*lease).trail.get();
  const size_t base = c.i;
  // Speculate: lane 0 from the true state, the others from guesses.
  Lane* live[kLanes];
  for (size_t k = 0; k < kLanes; ++k) {
    Lane& lane = lanes[k];
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
  WalkLanes(live, kLanes, trail, c.data, base);

  // Commit: the ordinary path runs from the true state, adopting a lane's
  // guessed stretch at the first of its checkpoints it meets in the lane's
  // state, and notes the states it passes through for later guesses.
  // Checkpoints are in position order, so one cursor per lane finds them.
  for (size_t k = 0; k < kLanes; ++k) {
    const Lane& lane = lanes[k];
    size_t q = 0;
    while (c.i < lane.end) {
      const size_t rel = c.i - base;
      while (q < lane.cps.size() && lane.cps[q].pos < rel) ++q;
      if (q < lane.cps.size() && lane.cps[q].pos == rel &&
          lane.cps[q].state == state_) {
        q = Adopt(c, lane, trail, q, base, sink) + 1;
        if (stopped_) return;
        NoteGuess(c);
        continue;
      }
      // Walk no further than the lane's next checkpoint, to test it.
      size_t r = q;
      while (r < lane.cps.size() && lane.cps[r].pos <= rel) ++r;
      const size_t stop =
          r < lane.cps.size() ? base + lane.cps[r].pos : lane.end;
      if (!StepSegment(c, stop, sink)) return;
      NoteGuess(c);
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
    while (c.i < c.n && !stopped_ && !fallback_) {
      if (c.n - c.i >= kLanes * kSliceBytes &&
          cache_->Info(state_).pending_cls >= 0) {
        Superblock(c, sink);
        for (size_t b = 0; b < 256; ++b) {
          cache_->guesses[b].store(guess_[b], std::memory_order_release);
        }
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
                              IdleFacts{scratch_->any_live_,
                                        scratch_->armed_any_,
                                        scratch_->prev_was_delim_,
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
  if (pad.empty() || fallback_ || attr_on_ || finished_ || stopped_) {
    Feed(pad, sink);
    return;
  }
  if (const PadMemo* memo = cache_->FindPad(pad, state_)) {
    ReplayPadding(*memo, sink);
    return;
  }
  const int32_t from = state_;
  const uint64_t base = consumed_;
  PadMemo memo;
  pad_rec_ = &memo;
  Feed(pad, [&](const Tag& t) {
    memo.tags.push_back(PadTag{static_cast<uint32_t>(t.end - base), t.token});
    return sink(t);
  });
  pad_rec_ = nullptr;
  // A fallback or an early stop leaves the padding unfinished.
  if (stopped_ || fallback_) return;
  memo.end_state = state_;
  memo.consumed = static_cast<uint32_t>(consumed_ - base);
  cache_->AddPad(pad, from, std::move(memo));
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
