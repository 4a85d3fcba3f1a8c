#ifndef CFGTAG_TAGGER_LAZY_DFA_H_
#define CFGTAG_TAGGER_LAZY_DFA_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/resilience/budget.h"
#include "grammar/grammar.h"
#include "obs/metrics.h"
#include "tagger/dfa_state.h"
#include "tagger/fused_model.h"
#include "tagger/session_pool.h"
#include "tagger/table_view.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

class LazyDfaTagger;
class LazyDfaSessionPool;

// An ahead-of-time determinized transition table: a DfaPool baked into an
// artifact at serialize time, served back as views into the artifact bytes
// and shared read-only by every session of the tagger that loaded it.
// Baked state ids are [0, states.size()); sessions place their own lazily
// interned states above that range and never mutate the baked rows, so one
// table serves any number of threads. Transitions the bake left unbuilt
// (outside the state budget) have next = -1 and are built at run time into
// the session's private table.
struct AotDfaTable {
  TableView<DfaStateInfo> states;
  TableView<DfaTrans> trans;  // row-major [state * num_classes + cls]
  TableView<WordBits> snap_pool;
  TableView<int32_t> emit_pool;
  size_t num_classes = 0;

  // hash -> baked state id, rebuilt once at load from the stored hashes
  // (cheap relative to the compile it replaces; the artifact stays pure
  // position-independent data).
  DfaIndex index;

  // Keeps the mapped (or copied) artifact bytes alive.
  std::shared_ptr<const void> backing;

  void BuildIndex() {
    index.clear();
    for (size_t i = 0; i < states.size(); ++i) {
      index.emplace(states[i].hash, static_cast<int32_t>(i));
    }
  }
};

// Process-wide accounting for the lazy-DFA transition cache, shared by all
// sessions: states interned, RE2-style cache flushes, and sessions that
// gave up caching and fell back to uncached fused stepping.
struct DfaCacheMetrics {
  obs::Counter* states;
  obs::Counter* flushes;
  obs::Counter* fallbacks;

  static const DfaCacheMetrics& Get();
};

// Streaming session over a LazyDfaTagger, and the only loop in the
// library that streams bytes through the fused tables: the fused machine
// step memoized as a lazily built DFA. An interned DFA state is a full
// machine configuration — the sparse live words of the fused state bitmap,
// the sparse armed words, the delimiter flag, and the *class* of the
// pending look-ahead byte (the Fig. 7 one-byte lag; emissions and
// post-emission arming both depend on the look-ahead's class, so it must
// live in the state for transitions to be a function of (state, input
// class) alone). The alphabet is the tagger's ByteClassifier classes:
// every machine decision factors through the byte class, so one fused
// step on a pair of classes builds a transition that is exact for every
// byte of the class.
//
// Steady state runs out of one session-private flat table, next_[id *
// num_classes + cls], over baked and session state ids alike, holding
// premultiplied successor ids (RE2/Hyperscan layout): the inner loop is
// `s = next_[s + class_of[byte]]` plus one sign test. A state is *plain*
// when it has a pending byte and no idle skip can fire from it (live, or
// dead but armed with a non-delimiter pending class). A non-negative entry
// is a plain transition: built, emits nothing, leads to a plain state. A
// negative entry is special: unbuilt, or an index into special_, which
// holds the emitting transitions and those into non-plain states. The
// inner loop replays an emitting transition into a plain state inline and
// leaves for the per-byte path on every other special, which serves idle
// skips, misses, flushes and fallback.
//
// Baked (AOT) rows are shared and immutable; a session copies each baked
// transition into its own table on first touch, so the loop never tells
// the regions apart. A miss takes the construction step the AOT bake also
// takes (DfaConfig::Step, dfa_state.h) and interns the result. When the
// cache — the flat table, special_ and the interned states, charged to
// TaggerOptions::dfa_cache_bytes and the "dfa_cache" budget — grows past
// the cap, or a premultiplied id would overflow int32_t, it is dropped
// wholesale and rebuilt from the current configuration (RE2's flush
// discipline); after dfa_flush_fallback flushes the session stops caching
// for the rest of its life (Rebind to a different tagger clears the
// verdict). In fallback the configuration lives in the scratch
// FusedSession and the pending class in the session, and each byte takes
// one uncached fused step, with the same idle skips and emission path as
// the cached mode. Tags go to the sink one call each: buffering them per
// Feed measured no gain.
//
// Tag streams are byte-identical, order included, to the functional
// reference — enforced by the differential and fuzz suites.
class LazyDfaSession {
 public:
  // The tagger must outlive the session.
  explicit LazyDfaSession(const LazyDfaTagger* tagger);

  // Consumes a chunk, emitting tags in stream order.
  void Feed(std::string_view chunk, const TagSink& sink);

  // Ends the stream: processes the lagging pending byte with no look-ahead
  // suppression. Further Feed() calls are ignored until Reset().
  void Finish(const TagSink& sink);

  // Returns to the stream-start state. The transition cache (and a
  // standing fallback verdict) survives — pooled sessions get warm caches
  // across scans of the same tagger.
  void Reset();

  // Re-targets the session at `tagger` and resets it. A different tagger
  // invalidates the cache and clears any fallback verdict.
  void Rebind(const LazyDfaTagger* tagger);

  // Bytes fully processed so far (excludes the pending look-ahead byte).
  uint64_t bytes_consumed() const { return consumed_; }

  const LazyDfaTagger* tagger() const { return tagger_; }

  // Cache introspection (tests and metrics surfacing). cache_states()
  // counts only the session's own interned states, not the shared baked
  // table (aot_states() reports that).
  size_t cache_states() const { return cache_.states.size(); }
  size_t aot_states() const { return static_cast<size_t>(num_aot_); }
  size_t cache_bytes() const { return cache_bytes_; }
  uint64_t cache_flushes() const { return flushes_; }
  bool fallback_active() const { return fallback_; }

 private:
  // Resolves a state id across the two regions: baked AOT states occupy
  // [0, num_aot_), session-interned states live above.
  const DfaStateInfo& Info(int32_t id) const {
    return id < num_aot_ ? aot_->states[static_cast<size_t>(id)]
                         : cache_.states[static_cast<size_t>(id - num_aot_)];
  }
  // First snapshot word of `info`, resolved into the owning pool.
  const WordBits* Snap(const DfaStateInfo& info, int32_t id) const {
    return (id < num_aot_ ? aot_->snap_pool.data() : cache_.snap_pool.data()) +
           info.snap_begin;
  }

  // Hands `count` tokens ending at the pending byte to `sink` (until it
  // asks to stop) and counts them for attribution.
  void Emit(const int32_t* toks, size_t count, const TagSink& sink);
  // One uncached fused step on the pending byte held with scratch_, with
  // `next_cls` as its look-ahead (has_next = false at end of stream), and
  // its emissions; nothing without a pending byte.
  void StepScratch(bool has_next, uint8_t next_cls, const TagSink& sink);

  // A special transition: it emits, or its successor is not plain.
  struct SpecialTrans {
    int32_t next;         // premultiplied successor
    uint32_t emit_begin;  // into cache_.emit_pool
    uint32_t emit_count;
    bool plain;           // the successor is a plain state
  };
  // next_ entries: >= 0 plain (premultiplied successor), kUnbuilt, or
  // special_[kUnbuilt - 1 - entry].
  static constexpr int32_t kUnbuilt = -1;
  static size_t SpecialIndex(int32_t entry) {
    return static_cast<size_t>(kUnbuilt - 1 - entry);
  }

  // The global id of `cfg`: a baked state if one matches, else the
  // session's own, interned on first sight with an unbuilt row.
  int32_t InternState(const DfaConfig& cfg);
  // Whether state `id` has a pending byte and no idle skip can fire from
  // it (IdleSkipper::LastInertByte returns its input index).
  bool IsPlain(int32_t id) const;
  // Fills the unbuilt entry out of state_ on `cls` with a transition to
  // `next` emitting `emit[0, count)`, and returns it.
  int32_t Install(uint8_t cls, int32_t next, const int32_t* emit,
                  size_t count);
  // Builds (and caches) the transition out of the current state on input
  // class `cls`, flushing first if the cache is over budget, and returns
  // its entry. May enter fallback mode — the caller must check
  // fallback_active() after a build.
  int32_t BuildTransition(uint8_t cls);
  void Flush();
  void EnterFallback();
  // Loads the current interned configuration into scratch_ and its
  // pending class into pending_cls_, ready for an uncached step.
  void LoadScratch();
  // Drops the session's states and transitions; out of fallback the
  // table keeps one unbuilt row per baked state.
  void ClearCache();

  // Merges the per-token match counts and DFA hit/miss tallies into
  // obs::AttributionTable::Default() and zeroes them.
  void FlushAttribution();

  const LazyDfaTagger* tagger_;
  FusedSession scratch_;

  // The shared baked table (may be null) and the size of its id region.
  const AotDfaTable* aot_ = nullptr;
  int32_t num_aot_ = 0;

  // Session-private cache. cache_.states[k] has global id num_aot_ + k;
  // cache_.emit_pool holds the tags special_ replays, copied from the
  // baked pool for baked transitions. next_ is the flat table above.
  DfaPool cache_;
  std::vector<int32_t> next_;
  std::vector<SpecialTrans> special_;
  size_t cache_bytes_ = 0;
  size_t num_classes_ = 0;
  // Mirrors cache_bytes_ into the process resource budget so a fleet of
  // sessions shows up as one "dfa_cache" footprint; under budget pressure
  // the kShedDfa rung stops further growth (see BuildTransition).
  core::resilience::ScopedCharge budget_{"dfa_cache"};

  // Scratch for build steps, kept allocated across steps.
  DfaConfig tmp_;
  std::vector<int32_t> tmp_emit_;

  int32_t state_ = 0;
  // The pending byte's class while scratch_ holds the configuration (in
  // fallback, and for Finish's last step); -1 = none.
  int16_t pending_cls_ = -1;
  uint64_t consumed_ = 0;
  uint64_t flushes_ = 0;
  bool fallback_ = false;
  bool finished_ = false;
  bool stopped_ = false;

  // Hot-path attribution (see obs::AttributionTable), sampled at Reset().
  // Matches are counted in Emit, in both modes.
  bool attr_on_ = false;
  bool attr_dirty_ = false;
  std::vector<uint64_t> attr_matches_;
  uint64_t attr_dfa_hits_ = 0;  // stepped bytes minus misses
  uint64_t attr_dfa_misses_ = 0;
};

// The production tagging engine: owns the fused tables whose step it
// memoizes (its miss path and fallback) and hands out pooled
// LazyDfaSessions. See LazyDfaSession for the execution model.
class LazyDfaTagger {
 public:
  // The grammar must outlive the tagger.
  static StatusOr<LazyDfaTagger> Create(const grammar::Grammar* grammar,
                                        const TaggerOptions& options);

  // Wraps already-built fused tables. With a non-null `aot`, sessions
  // start warm out of the baked transition table (the artifact load path).
  static LazyDfaTagger Wrap(FusedTagger fused,
                            std::shared_ptr<const AotDfaTable> aot = nullptr);

  // Scans `input`, calling `sink` for every detected token in stream
  // order (token-id order within a byte).
  void Run(std::string_view input, const TagSink& sink) const;

  // Convenience: collect all tags.
  std::vector<Tag> TagAll(std::string_view input) const;

  // Streaming interface: feed the input in arbitrary chunks.
  LazyDfaSession NewSession() const { return LazyDfaSession(this); }

  // Shared scratch pool behind Run(); see SessionPool. Thread-safe.
  LazyDfaSessionPool& session_pool() const { return *session_pool_; }

  const FusedTagger& fused() const { return fused_; }
  const grammar::Grammar& grammar() const { return fused_.grammar(); }
  const TaggerOptions& options() const { return fused_.options(); }

  // The baked AOT transition table, or null when compiled in-process.
  const AotDfaTable* aot() const { return aot_.get(); }

  // The stream-start configuration every session resets to.
  const DfaConfig& start_config() const { return start_; }

 private:
  LazyDfaTagger(FusedTagger fused, std::shared_ptr<const AotDfaTable> aot);

  FusedTagger fused_;
  std::shared_ptr<const AotDfaTable> aot_;
  DfaConfig start_;
  std::shared_ptr<LazyDfaSessionPool> session_pool_;
};

// Pool of reusable LazyDfaSession scratch (see BasicSessionPool). Reused
// sessions keep their transition cache when re-acquired for the same
// tagger — repeated scans run almost entirely out of cached transitions.
class LazyDfaSessionPool final
    : public BasicSessionPool<LazyDfaTagger, LazyDfaSession> {};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_LAZY_DFA_H_
