#ifndef CFGTAG_TAGGER_LAZY_DFA_H_
#define CFGTAG_TAGGER_LAZY_DFA_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/resilience/budget.h"
#include "grammar/grammar.h"
#include "obs/metrics.h"
#include "tagger/dfa_state.h"
#include "tagger/fused_model.h"
#include "tagger/table_view.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

class LazyDfaTagger;
// The transition table a LazyDfaTagger shares with its sessions
// (lazy_dfa.cc).
struct LazyDfaCache;

// An ahead-of-time determinized transition table: a DfaPool baked into an
// artifact at serialize time and served back as views into the artifact
// bytes. Baked state ids are [0, states.size()); the tagger's shared table
// holds the baked rows first and interns its own states above that range.
// Transitions the bake left unbuilt (outside the state budget) have
// next = -1 and are built at run time into the shared table.
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

// Process-wide accounting for the lazy-DFA transition tables: states
// interned, and streams that missed once no transition could be built and
// finished on uncached fused steps.
struct DfaCacheMetrics {
  obs::Counter* states;
  obs::Counter* fallbacks;

  static const DfaCacheMetrics& Get();
};

// A cursor over a stream of a LazyDfaTagger, and the only loop in the library
// that streams bytes through the fused tables: the fused machine step
// memoized as a lazily built DFA. An interned DFA state is a full machine
// configuration — the sparse live words of the fused state bitmap, the
// sparse armed words, the delimiter flag, and the *class* of the pending
// look-ahead byte (the Fig. 7 one-byte lag; emissions and post-emission
// arming both depend on the look-ahead's class, so it must live in the state
// for transitions to be a function of (state, input class) alone). The
// alphabet is the tagger's ByteClassifier classes: every machine decision
// factors through the byte class, so one fused step on a pair of classes
// builds a transition that is exact for every byte of the class.
//
// One table per tagger. Every cursor of a tagger walks the tagger's one
// flat table, next[id * num_classes + cls], over baked and interned state
// ids alike; the cursor itself holds only stream state. The tagger makes
// the table when its first cursor is made. A built entry holds
// (premultiplied successor << kFlagBits) | flags: bit 0 when the step
// emits, bit 1 (exit) when an idle skip may start out of the entry's source
// state on its class, and in bits 2-3 which skip: a delimiter, resync or
// armed run, or "leave" (an anchored tail, a step out of the stream-start
// state). Every idle-skip test is a function of (state facts, byte class),
// so it is folded into the entry when the entry is built, and the walk
// checks it before taking the step; an unbuilt entry (-1) has every bit
// set, so it is an exit that leaves. Each cached stretch runs in two
// passes. Pass 1 walks `s = next[s + class_of[byte]] >> kFlagBits` and
// never branches on emission: it appends (the byte's address, slot) to a
// trail without a branch and leaves on an exit bit, unless the exit's idle
// run ends at its byte (the per-byte path would skip nothing and take the
// same entry). Pass 2 replays the trail in order through Emit, one TagSink
// call per tag, with an exact consumed_ and an early stop at exactly the
// tag the sink refused. On the ordinary path pass 1 walks at most
// kWalkBytes before pass 2 runs, so a sink that stops early costs at most
// that much walk past its stop. The per-byte path then serves the exit:
// the idle skip, misses and fallback.
//
// The publish rule. The table, the emission lists, the interned states and
// their snapshot words and the flush-padding records sit in storage sized
// once from TaggerOptions::dfa_cache_bytes and never moved, so pages no
// build touches stay out of RSS. Entries only ever go from unbuilt to
// built, and walks read them with acquire loads (a plain load on x86). A
// miss takes the tagger's build mutex, checks the entry again (another
// cursor may have built it), takes the construction step the AOT bake also
// takes (DfaConfig::Step, dfa_state.h), interns the successor with an
// unbuilt row, writes the emission list, and only then publishes the entry
// with a release store: whoever reads the entry sees everything it leads
// to. Growth is charged to dfa_cache_bytes and to the "dfa_cache" budget.
// There is no flush. Once the table is full (past dfa_cache_bytes, or a
// premultiplied entry would overflow int32_t), or under the budget's
// kShedDfa rung or the dfa.intern fault, a cursor that misses takes one
// uncached fused step per byte for the rest of its stream, until Reset:
// the configuration then lives in the cursor's scratch FusedSession and
// the pending class in the cursor, with the same idle skips and emission
// path as the cached mode.
//
// A cached chunk of at least kLanes * kSliceBytes bytes is cut into
// superblocks of kLanes slices, walked in lockstep so the lanes' load chains
// overlap; each lane's state stays in a register, and a lane that meets an
// exit bit leaves the round. A delimiter, resync or armed run that the
// lane's byte ends skips nothing, and the per-byte path would take this same
// entry, so when the next byte lies before the slice's end the lane takes it
// and the lockstep goes on; any other exit stops the lane for its per-byte
// step. Lane 0 starts from the true state. Lane k guesses the state the
// stream was last seen in after the byte that precedes its slice (lane 0's
// state before anything was seen): a configuration forgets its past within a
// few tokens, and the byte before fixes the pending class. A cursor seeds
// its guesses at its first superblock from the tagger's, which every
// superblock publishes, so the first superblock of a call guesses as well
// as the later ones. Lanes take their
// idle skips (bounded by the slice) but never build and never shed: on an
// unbuilt entry a lane stalls and, its state most likely still a wrong
// guess, guesses again past that byte from the same table. Each lane logs a
// checkpoint (position, state) at its start, at every per-byte step and
// every kCheckpointBytes of walk. The commit runs the ordinary path from
// the true state and adopts lane k — its trail, skips and end state — at the
// first checkpoint the ordinary path meets in the lane's state: from there
// the guessed walk is exact up to the lane's next stall, because the DFA is
// deterministic. Past a stall, or in a slice whose guess never converged,
// the ordinary path walks on by itself, building what it lacks. An idle skip
// that reaches its slice's end may run on past it, so a lane stops before
// such a skip and the ordinary path takes it. A shed or fallback during the
// commit ends the superblock at the last committed byte. Since only the
// ordinary path builds, a cursor's builds, sheds and fallback are those of
// the ordinary path alone, and skip counts and DFA hits cover committed
// bytes only.
//
// FeedPadding memoizes the end-of-input flush padding per state, in the
// tagger: the padding's tags, its idle skips, its end state and its
// consumed count depend only on the state it starts in, so the first
// padding fed from a state runs the ordinary Feed and publishes a record
// of them, and later ones, from any cursor, replay the record. Records are
// charged like rows and are not made once the table is full.
//
// Besides the table, a superblock borrows lane scratch outside
// dfa_cache_bytes: kLanes regions of a slice's worth of 8-byte trail
// entries (about 260 KiB of address space, of which only the pages walks
// write become resident) and the lanes' checkpoint logs, 20 bytes per exit
// a lane takes and per kCheckpointBytes it walks. Each thread keeps one
// set; a superblock started from inside a sink while another holds it
// gets a fresh one.
//
// Tag streams are byte-identical, order included, to the functional
// reference — enforced by the differential and fuzz suites.
class LazyDfaSession {
 public:
  // The speculative interleave: lanes per superblock, and bytes per lane.
  static constexpr size_t kLanes = 4;
  static constexpr size_t kSliceBytes = 8 << 10;

  // The flat table's entry format: a premultiplied successor (its row's
  // first slot) above kFlagBits flag bits. Every row start of a table of at
  // most kMaxTableEntries entries encodes into a non-negative int32_t, and
  // the table stops growing before a build would take it past that.
  static constexpr int kFlagBits = 4;
  static constexpr size_t kMaxTableEntries =
      static_cast<size_t>(std::numeric_limits<int32_t>::max()) >> kFlagBits;
  static constexpr int32_t EncodeEntry(size_t successor, int32_t flags) {
    return static_cast<int32_t>(successor << kFlagBits) | flags;
  }
  static constexpr size_t Successor(int32_t entry) {
    return static_cast<size_t>(entry >> kFlagBits);
  }
  // Whether a table of `entries` entries has no room for one more row.
  static constexpr bool TableFull(size_t entries, size_t num_classes) {
    return entries + num_classes > kMaxTableEntries;
  }

  // The tagger must outlive the session.
  explicit LazyDfaSession(const LazyDfaTagger* tagger);

  // Consumes a chunk, emitting tags in stream order.
  void Feed(std::string_view chunk, const TagSink& sink);

  // Feed(pad, sink), memoized per state (see the class comment): the same
  // tags, early stop, skip counts, consumed count and end state. `pad` is
  // meant to be one constant; padding other than the first one memoized is
  // fed plainly. In fallback and with attribution on it is the plain Feed.
  void FeedPadding(std::string_view pad, const TagSink& sink);

  // Ends the stream: processes the lagging pending byte with no look-ahead
  // suppression. Further Feed() calls are ignored until Reset().
  void Finish(const TagSink& sink);

  // Merges the per-token match counts and DFA hit/miss tallies gathered
  // since the last merge into obs::AttributionTable::Default() and zeroes
  // them; Finish and Reset do too. A no-op with attribution off.
  void FlushAttribution();

  // Returns to the stream-start state and leaves fallback.
  void Reset();

  // Bytes fully processed so far (excludes the pending look-ahead byte).
  uint64_t bytes_consumed() const { return consumed_; }

  // Tags handed to a sink since the last Reset(), the one it refused on an
  // early stop included.
  uint64_t tags_emitted() const { return tags_; }

  const LazyDfaTagger* tagger() const { return tagger_; }

  // Whether this stream missed with no room to build and now takes
  // uncached fused steps.
  bool fallback_active() const { return fallback_; }

 private:
  friend struct LazyDfaCache;

  // Longest lane walk between two checkpoints. A lane's walk is replayed
  // only at the commit, so its length costs nothing when a sink stops.
  static constexpr size_t kCheckpointBytes = 256;
  // Longest pass-1 walk of the ordinary path (StepSegment), and so the most
  // it walks past a sink's stop: with kCheckpointBytes in its place, routing
  // short XML-RPC messages ran about 20% slower.
  static constexpr size_t kWalkBytes = 32;
  // Fresh guesses a lane may take after stalls, per superblock.
  static constexpr uint32_t kMaxRestarts = 64;

  // An emitting step recorded by pass 1: the low 32 bits of its byte's
  // address (Replay subtracts the walk's origin) and its table slot. Left
  // uninitialized on purpose.
  struct TrailEntry {
    uint32_t pos;
    uint32_t slot;
  };
  // A point a lane passed through in state `state`, relative to the
  // superblock's base, with the lane's trail length there and the idle
  // skip the lane took from it (skip_len 0: none). `restart` marks a
  // guess: the lane's walk is exact from one checkpoint up to the next
  // restart only.
  struct Checkpoint {
    uint32_t pos;
    int32_t state;
    uint32_t trail;
    uint32_t skip_len;
    SkipMetrics::Kind kind;
    bool restart;
  };
  // One slice of a superblock, walked as guessed stretches. A stretch
  // ends at a stall on an unbuilt entry, where the lane guesses again past
  // that byte (at most kMaxRestarts times). The lane's last checkpoint is
  // where it stopped: its end, a stall, or before a skip the slice end
  // may have cut.
  struct Lane {
    size_t pos;
    size_t end;
    int32_t s;   // premultiplied current state
    uint32_t t;  // next trail index, in the lane's trail region
    uint32_t restarts;
    bool done;
    std::vector<Checkpoint> cps;
  };
  // What a superblock borrows for its duration (see the class comment).
  struct LaneScratch;
  class LaneLease;
  // FeedPadding's record of the padding fed from one state, in stream
  // order: each tag, by its end past the consumed count the padding
  // started at; each idle skip, after the `tags` tags before it; then the
  // state the padding ends in and the bytes it consumes.
  struct PadTag {
    uint32_t delta;
    int32_t token;
  };
  struct PadSkip {
    uint32_t tags;
    uint32_t len;
    SkipMetrics::Kind kind;
  };
  struct PadMemo {
    std::vector<PadTag> tags;
    std::vector<PadSkip> skips;
    int32_t end_state;
    uint32_t consumed;
  };
  // Progress through one Feed chunk: the next byte, and the bytes so far
  // jumped by idle skips and built on a miss (DFA hits are the rest).
  struct Cursor {
    const char* data;
    size_t n;
    size_t i;
    uint64_t skipped;
    uint64_t misses;
  };

  // Hands `count` tokens ending at the pending byte to `sink`, until it
  // asks to stop.
  void Emit(const int32_t* toks, size_t count, const TagSink& sink);
  // Emits the tokens of the emitting entry at `slot` and counts them for
  // attribution.
  void EmitSlot(size_t slot, const TagSink& sink);
  // Pass 2: emits the steps recorded in trail[from, to) in order, each at
  // stream offset `off` + its byte's distance from `origin`. On an early
  // stop, sets consumed_ past the refused step and state_ to its
  // successor, and returns that distance + 1; otherwise returns 0.
  size_t Replay(const TrailEntry* trail, size_t from, size_t to,
                const char* origin, uint64_t off, const TagSink& sink);
  // Logs an idle skip of `len` bytes of `kind` into the padding being
  // recorded (pad_rec_). The uncached loop never records.
  void LogPadSkip(SkipMetrics::Kind kind, size_t len);
  // Replays `memo` from the state it was recorded in. On an early stop it
  // leaves consumed_ past the refused tag, as Replay does, and state_ as
  // it was.
  void ReplayPadding(const PadMemo& memo, const TagSink& sink);
  // One uncached fused step on the pending byte held with scratch_, with
  // `next_cls` as its look-ahead (has_next = false at end of stream), and
  // its emissions; nothing without a pending byte.
  void StepScratch(bool has_next, uint8_t next_cls, const TagSink& sink);

  // Builds the transition out of the current state on input class `cls`
  // and returns its entry, or enters fallback (under budget pressure, the
  // dfa.intern fault, or with the table full) and returns it unbuilt.
  int32_t BuildTransition(uint8_t cls);
  void EnterFallback();
  // Loads the current interned configuration into scratch_ and its
  // pending class into pending_cls_, ready for an uncached step.
  void LoadScratch();

  // The ordinary cached path from state_ at c.i: one pass-1 walk of at
  // most kWalkBytes toward `end`, taking one-byte idle runs as a lane does,
  // and its pass-2 replay, or, when the walk cannot take a byte, the
  // per-byte step. False on an early stop or on entering fallback.
  bool StepSegment(Cursor& c, size_t end, const TagSink& sink);
  // The per-byte step at c.i: the idle skip, if one may start, then one
  // step, built on a miss.
  bool StepSlow(Cursor& c, const TagSink& sink);
  // Speculates the superblock of kLanes slices at c.i, then commits it.
  void Superblock(Cursor& c, const TagSink& sink);
  // Runs lanes live[0, num_live) to their stops: lockstep walks between
  // per-byte steps.
  void WalkLanes(Lane** live, size_t num_live, TrailEntry* trail,
                 const char* data, size_t base);
  // Walks the N lanes in lockstep for at most kCheckpointBytes rounds,
  // until one reaches its end or stops on an exit it cannot take. Returns
  // that lane, left at the byte it stopped on, or N.
  template <size_t N>
  size_t Lockstep(Lane* const* lanes, TrailEntry* trail, const char* data);
  // A lane's per-byte step: logs a checkpoint, then takes the idle skip
  // and the step, or stops the lane (a stall, or a skip its end may cut).
  void LaneSlowStep(Lane& lane, TrailEntry* trail, const char* data,
                    size_t base);
  // Takes lane `lane` from checkpoint `from` to the end of its guessed
  // stretch: its emissions, skips and end state. Returns the index of the
  // stretch's last checkpoint (or of the one an early stop fell before).
  size_t Adopt(Cursor& c, const Lane& lane, const TrailEntry* trail,
               size_t from, size_t base, const TagSink& sink);
  // Records that the stream was in state_ after c.data[c.i - 1], for
  // later lanes to guess from.
  void NoteGuess(const Cursor& c);

  const LazyDfaTagger* tagger_;
  // The tagger's shared table, and its shape.
  LazyDfaCache* cache_;
  const int32_t* next_;
  size_t num_classes_;

  // Uncached stepping (fallback and Finish's last step), made on first use.
  std::optional<FusedSession> scratch_;

  // The ordinary path's pass-1 trail.
  TrailEntry walk_[kWalkBytes];
  // The state the stream was last seen in right after each byte value
  // (-1: not seen), lane guesses; seeded from the tagger's at the
  // cursor's first superblock.
  bool guessed_ = false;
  int32_t guess_[256];

  int32_t state_ = 0;
  // The pending byte's class while scratch_ holds the configuration (in
  // fallback, and for Finish's last step); -1 = none.
  int16_t pending_cls_ = -1;
  uint64_t consumed_ = 0;
  uint64_t tags_ = 0;
  bool fallback_ = false;
  bool finished_ = false;
  bool stopped_ = false;

  // Hot-path attribution (see obs::AttributionTable), sampled at Reset().
  bool attr_on_ = false;
  bool attr_dirty_ = false;
  std::vector<uint64_t> attr_matches_;
  uint64_t attr_dfa_hits_ = 0;  // stepped bytes minus misses
  uint64_t attr_dfa_misses_ = 0;

  // The padding record being made while FeedPadding runs a plain Feed.
  PadMemo* pad_rec_ = nullptr;
};

// The production tagging engine: owns the fused tables whose step it
// memoizes (its miss path and fallback) and the one transition table every
// LazyDfaSession of it walks. See LazyDfaSession for the execution model.
// Sessions and cursors read the table concurrently; the tagger is
// thread-safe, and must not move while a session of it exists.
class LazyDfaTagger {
 public:
  // The grammar must outlive the tagger.
  static StatusOr<LazyDfaTagger> Create(const grammar::Grammar* grammar,
                                        const TaggerOptions& options);

  // Wraps already-built fused tables. With a non-null `aot`, the table
  // starts warm out of the baked rows (the artifact load path).
  static LazyDfaTagger Wrap(FusedTagger fused,
                            std::shared_ptr<const AotDfaTable> aot = nullptr);

  LazyDfaTagger(LazyDfaTagger&& other) noexcept;
  LazyDfaTagger& operator=(LazyDfaTagger&&) = delete;
  ~LazyDfaTagger();

  // Scans `input`, calling `sink` for every detected token in stream
  // order (token-id order within a byte).
  void Run(std::string_view input, const TagSink& sink) const;

  // Convenience: collect all tags.
  std::vector<Tag> TagAll(std::string_view input) const;

  // Streaming interface: feed the input in arbitrary chunks.
  LazyDfaSession NewSession() const { return LazyDfaSession(this); }

  const FusedTagger& fused() const { return fused_; }
  const grammar::Grammar& grammar() const { return fused_.grammar(); }
  const TaggerOptions& options() const { return fused_.options(); }

  // The baked AOT transition table, or null when compiled in-process.
  const AotDfaTable* aot() const { return aot_.get(); }

  // Table introspection (tests): the states interned at run time, not
  // counting the baked ones, and the bytes charged for them, their rows,
  // emission lists and padding records.
  size_t cache_states() const;
  size_t cache_bytes() const;

  // Per byte value, bit k set when the byte ends an idle run of walk kind
  // k (see LazyDfaSession): it is not a delimiter (delimiter runs), it is
  // one (resync runs), it can arm (armed runs). Bit 3, "leave", is clear.
  const uint8_t* run_ends() const { return run_ends_; }

 private:
  friend class LazyDfaSession;

  LazyDfaTagger(FusedTagger fused, std::shared_ptr<const AotDfaTable> aot);

  // The table, made on first use: a tagger that never tags (a compile
  // that only serializes) reserves and touches none of its storage.
  LazyDfaCache& Cache() const;

  FusedTagger fused_;
  std::shared_ptr<const AotDfaTable> aot_;
  uint8_t run_ends_[256];
  mutable std::atomic<LazyDfaCache*> cache_{nullptr};
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_LAZY_DFA_H_
