#ifndef CFGTAG_TAGGER_DFA_STATE_H_
#define CFGTAG_TAGGER_DFA_STATE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tagger/fused_model.h"

namespace cfgtag::tagger {

// The lazy DFA's construction, in one place. Two callers build DFA states
// over the fused tables: a LazyDfaTagger's shared table on a miss, and
// BuildAotDfa below, which bakes states into saved artifacts ahead of
// time. Both start from DfaConfig::SetStart and step with DfaConfig::Step,
// so a baked state and the state the table would build from the same
// configuration are the same bytes, and the stream-start state of a
// tagger with a baked table is baked state 0.

// An interned lazy-DFA configuration. Snapshot words live in the owning
// pool at [snap_begin, snap_begin + num_state + num_armed): state words
// first, both runs in ascending word order with nonzero bits — the
// canonical form FusedSession::SnapshotConfig produces, making equality a
// field-wise compare.
//
// The layout is fixed-width, padding explicit, and serialized verbatim
// into artifacts; any change is an artifact format break.
struct DfaStateInfo {
  uint64_t hash = 0;
  uint32_t snap_begin = 0;
  uint32_t num_state = 0;
  uint32_t num_armed = 0;
  int16_t pending_cls = -1;  // byte class of the pending byte; -1 = none
  uint8_t prev_delim = 0;
  uint8_t pad = 0;
};
static_assert(sizeof(DfaStateInfo) == 24, "DfaStateInfo is serialized");

// A cached transition: successor state plus the tags the step emits, as
// token ids into the owning emission pool (the end offset is the stream
// position at replay time, so only the ids are interned). next = -1 means
// not yet built (runtime) or outside the AOT budget (baked tables).
struct DfaTrans {
  int32_t next = -1;
  uint32_t emit_begin = 0;
  uint32_t emit_count = 0;
};
static_assert(sizeof(DfaTrans) == 12, "DfaTrans is serialized");

// A DFA state in build form: the canonical sparse configuration, its key
// bytes, and its hash. Friend of FusedSession and FusedTagger.
struct DfaConfig {
  std::vector<WordBits> state;
  std::vector<WordBits> armed;
  bool prev_delim = false;
  int16_t pending_cls = -1;
  uint64_t hash = 0;  // of the fields above; stored in baked states

  // The stream-start configuration: no live positions, start tokens armed
  // unless in scan mode, no pending byte.
  void SetStart(const FusedTagger& fused);

  // Copies an interned state (its words at `snap`) back into build form.
  void Assign(const DfaStateInfo& info, const WordBits* snap);

  // Becomes the successor of `info` (its words at `snap`) on input class
  // `cls`, and fills `emit` with the token ids the step emits. With no
  // pending byte the input is only absorbed as the look-ahead; otherwise
  // `scratch` takes one real fused step on the pending class with `cls`
  // as its look-ahead — exact for every byte of either class, since the
  // step only reads byte classes.
  void Step(const DfaStateInfo& info, const WordBits* snap, uint8_t cls,
            FusedSession* scratch, std::vector<int32_t>* emit);

  // Whether `info` (its words at `snap`) holds this configuration.
  bool Matches(const DfaStateInfo& info, const WordBits* snap) const;

 private:
  void Rehash();
};

using DfaIndex = std::unordered_multimap<uint64_t, int32_t>;

// The one probe loop: the id of the state equal to `cfg` among `states`
// (words in `snap_pool`, hashes in `index`), or -1. Serves the baked views
// and the shared table's storage alike.
int32_t FindDfaState(const DfaStateInfo* states, const WordBits* snap_pool,
                     const DfaIndex& index, const DfaConfig& cfg);

// Interned states and built transitions in build form: the AOT bake's
// output, exactly the four pools an artifact serves back at run time.
struct DfaPool {
  std::vector<DfaStateInfo> states;
  // Row-major [id * num_classes + cls].
  std::vector<DfaTrans> trans;
  std::vector<WordBits> snap_pool;
  std::vector<int32_t> emit_pool;
  DfaIndex index;

  int32_t Find(const DfaConfig& cfg) const {
    return FindDfaState(states.data(), snap_pool.data(), index, cfg);
  }
  // Appends `cfg` as a new state; returns its id.
  int32_t Append(const DfaConfig& cfg);
  // Pools `emit` and returns the transition to `next` that replays it.
  DfaTrans AddTrans(int32_t next, const std::vector<int32_t>& emit);
};

// The ahead-of-time bake: walks the reachable (configuration x byte class)
// product breadth-first from the start configuration (state 0), interning
// at most `max_states` states. Transitions whose successor would exceed
// the budget stay unbuilt (next = -1) for the run-time table to build; with
// max_states == 0 the pool is empty. The walk is deterministic, so equal
// (grammar, options) pairs bake byte-identical artifact regions.
DfaPool BuildAotDfa(const FusedTagger& fused, uint32_t max_states);

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_DFA_STATE_H_
