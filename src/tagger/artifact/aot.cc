#include "tagger/artifact/aot.h"

#include <algorithm>
#include <unordered_map>

namespace cfgtag::tagger::artifact {

// Friend of FusedSession/FusedTagger: drives a scratch fused session one
// (configuration, class) step at a time, exactly like LazyDfaSession::
// BuildTransition, but breadth-first over the whole reachable set.
class AotBuilder {
 public:
  AotBuilder(const FusedTagger& fused, uint32_t max_states)
      : fused_(fused),
        max_states_(max_states),
        scratch_(&fused),
        num_classes_(fused.NumByteClasses()) {
    // Build steps must never count toward hot-path attribution: every
    // emission they produce is replayed (and counted) at run time.
    scratch_.attr_on_ = false;
  }

  AotDfa Build() {
    if (max_states_ == 0) return std::move(out_);
    // State 0: the stream-start configuration — no live positions, start
    // tokens armed unless in scan mode, no pending byte (the construction
    // LazyDfaSession::Reset interns, so a fresh session resolves to it).
    tmp_state_.clear();
    tmp_armed_.clear();
    if (fused_.options().arm_mode != ArmMode::kScan) {
      tmp_armed_.assign(fused_.start_first_.begin(), fused_.start_first_.end());
      std::sort(tmp_armed_.begin(), tmp_armed_.end(),
                [](const WordBits& a, const WordBits& b) {
                  return a.word < b.word;
                });
    }
    InternOrReject(tmp_state_, tmp_armed_, false, -1);

    // The states vector doubles as the BFS queue: ids are appended in
    // discovery order and every id's full class row is expanded once.
    for (size_t id = 0; id < out_.states.size(); ++id) {
      for (size_t cls = 0; cls < num_classes_; ++cls) {
        Expand(static_cast<int32_t>(id), static_cast<uint8_t>(cls));
      }
    }
    return std::move(out_);
  }

 private:
  void Expand(int32_t id, uint8_t cls) {
    const DfaStateInfo info = out_.states[static_cast<size_t>(id)];
    const WordBits* snap = out_.snap_pool.data() + info.snap_begin;
    tmp_state_.clear();
    tmp_armed_.clear();
    tmp_emit_.clear();
    bool next_prev_delim;
    if (info.pending_cls < 0) {
      // Absorb: the input byte becomes the pending look-ahead; the
      // machine configuration is untouched and nothing emits.
      tmp_state_.assign(snap, snap + info.num_state);
      tmp_armed_.assign(snap + info.num_state,
                        snap + info.num_state + info.num_armed);
      next_prev_delim = info.prev_delim != 0;
    } else {
      const ByteClassifier& classifier = fused_.classifier();
      scratch_.LoadConfig(snap, info.num_state, snap + info.num_state,
                          info.num_armed, info.prev_delim != 0);
      scratch_.pos_ = 0;
      scratch_.ProcessByte(
          classifier.Representative(static_cast<uint16_t>(info.pending_cls)),
          /*has_next=*/true, classifier.Representative(cls),
          [this](const Tag& t) {
            tmp_emit_.push_back(t.token);
            return true;
          });
      scratch_.SnapshotConfig(&tmp_state_, &tmp_armed_);
      next_prev_delim = scratch_.prev_was_delim_;
    }
    const int32_t next = InternOrReject(tmp_state_, tmp_armed_,
                                        next_prev_delim,
                                        static_cast<int16_t>(cls));
    if (next < 0) return;  // over budget: runtime overlay will build it
    DfaTrans tr;
    tr.next = next;
    tr.emit_begin = static_cast<uint32_t>(out_.emit_pool.size());
    tr.emit_count = static_cast<uint32_t>(tmp_emit_.size());
    out_.emit_pool.insert(out_.emit_pool.end(), tmp_emit_.begin(),
                          tmp_emit_.end());
    out_.trans[static_cast<size_t>(id) * num_classes_ + cls] = tr;
  }

  // Returns the id of an existing equal state, or interns a new one —
  // unless that would exceed the budget, in which case -1.
  int32_t InternOrReject(const std::vector<WordBits>& state,
                         const std::vector<WordBits>& armed, bool prev_delim,
                         int16_t pending_cls) {
    const uint8_t pd = prev_delim ? 1 : 0;
    const uint64_t h = HashDfaConfig(state.data(), state.size(), armed.data(),
                                     armed.size(), prev_delim, pending_cls);
    auto range = index_.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      const DfaStateInfo& cand = out_.states[static_cast<size_t>(it->second)];
      if (cand.pending_cls == pending_cls && cand.prev_delim == pd &&
          cand.num_state == state.size() && cand.num_armed == armed.size() &&
          SameWordRun(out_.snap_pool.data() + cand.snap_begin, state.data(),
                      state.size()) &&
          SameWordRun(
              out_.snap_pool.data() + cand.snap_begin + cand.num_state,
              armed.data(), armed.size())) {
        return it->second;
      }
    }
    if (out_.states.size() >= max_states_) return -1;
    DfaStateInfo info;
    info.hash = h;
    info.snap_begin = static_cast<uint32_t>(out_.snap_pool.size());
    info.num_state = static_cast<uint32_t>(state.size());
    info.num_armed = static_cast<uint32_t>(armed.size());
    info.pending_cls = pending_cls;
    info.prev_delim = pd;
    out_.snap_pool.insert(out_.snap_pool.end(), state.begin(), state.end());
    out_.snap_pool.insert(out_.snap_pool.end(), armed.begin(), armed.end());
    const int32_t id = static_cast<int32_t>(out_.states.size());
    out_.states.push_back(info);
    out_.trans.resize(out_.trans.size() + num_classes_);
    index_.emplace(h, id);
    return id;
  }

  const FusedTagger& fused_;
  const uint32_t max_states_;
  FusedSession scratch_;
  const size_t num_classes_;
  AotDfa out_;
  std::unordered_multimap<uint64_t, int32_t> index_;
  std::vector<WordBits> tmp_state_, tmp_armed_;
  std::vector<int32_t> tmp_emit_;
};

AotDfa BuildAotDfa(const FusedTagger& fused, uint32_t max_states) {
  return AotBuilder(fused, max_states).Build();
}

}  // namespace cfgtag::tagger::artifact
