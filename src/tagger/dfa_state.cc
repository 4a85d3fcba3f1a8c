#include "tagger/dfa_state.h"

#include <algorithm>

#include "common/hash.h"

namespace cfgtag::tagger {

namespace {

bool SameWordRun(const WordBits* a, const WordBits* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].word != b[i].word || a[i].bits != b[i].bits) return false;
  }
  return true;
}

}  // namespace

void DfaConfig::SetStart(const FusedTagger& fused) {
  state.clear();
  armed.clear();
  if (fused.options().arm_mode != ArmMode::kScan) {
    armed.assign(fused.start_first_.begin(), fused.start_first_.end());
    std::sort(armed.begin(), armed.end(),
              [](const WordBits& a, const WordBits& b) {
                return a.word < b.word;
              });
  }
  prev_delim = false;
  pending_cls = -1;
  Rehash();
}

void DfaConfig::Assign(const DfaStateInfo& info, const WordBits* snap) {
  state.assign(snap, snap + info.num_state);
  armed.assign(snap + info.num_state, snap + info.num_state + info.num_armed);
  prev_delim = info.prev_delim != 0;
  pending_cls = info.pending_cls;
  hash = info.hash;
}

void DfaConfig::Step(const DfaStateInfo& info, const WordBits* snap,
                     uint8_t cls, FusedSession* scratch,
                     std::vector<int32_t>* emit) {
  emit->clear();
  if (info.pending_cls < 0) {
    // Absorb: the input byte becomes the pending look-ahead; the machine
    // configuration is untouched and nothing emits.
    state.assign(snap, snap + info.num_state);
    armed.assign(snap + info.num_state,
                 snap + info.num_state + info.num_armed);
    prev_delim = info.prev_delim != 0;
  } else {
    scratch->LoadConfig(snap, info.num_state, snap + info.num_state,
                        info.num_armed, info.prev_delim != 0);
    scratch->ProcessClass(static_cast<uint8_t>(info.pending_cls),
                          /*has_next=*/true, cls);
    emit->assign(scratch->emitted_.begin(), scratch->emitted_.end());
    state.clear();
    armed.clear();
    scratch->SnapshotConfig(&state, &armed);
    prev_delim = scratch->prev_was_delim_;
  }
  pending_cls = static_cast<int16_t>(cls);
  Rehash();
}

bool DfaConfig::Matches(const DfaStateInfo& info, const WordBits* snap) const {
  return info.pending_cls == pending_cls &&
         info.prev_delim == (prev_delim ? 1 : 0) &&
         info.num_state == state.size() && info.num_armed == armed.size() &&
         SameWordRun(snap, state.data(), state.size()) &&
         SameWordRun(snap + info.num_state, armed.data(), armed.size());
}

// The hash over the canonical sparse runs. Baked AOT states store it and
// sessions probe them with it, so any change is an artifact format break.
void DfaConfig::Rehash() {
  uint64_t h = 0x243f6a8885a308d3ULL;
  h = HashMix64(h, (static_cast<uint64_t>(state.size()) << 32) ^
                       static_cast<uint64_t>(armed.size()));
  for (const WordBits& wb : state) {
    h = HashMix64(h, wb.bits);
    h = HashMix64(h, wb.word);
  }
  for (const WordBits& wb : armed) {
    h = HashMix64(h, ~wb.bits);
    h = HashMix64(h, wb.word);
  }
  h = HashMix64(h, (static_cast<uint64_t>(prev_delim) << 16) ^
                       static_cast<uint64_t>(static_cast<uint16_t>(pending_cls)));
  hash = h;
}

int32_t FindDfaState(const DfaStateInfo* states, const WordBits* snap_pool,
                     const DfaIndex& index, const DfaConfig& cfg) {
  auto range = index.equal_range(cfg.hash);
  for (auto it = range.first; it != range.second; ++it) {
    const DfaStateInfo& cand = states[static_cast<size_t>(it->second)];
    if (cfg.Matches(cand, snap_pool + cand.snap_begin)) return it->second;
  }
  return -1;
}

int32_t DfaPool::Append(const DfaConfig& cfg) {
  DfaStateInfo info;
  info.hash = cfg.hash;
  info.snap_begin = static_cast<uint32_t>(snap_pool.size());
  info.num_state = static_cast<uint32_t>(cfg.state.size());
  info.num_armed = static_cast<uint32_t>(cfg.armed.size());
  info.pending_cls = cfg.pending_cls;
  info.prev_delim = cfg.prev_delim ? 1 : 0;
  snap_pool.insert(snap_pool.end(), cfg.state.begin(), cfg.state.end());
  snap_pool.insert(snap_pool.end(), cfg.armed.begin(), cfg.armed.end());
  const int32_t id = static_cast<int32_t>(states.size());
  states.push_back(info);
  index.emplace(cfg.hash, id);
  return id;
}

DfaTrans DfaPool::AddTrans(int32_t next, const std::vector<int32_t>& emit) {
  DfaTrans tr;
  tr.next = next;
  tr.emit_begin = static_cast<uint32_t>(emit_pool.size());
  tr.emit_count = static_cast<uint32_t>(emit.size());
  emit_pool.insert(emit_pool.end(), emit.begin(), emit.end());
  return tr;
}

DfaPool BuildAotDfa(const FusedTagger& fused, uint32_t max_states) {
  DfaPool out;
  if (max_states == 0) return out;
  const size_t num_classes = fused.NumByteClasses();
  FusedSession scratch(&fused);
  DfaConfig next;
  std::vector<int32_t> emit;
  next.SetStart(fused);
  out.Append(next);
  // The states vector doubles as the BFS queue: ids are appended in
  // discovery order and every id's full class row is expanded once.
  for (size_t id = 0; id < out.states.size(); ++id) {
    out.trans.resize((id + 1) * num_classes);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      const DfaStateInfo info = out.states[id];
      next.Step(info, out.snap_pool.data() + info.snap_begin,
                static_cast<uint8_t>(cls), &scratch, &emit);
      int32_t to = out.Find(next);
      if (to < 0) {
        if (out.states.size() >= max_states) continue;
        to = out.Append(next);
      }
      out.trans[id * num_classes + cls] = out.AddTrans(to, emit);
    }
  }
  return out;
}

}  // namespace cfgtag::tagger
