#ifndef CFGTAG_OBS_ATTRIBUTION_H_
#define CFGTAG_OBS_ATTRIBUTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cfgtag::obs {

class Counter;

// Per-rule / per-token hot-path attribution. The tagging engines keep
// cheap per-session arrays (one uint64 per token, bumped with plain
// stores on the per-byte path) and merge them here on session release —
// so the hot loop never takes this mutex, and the table still converges
// to process-wide totals. Rows also mirror into the default
// MetricsRegistry as labeled counters, so /metrics carries the same
// attribution the /rules ranking shows.
//
// Attribution is OFF by default: enabled() is a process-wide flag the
// engines sample at session Reset() time. When off, the per-byte cost is
// a single predicted-not-taken branch.
class AttributionTable {
 public:
  struct Row {
    std::string name;
    uint64_t hits = 0;  // matches (tokens) / alerts (rules) /
                        // messages (services)
    // Registry mirrors, resolved once per row: the registry never deletes
    // counters, and Clear() drops the rows (and these handles) wholesale,
    // so a cached pointer can never dangle. Building the labeled metric
    // name on every merge was the dominant cost of a session release.
    Counter* hits_counter = nullptr;
  };

  AttributionTable() = default;
  AttributionTable(const AttributionTable&) = delete;
  AttributionTable& operator=(const AttributionTable&) = delete;

  // Process-wide switch. The enable/disable protocol:
  //
  //  * Engines sample enabled() exactly once per session, at Reset() (the
  //    pool-checkout point), into a per-session attr_on_ flag — never
  //    mid-stream. A toggle therefore changes what *future* checkouts
  //    count; sessions already scanning finish under the value they
  //    sampled, so their per-session arrays are merged or skipped as one
  //    consistent unit.
  //  * set_enabled() is a release store and enabled() an acquire load:
  //    everything the enabling thread published before flipping the
  //    switch (rule tables, config, pre-seeded rows in this table) is
  //    visible to any session whose Reset() observes the new value. A
  //    relaxed load would let a session act on `true` while the rows it
  //    is about to merge into were not yet visible.
  //  * Merges themselves (AddToken/AddRule/...) serialize on mu_, so a
  //    toggle never tears a row: readers (RankedTokens, ToJson) always
  //    see fully-published rows regardless of the switch.
  static bool enabled() {
    return enabled_.load(std::memory_order_acquire);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_release);
  }

  // Merge one session's (or scan's) deltas. Zero deltas are dropped.
  void AddToken(std::string_view name, uint64_t matches);
  void AddRule(std::string_view id, uint64_t alerts);
  void AddService(std::string_view name, uint64_t messages);
  void AddDfaCache(uint64_t hits, uint64_t misses);

  // Rows sorted by hits descending (ties by name).
  std::vector<Row> RankedTokens() const;
  std::vector<Row> RankedRules() const;
  std::vector<Row> RankedServices() const;

  uint64_t dfa_cache_hits() const;
  uint64_t dfa_cache_misses() const;

  // The /rules payload: {"enabled": ..., "tokens": [...], "rules": [...],
  // "services": [...], "dfa_cache": {...}}, each list ranked.
  std::string ToJson() const;

  void Clear();

  // The process-wide table all built-in instrumentation merges into.
  static AttributionTable& Default();

 private:
  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::map<std::string, Row, std::less<>> tokens_;
  std::map<std::string, Row, std::less<>> rules_;
  std::map<std::string, Row, std::less<>> services_;
  uint64_t dfa_hits_ = 0;
  uint64_t dfa_misses_ = 0;
};

}  // namespace cfgtag::obs

#endif  // CFGTAG_OBS_ATTRIBUTION_H_
