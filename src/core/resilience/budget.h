#ifndef CFGTAG_CORE_RESILIENCE_BUDGET_H_
#define CFGTAG_CORE_RESILIENCE_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace cfgtag::core::resilience {

// How far the process has degraded under memory pressure. Rungs are
// ordered: each one implies everything above it, so a single rung value
// describes the whole ladder state.
enum class DegradationRung : int {
  kNone = 0,
  kShedDfa = 1,          // lazy-DFA tables stop growing (fused fallback)
  kTrimPools = 2,        // no consumer left: there is no session pool
  kArtifactReadOnly = 3, // artifact compile cache stops storing new entries
};

const char* DegradationRungName(DegradationRung rung);

// A process-wide byte ceiling for the engine's discretionary memory: lazy-
// DFA transition tables and loaded artifacts. Components Charge/Release as
// they grow and shrink; the budget tracks usage against the limit and walks
// a degradation ladder instead of failing outright:
//
//   usage >= 85% of limit  -> kShedDfa          (stop growing DFA caches)
//   usage >= 95% of limit  -> kTrimPools        (no consumer left)
//   usage >= 100% of limit -> kArtifactReadOnly (stop storing new artifacts;
//                             TryCharge admissions are denied)
//
// Rungs release with 5-point hysteresis (e.g. kShedDfa clears below 80%)
// so a component oscillating around a threshold does not flap the ladder.
// With no limit set (the default) every charge is admitted and the rung
// stays kNone; the hot-path queries below are one relaxed load either way.
class ResourceBudget {
 public:
  // The process-wide budget every built-in component registers against.
  static ResourceBudget& Process();

  // Sets the ceiling in bytes; 0 = unlimited. Re-evaluates the rung
  // immediately, so lowering the limit under live load degrades at once.
  void SetLimit(uint64_t bytes);

  // Records growth that already happened (the component owns the memory
  // either way — denying it would leave the accounting wrong). Drives the
  // ladder but never fails.
  void Charge(uint64_t bytes, const char* component);

  // Admission-checked charge for growth that can be refused outright
  // (loading another artifact, say). Denies when the charge would exceed
  // the limit, counting the denial and pinning the ladder at the top rung.
  // Honors the "budget.charge" fault site.
  Status TryCharge(uint64_t bytes, const char* component);

  void Release(uint64_t bytes);

  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  DegradationRung rung() const {
    return static_cast<DegradationRung>(
        rung_.load(std::memory_order_relaxed));
  }

  // Hot-path queries, one relaxed load each. Each rung implies the ones
  // below it, so ShouldTrimPools() is true at kArtifactReadOnly too.
  bool ShouldShedDfa() const {
    return rung_.load(std::memory_order_relaxed) >=
           static_cast<int>(DegradationRung::kShedDfa);
  }
  bool ShouldTrimPools() const {
    return rung_.load(std::memory_order_relaxed) >=
           static_cast<int>(DegradationRung::kTrimPools);
  }
  bool ArtifactCacheReadOnly() const {
    return rung_.load(std::memory_order_relaxed) >=
           static_cast<int>(DegradationRung::kArtifactReadOnly);
  }

  // Restores the unlimited, undegraded state and zeroes usage (tests).
  void ResetForTest();

 private:
  ResourceBudget() = default;

  // Recomputes the rung from current usage and publishes transitions
  // (metrics + flight-recorder events). Serialized by mu_ so concurrent
  // chargers cannot interleave a climb and a descent out of order.
  void Reevaluate();

  // Stores `next` and publishes the transition. Caller holds mu_.
  void PublishRung(DegradationRung next);

  std::atomic<uint64_t> limit_{0};
  std::atomic<uint64_t> used_{0};
  std::atomic<int> rung_{0};
  std::mutex mu_;  // serializes Reevaluate transitions only
};

// RAII accumulator for one component's budget footprint. Add() forwards
// deltas to ResourceBudget::Process().Charge; the destructor releases
// whatever is still held. Move-aware so owning objects (LazyDfaSession)
// keep their implicit move semantics: the source is left holding zero.
class ScopedCharge {
 public:
  explicit ScopedCharge(const char* component) : component_(component) {}
  ~ScopedCharge() { ReleaseAll(); }

  ScopedCharge(ScopedCharge&& other) noexcept
      : component_(other.component_), held_(other.held_) {
    other.held_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      component_ = other.component_;
      held_ = other.held_;
      other.held_ = 0;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  void Add(uint64_t bytes) {
    if (bytes == 0) return;
    ResourceBudget::Process().Charge(bytes, component_);
    held_ += bytes;
  }

  // Releases `bytes` of what is held (all of it at most).
  void Release(uint64_t bytes) {
    bytes = bytes < held_ ? bytes : held_;
    if (bytes == 0) return;
    ResourceBudget::Process().Release(bytes);
    held_ -= bytes;
  }

  void ReleaseAll() { Release(held_); }

  uint64_t held() const { return held_; }

 private:
  const char* component_;
  uint64_t held_ = 0;
};

}  // namespace cfgtag::core::resilience

#endif  // CFGTAG_CORE_RESILIENCE_BUDGET_H_
