#ifndef CFGTAG_CORE_RESILIENCE_DEADLINE_H_
#define CFGTAG_CORE_RESILIENCE_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/resilience/fault_injector.h"

namespace cfgtag::core::resilience {

// A monotonic-clock time budget for one operation. Default-constructed
// deadlines are infinite (never expire), so plumbing a Deadline through an
// API costs nothing for callers that do not set one. Checked at chunk
// boundaries only — the contract of the whole resilience layer is that
// the byte-stepping hot loops never see a clock read.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : at_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(Clock::time_point at) { return Deadline(at); }
  static Deadline After(std::chrono::nanoseconds d) {
    return Deadline(Clock::now() + d);
  }
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }

  // True once the budget is spent. The clock read honors the
  // "deadline.clock" fault site: an armed skew moves the observed now()
  // forward, forcing early expiry without real waiting.
  bool expired() const {
    if (infinite()) return false;
    Clock::time_point now = Clock::now();
    if (FaultInjector::AnyArmed()) {
      now += FaultInjector::ClockSkew("deadline.clock");
    }
    return now >= at_;
  }

  // Time left; zero when expired, Clock::duration::max() when infinite.
  Clock::duration remaining() const {
    if (infinite()) return Clock::duration::max();
    const Clock::time_point now = Clock::now();
    return now >= at_ ? Clock::duration::zero() : at_ - now;
  }

  Clock::time_point at() const { return at_; }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}
  Clock::time_point at_;
};

// Cooperative cancellation: a copyable handle to a shared flag. Cancel()
// is sticky and thread-safe; scans observe it at chunk boundaries and
// return kCancelled with whatever they produced so far. Child() makes a
// token that trips when either it or its parent is cancelled — the scan
// engine's watchdog cancels its own child without ever touching the
// caller's token.
class CancelToken {
 public:
  // A fresh, cancellable token.
  CancelToken() : state_(std::make_shared<State>()) {}

  // The inert token: never cancelled, Cancel() is a no-op. The default
  // for controls that only carry a deadline.
  static CancelToken None() { return CancelToken(nullptr); }

  void Cancel() const {
    if (state_ != nullptr) {
      state_->flag.store(true, std::memory_order_relaxed);
    }
  }

  bool cancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->flag.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  // A token cancelled by its own Cancel() or by this token's.
  CancelToken Child() const {
    CancelToken child;
    child.state_->parent = state_;
    return child;
  }

 private:
  struct State {
    std::atomic<bool> flag{false};
    std::shared_ptr<const State> parent;
  };
  explicit CancelToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

// The bundle threaded through the scan paths: a deadline, a cancellation
// token, and the granularity at which both are checked. The default is
// fully inert (infinite deadline, inert token), so a default-constructed
// control tags exactly like the uncontrolled entry points, which run
// under InertOneChunk().
struct ScanControl {
  Deadline deadline;
  CancelToken cancel = CancelToken::None();
  // Bytes fed between control checks. Smaller = tighter deadline/cancel
  // latency, larger = fewer clock reads; 64 KiB keeps the check cost
  // below noise at memory-bandwidth scan speeds. 0 feeds the whole input
  // as one chunk (checked once before it and once after).
  size_t check_interval_bytes = 64 * 1024;

  // The control behind every uncontrolled entry point (CompiledTagger::
  // Tag, ContextFilter::Scan, ScanEngine::ScanBatch/ScanStream without a
  // control): never trips, and feeds each input as one chunk.
  static const ScanControl& InertOneChunk();

  // kOk, kCancelled (checked first: an explicit cancel beats a timeout),
  // or kDeadlineExceeded. Does not record events — the scan that aborts
  // on a non-OK check owns the metric and flight-recorder entry, so one
  // trip is counted once no matter how many layers observe it.
  Status Check() const;
};

// Counts and flight-records one aborted controlled scan: increments
// cfgtag_deadline_exceeded_total / cfgtag_scan_cancelled_total per the
// status code and records the matching event with the consumed/total byte
// counts. Call exactly once per aborted top-level scan.
void CountControlTrip(const Status& status, uint64_t consumed_bytes,
                      uint64_t total_bytes, const char* where);

}  // namespace cfgtag::core::resilience

#endif  // CFGTAG_CORE_RESILIENCE_DEADLINE_H_
