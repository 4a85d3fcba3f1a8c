#ifndef CFGTAG_OBS_EVENTS_H_
#define CFGTAG_OBS_EVENTS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace cfgtag::obs {

// What happened. The set is deliberately small: the flight recorder is a
// crash-dump aid, not a general event bus, and every kind corresponds to
// one instrumented site in the engine.
enum class EventKind : uint16_t {
  kStatusError = 0,     // a Status failure surfaced to a dump point
  kNidsAlert = 1,       // nids::ContextFilter raised an alert
  kDfaCacheFallback = 3,// lazy-DFA stream missed with no room (fused steps)
  kSlowShard = 4,       // a ScanEngine shard/stream exceeded the slow bound
  kCustom = 6,
  kDeadlineExceeded = 7,  // a controlled scan aborted at its deadline
  kScanCancelled = 8,     // a controlled scan observed its CancelToken
  kBudgetPressure = 9,    // process budget climbed a degradation rung
  kDegradedMode = 10,     // a component entered/left a degraded rung
  kFaultInjected = 11,    // FaultInjector fired at an armed site
  kStuckShard = 12,       // watchdog: a running shard stopped progressing
  kShardFailed = 13,      // a ScanEngine shard finished with an error
};

const char* EventKindName(EventKind kind);

// One recorded event. `a` and `b` are kind-specific payload words (stream
// offsets, byte counts, shard indices...); `detail` is a short free-form
// tail (rule id, token name), truncated to fit.
struct Event {
  uint64_t seq = 0;             // 1-based global sequence number
  uint64_t t_us = 0;            // microseconds since recorder construction
  uint64_t correlation_id = 0;  // 0 = none (see CorrelationScope)
  int64_t a = 0;
  int64_t b = 0;
  EventKind kind = EventKind::kCustom;
  char detail[64] = {0};
};

// Crash-safe flight recorder: a fixed-capacity lock-free ring of the last
// N structured events. Record() is wait-free for writers (one fetch_add
// plus relaxed atomic word stores into an owned slot); readers snapshot
// without blocking writers and simply skip slots that are mid-write. Each
// slot is a seqlock: the payload lives in atomic words (never plain
// memory), so a reader racing a writer reads stale or mixed *values*,
// never a formal data race, and the before/after stamp check rejects any
// mixed copy. The ring overwrites oldest-first, so after any crash the
// tail holds the seconds leading up to it — DumpTo(fd) is
// async-signal-safe and is what the SIGINT/SIGTERM hook calls.
class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two; default keeps the ring a few
  // hundred KB.
  explicit FlightRecorder(size_t capacity = 4096);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  void Record(EventKind kind, uint64_t correlation_id, int64_t a, int64_t b,
              std::string_view detail);

  // Committed events, oldest first. Slots being overwritten concurrently
  // are skipped — the snapshot is a consistent sample, not a barrier.
  std::vector<Event> Snapshot() const;

  // {"events": [...], "recorded": N, "dropped": M} — the /events payload.
  void WriteJson(std::ostream& os) const;

  // Async-signal-safe dump (snprintf + write only): one JSON line per
  // event. Safe to call from a SIGINT/SIGTERM handler.
  void DumpTo(int fd) const;

  // Installs a SIGINT/SIGTERM handler that dumps Default() to `path`,
  // then re-raises the default disposition. The path is copied into a
  // static buffer (truncated if very long); passing an empty path
  // uninstalls nothing but disables the dump.
  static void InstallSignalDump(const char* path);

  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  // Events overwritten before anyone read them (approximate: total minus
  // capacity, floored at zero).
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  // Forgets everything (tests). Not safe concurrently with Record().
  void Clear();

  // The process-wide recorder all built-in instrumentation writes to.
  static FlightRecorder& Default();

 private:
  // The event payload is stored as whole atomic words (an Event image laid
  // down with memcpy) rather than an Event member: every byte a reader can
  // observe mid-write is then reached only through an atomic access, which
  // is what makes the seqlock formally race-free (and TSan-clean) instead
  // of merely "torn copies get rejected".
  static constexpr size_t kEventWords = (sizeof(Event) + 7) / 8;
  struct Slot {
    // 0 = empty, kBusy = mid-write, otherwise the committed Event::seq.
    std::atomic<uint64_t> ready{0};
    std::atomic<uint64_t> words[kEventWords];
  };
  static constexpr uint64_t kBusy = ~0ULL;

  // Seqlock read of slot i into *out. Returns false for empty, mid-write,
  // or overwritten-during-copy slots. Async-signal-safe (lock-free atomic
  // loads and memcpy only).
  bool ReadSlot(size_t i, Event* out) const;

  size_t capacity_;  // power of two
  Slot* slots_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_;
};

// Fresh process-unique correlation id (starts at 1; 0 means "none"). With
// a `count`, reserves that many consecutive ids in one atomic add and
// returns the first: a caller that needs one id per unit of a run takes
// them as a block.
uint64_t NextCorrelationId(uint64_t count = 1);

// The current thread's correlation id, 0 when no scope is open. Events
// recorded through RecordEvent() pick it up automatically, so an alert
// raised inside a ScanEngine shard carries the shard's id.
uint64_t CurrentCorrelationId();

// RAII: sets the calling thread's correlation id for the scope's lifetime,
// restoring the previous one on exit (scopes nest).
class CorrelationScope {
 public:
  explicit CorrelationScope(uint64_t id);
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  uint64_t prev_;
};

// Records into FlightRecorder::Default() with the current thread's
// correlation id.
void RecordEvent(EventKind kind, int64_t a, int64_t b,
                 std::string_view detail);

}  // namespace cfgtag::obs

#endif  // CFGTAG_OBS_EVENTS_H_
