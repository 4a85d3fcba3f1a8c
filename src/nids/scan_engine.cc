#include "nids/scan_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/resilience/fault_injector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tagger/tag.h"

namespace cfgtag::nids {

namespace {

struct EngineMetrics {
  obs::Counter* batches;
  obs::Counter* streams;
  obs::Counter* sharded_scans;
  obs::Counter* shards;
  obs::Counter* bytes;
  obs::Histogram* batch_streams;
  obs::Histogram* batch_seconds;

  static const EngineMetrics& Get() {
    static const EngineMetrics* const kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new EngineMetrics;
      m->batches = reg.GetCounter("cfgtag_engine_batches_total",
                                  "ScanEngine::ScanBatch invocations");
      m->streams = reg.GetCounter("cfgtag_engine_streams_total",
                                  "Streams scanned through the engine");
      m->sharded_scans =
          reg.GetCounter("cfgtag_engine_sharded_scans_total",
                         "ScanEngine::ScanStream invocations");
      m->shards = reg.GetCounter("cfgtag_engine_shards_total",
                                 "Shards cut by ScanStream");
      m->bytes = reg.GetCounter("cfgtag_engine_bytes_total",
                                "Bytes scanned through the engine");
      m->batch_streams = reg.GetHistogram(
          "cfgtag_engine_batch_streams", "Streams per ScanBatch call",
          obs::DefaultCountBuckets());
      m->batch_seconds = reg.GetHistogram(
          "cfgtag_engine_batch_seconds",
          "Wall time of one ScanBatch/ScanStream call");
      return m;
    }();
    return *kMetrics;
  }
};

namespace res = cfgtag::core::resilience;

// Per-unit watchdog state. Only kRunning units can be stuck — a unit still
// queued behind a busy pool makes no progress by design.
enum UnitState : int { kPending = 0, kRunning = 1, kDone = 2 };
struct UnitWatch {
  std::atomic<uint64_t> progress{0};
  std::atomic<int> state{kPending};
  std::atomic<bool> stuck{false};
};

}  // namespace

ScanEngine::ScanEngine(const ContextFilter* filter,
                       const ScanEngineOptions& options)
    : filter_(filter), options_(options), pool_(options.num_threads) {}

std::vector<StreamResult> ScanEngine::ScanBatch(
    const std::vector<std::string_view>& streams) const {
  std::vector<StreamResult> results;
  (void)ScanBatch(streams, res::ScanControl::InertOneChunk(), &results);
  return results;
}

StreamResult ScanEngine::ScanStream(std::string_view stream) const {
  StreamResult result;
  (void)ScanStream(stream, res::ScanControl::InertOneChunk(), &result);
  return result;
}

Status ScanEngine::Run(const std::vector<std::string_view>& units,
                       const res::ScanControl& control, const char* what,
                       const char* slow_what,
                       std::vector<StreamResult>* results) const {
  const size_t n = units.size();
  results->assign(n, StreamResult{});
  // The watchdog reads the per-chunk heartbeat, so a one-chunk control
  // (every uncontrolled entry point) has nothing to watch and runs none.
  const bool watched =
      options_.stuck_shard_seconds > 0 && control.check_interval_bytes > 0;
  // The engine's own cancellations (watchdog) go through a child token so
  // the caller's token is never touched; units observe both.
  res::ScanControl eff = control;
  if (watched) eff.cancel = control.cancel.Child();

  std::vector<Status> statuses(n);
  std::vector<UnitWatch> watch(watched ? n : 0);

  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_done = false;
  std::thread watchdog;
  if (watched) {
    watchdog = std::thread([&] {
      using Clock = std::chrono::steady_clock;
      std::vector<uint64_t> last_prog(n, 0);
      std::vector<Clock::time_point> last_change(n, Clock::now());
      const double poll_s =
          std::clamp(options_.stuck_shard_seconds / 8, 0.01, 1.0);
      const auto poll = std::chrono::duration<double>(poll_s);
      std::unique_lock<std::mutex> lock(wd_mu);
      while (!wd_cv.wait_for(lock, poll, [&] { return wd_done; })) {
        const Clock::time_point now = Clock::now();
        for (size_t i = 0; i < n; ++i) {
          UnitWatch& w = watch[i];
          if (w.state.load(std::memory_order_relaxed) != kRunning) {
            last_change[i] = now;
            continue;
          }
          const uint64_t p = w.progress.load(std::memory_order_relaxed);
          if (p != last_prog[i]) {
            last_prog[i] = p;
            last_change[i] = now;
            continue;
          }
          if (std::chrono::duration<double>(now - last_change[i]).count() >=
                  options_.stuck_shard_seconds &&
              !w.stuck.exchange(true, std::memory_order_relaxed)) {
            obs::RecordEvent(obs::EventKind::kStuckShard,
                             static_cast<int64_t>(i),
                             static_cast<int64_t>(p), what);
            // Cooperative: cancelling the internal token makes every
            // shard (the stuck one included, once it reaches its next
            // chunk boundary) abort instead of the join hanging forever.
            eff.cancel.Cancel();
          }
        }
      }
    });
  }

  // One slot per worker: a worker scans its whole share of the units on
  // one held session and tallies their registry writes privately. Slots
  // are cache-line aligned so the tallies share no line; they merge their
  // tallies after the join.
  struct alignas(64) WorkerSlot {
    explicit WorkerSlot(const ContextFilter& filter) : scan(filter) {}
    ScanSlot scan;
  };
  std::deque<WorkerSlot> slots;
  while (slots.size() < std::min<size_t>(n, pool_.num_threads())) {
    slots.emplace_back(*filter_);
  }
  // Each unit gets its own correlation id, base + i, reserved for the
  // whole run in one atomic add: alerts a unit raises inherit the id via
  // the thread-local scope, and a slow unit's event carries the same id —
  // so a dump ties alert to shard.
  const uint64_t first_id = obs::NextCorrelationId(n);
  const bool timed = options_.slow_shard_seconds > 0;
  pool_.RunIndexed(n, [&](size_t slot, size_t i) {
    UnitWatch* w = watched ? &watch[i] : nullptr;
    if (w != nullptr) w->state.store(kRunning, std::memory_order_relaxed);
    // A unit's time starts before the stall site and ends at the scan's
    // own end reading: a stalled unit is a slow unit.
    const obs::Lap::Clock::time_point t0 =
        timed ? obs::Lap::Clock::now() : obs::Lap::Clock::time_point{};
    res::FaultInjector::MaybeStall("engine.shard");
    obs::CorrelationScope cscope(first_id + i);
    StreamResult& r = (*results)[i];
    obs::Lap lap;
    statuses[i] = filter_->Scan(units[i], eff, &r.alerts, &r.stats,
                                w != nullptr ? &w->progress : nullptr,
                                &slots[slot].scan, &lap);
    if (timed && std::chrono::duration<double>(lap.end - t0).count() >=
                     options_.slow_shard_seconds) {
      obs::RecordEvent(obs::EventKind::kSlowShard,
                       static_cast<int64_t>(units[i].size()),
                       static_cast<int64_t>(i), slow_what);
    }
    if (w != nullptr) w->state.store(kDone, std::memory_order_relaxed);
  });
  slots.clear();

  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mu);
      wd_done = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }

  // Aggregate: name every failing unit, not just the first — a batch
  // where shards 1 and 3 failed for different reasons should say so.
  Status primary = Status::Ok();
  std::string failures;
  for (size_t i = 0; i < n; ++i) {
    const bool stuck =
        watched && watch[i].stuck.load(std::memory_order_relaxed);
    if (stuck) {
      // The watchdog's verdict outranks whatever the cancelled unit
      // reported: the interesting fact is the stall, not the abort.
      statuses[i] = InternalError(
          "shard " + std::to_string(i) + " stuck: no progress for " +
          std::to_string(options_.stuck_shard_seconds) + "s at byte " +
          std::to_string(watch[i].progress.load(std::memory_order_relaxed)));
    }
    if (statuses[i].ok()) continue;
    obs::RecordEvent(obs::EventKind::kShardFailed, static_cast<int64_t>(i),
                     static_cast<int64_t>(statuses[i].code()), what);
    if (!failures.empty()) failures += "; ";
    failures += "shard " + std::to_string(i) + " " +
                StatusCodeName(statuses[i].code());
    // A stuck shard's InternalError is the root cause; the sibling
    // cancellations it triggered are fallout. Prefer the former.
    if (primary.ok() ||
        (stuck && primary.code() == StatusCode::kCancelled)) {
      primary = statuses[i];
    }
  }
  if (primary.ok()) return primary;
  return primary.WithContext(std::string(what) + ": " + failures);
}

Status ScanEngine::ScanBatch(const std::vector<std::string_view>& streams,
                             const res::ScanControl& control,
                             std::vector<StreamResult>* results) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedSpan span("nids.ScanBatch");
  obs::ScopedTimer timer(metrics.batch_seconds);
  const Status status =
      Run(streams, control, "ScanBatch", "slow batch stream", results);
  uint64_t bytes = 0;
  for (const StreamResult& r : *results) bytes += r.stats.bytes;
  metrics.batches->Increment();
  metrics.streams->Increment(streams.size());
  metrics.bytes->Increment(bytes);
  metrics.batch_streams->Observe(static_cast<double>(streams.size()));
  return status;
}

Status ScanEngine::ScanStream(std::string_view stream,
                              const res::ScanControl& control,
                              StreamResult* result) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedSpan span("nids.ScanStream");
  obs::ScopedTimer timer(metrics.batch_seconds);
  metrics.sharded_scans->Increment();

  // Shard only where a fresh tagger provably equals the streaming one.
  std::vector<size_t> starts{0};
  if (core::RecordShardingIsExact(filter_->tagger().options().tagger,
                                  options_.record_delimiters)) {
    const size_t max_shards =
        options_.max_shards != 0
            ? options_.max_shards
            : 2 * static_cast<size_t>(pool_.num_threads());
    starts = core::ShardSplitPoints(stream, options_.record_delimiters,
                                    max_shards, options_.min_shard_bytes);
  }
  metrics.shards->Increment(starts.size());
  std::vector<std::string_view> pieces;
  for (size_t i = 0; i < starts.size(); ++i) {
    const size_t end = i + 1 < starts.size() ? starts[i + 1] : stream.size();
    pieces.push_back(stream.substr(starts[i], end - starts[i]));
  }
  std::vector<StreamResult> shard;
  const Status status =
      Run(pieces, control, "ScanStream", "slow stream shard", &shard);

  // Shards cover disjoint increasing ranges and each shard's alerts are in
  // stream order, so concatenation in shard order, rebased to absolute
  // offsets, is the sequential alert order. On error this is the partial
  // result the controlled API promises: each shard's consumed prefix.
  *result = StreamResult{};
  for (size_t i = 0; i < shard.size(); ++i) {
    for (Alert a : shard[i].alerts) {
      a.end += starts[i];
      result->alerts.push_back(a);
    }
    result->stats += shard[i].stats;
  }
  metrics.bytes->Increment(result->stats.bytes);
  return status;
}

}  // namespace cfgtag::nids
