#include "nids/scan_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
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

}  // namespace

ScanEngine::ScanEngine(const ContextFilter* filter,
                       const ScanEngineOptions& options)
    : filter_(filter), options_(options), pool_(options.num_threads) {}

std::vector<StreamResult> ScanEngine::ScanBatch(
    const std::vector<std::string_view>& streams) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedSpan span("nids.ScanBatch");
  obs::ScopedTimer timer(metrics.batch_seconds);
  std::vector<StreamResult> results(streams.size());
  pool_.RunIndexed(streams.size(), [&](size_t i) {
    // Each stream gets its own correlation id: alerts it raises inherit
    // the id via the thread-local scope, and a slow unit's event carries
    // the same id — so a dump ties alert to shard.
    obs::CorrelationScope cscope(obs::NextCorrelationId());
    const auto t0 = std::chrono::steady_clock::now();
    results[i].alerts = filter_->Scan(streams[i], &results[i].stats);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (options_.slow_shard_seconds > 0 &&
        secs >= options_.slow_shard_seconds) {
      obs::RecordEvent(obs::EventKind::kSlowShard,
                       static_cast<int64_t>(streams[i].size()),
                       static_cast<int64_t>(i), "slow batch stream");
    }
  });
  uint64_t bytes = 0;
  for (const StreamResult& r : results) bytes += r.stats.bytes;
  metrics.batches->Increment();
  metrics.streams->Increment(streams.size());
  metrics.bytes->Increment(bytes);
  metrics.batch_streams->Observe(static_cast<double>(streams.size()));
  return results;
}

StreamResult ScanEngine::ScanStream(std::string_view stream) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedSpan span("nids.ScanStream");
  obs::ScopedTimer timer(metrics.batch_seconds);
  metrics.sharded_scans->Increment();
  metrics.bytes->Increment(stream.size());

  const tagger::TaggerOptions& topt = filter_->tagger().options().tagger;
  std::vector<size_t> starts{0};
  // Shard only when a cut is provably invisible: resync arm mode, at a
  // record separator that the tagger also treats as a delimiter (a record
  // byte that could be token content would make the cut itself lossy).
  if (topt.arm_mode == tagger::ArmMode::kResync &&
      !options_.record_delimiters.Empty() &&
      options_.record_delimiters.Minus(topt.delimiters).Empty()) {
    const size_t max_shards =
        options_.max_shards != 0
            ? options_.max_shards
            : 2 * static_cast<size_t>(pool_.num_threads());
    starts = core::ShardSplitPoints(stream, options_.record_delimiters,
                                    max_shards, options_.min_shard_bytes);
  }
  metrics.shards->Increment(starts.size());
  if (starts.size() == 1) {
    StreamResult result;
    result.alerts = filter_->Scan(stream, &result.stats);
    return result;
  }

  std::vector<StreamResult> shard(starts.size());
  pool_.RunIndexed(starts.size(), [&](size_t i) {
    obs::CorrelationScope cscope(obs::NextCorrelationId());
    const auto t0 = std::chrono::steady_clock::now();
    const size_t begin = starts[i];
    const size_t end = i + 1 < starts.size() ? starts[i + 1] : stream.size();
    shard[i].alerts =
        filter_->Scan(stream.substr(begin, end - begin), &shard[i].stats);
    for (Alert& a : shard[i].alerts) a.end += begin;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (options_.slow_shard_seconds > 0 &&
        secs >= options_.slow_shard_seconds) {
      obs::RecordEvent(obs::EventKind::kSlowShard,
                       static_cast<int64_t>(end - begin),
                       static_cast<int64_t>(i), "slow stream shard");
    }
  });

  // Shards cover disjoint increasing ranges and each shard's alerts are
  // already in stream order, so concatenation in shard order is the
  // sequential alert order.
  StreamResult merged;
  size_t total_alerts = 0;
  for (const StreamResult& s : shard) total_alerts += s.alerts.size();
  merged.alerts.reserve(total_alerts);
  for (StreamResult& s : shard) {
    merged.alerts.insert(merged.alerts.end(), s.alerts.begin(),
                         s.alerts.end());
    merged.stats.bytes += s.stats.bytes;
    merged.stats.tokens += s.stats.tokens;
    merged.stats.spans_scanned += s.stats.spans_scanned;
    merged.stats.alerts += s.stats.alerts;
  }
  return merged;
}

namespace {

namespace res = cfgtag::core::resilience;

// Per-unit lifecycle for the watchdog: only kRunning units can be stuck —
// a unit still queued behind a full pool makes no progress by design.
enum UnitState : int { kPending = 0, kRunning = 1, kDone = 2 };

}  // namespace

Status ScanEngine::RunControlled(size_t n,
                                 const res::ScanControl& control,
                                 const ControlledUnit& unit,
                                 const char* what) const {
  // The engine's own cancellations (watchdog) go through a child token so
  // the caller's token is never touched; units observe both.
  res::ScanControl eff = control;
  eff.cancel = control.cancel.Child();

  std::vector<Status> statuses(n);
  std::vector<std::atomic<uint64_t>> progress(n);
  std::vector<std::atomic<int>> state(n);
  std::vector<std::atomic<bool>> stuck(n);

  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_done = false;
  std::thread watchdog;
  if (options_.stuck_shard_seconds > 0) {
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
          if (state[i].load(std::memory_order_relaxed) != kRunning) {
            last_change[i] = now;
            continue;
          }
          const uint64_t p = progress[i].load(std::memory_order_relaxed);
          if (p != last_prog[i]) {
            last_prog[i] = p;
            last_change[i] = now;
            continue;
          }
          if (std::chrono::duration<double>(now - last_change[i]).count() >=
                  options_.stuck_shard_seconds &&
              !stuck[i].exchange(true, std::memory_order_relaxed)) {
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

  pool_.RunIndexed(n, [&](size_t i) {
    state[i].store(kRunning, std::memory_order_relaxed);
    res::FaultInjector::MaybeStall("engine.shard");
    statuses[i] = unit(i, eff, &progress[i]);
    state[i].store(kDone, std::memory_order_relaxed);
  });

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
    if (stuck[i].load(std::memory_order_relaxed)) {
      // The watchdog's verdict outranks whatever the cancelled unit
      // reported: the interesting fact is the stall, not the abort.
      statuses[i] = InternalError(
          "shard " + std::to_string(i) + " stuck: no progress for " +
          std::to_string(options_.stuck_shard_seconds) + "s at byte " +
          std::to_string(progress[i].load(std::memory_order_relaxed)));
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
        (stuck[i].load(std::memory_order_relaxed) &&
         primary.code() == StatusCode::kCancelled)) {
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
  results->assign(streams.size(), StreamResult{});
  const Status status = RunControlled(
      streams.size(), control,
      [&](size_t i, const res::ScanControl& eff,
          std::atomic<uint64_t>* progress) {
        obs::CorrelationScope cscope(obs::NextCorrelationId());
        const auto t0 = std::chrono::steady_clock::now();
        StreamResult& r = (*results)[i];
        const Status s =
            filter_->Scan(streams[i], eff, &r.alerts, &r.stats, progress);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (options_.slow_shard_seconds > 0 &&
            secs >= options_.slow_shard_seconds) {
          obs::RecordEvent(obs::EventKind::kSlowShard,
                           static_cast<int64_t>(streams[i].size()),
                           static_cast<int64_t>(i), "slow batch stream");
        }
        return s;
      },
      "ScanBatch");
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
  *result = StreamResult{};

  // Same sharding rules as the uncontrolled path: cut only where a fresh
  // tagger provably equals the streaming one.
  const tagger::TaggerOptions& topt = filter_->tagger().options().tagger;
  std::vector<size_t> starts{0};
  if (topt.arm_mode == tagger::ArmMode::kResync &&
      !options_.record_delimiters.Empty() &&
      options_.record_delimiters.Minus(topt.delimiters).Empty()) {
    const size_t max_shards =
        options_.max_shards != 0
            ? options_.max_shards
            : 2 * static_cast<size_t>(pool_.num_threads());
    starts = core::ShardSplitPoints(stream, options_.record_delimiters,
                                    max_shards, options_.min_shard_bytes);
  }
  metrics.shards->Increment(starts.size());
  if (starts.size() == 1) {
    const Status s =
        filter_->Scan(stream, control, &result->alerts, &result->stats);
    metrics.bytes->Increment(result->stats.bytes);
    if (s.ok()) return s;
    return s.WithContext("ScanStream");
  }

  std::vector<StreamResult> shard(starts.size());
  const Status status = RunControlled(
      starts.size(), control,
      [&](size_t i, const res::ScanControl& eff,
          std::atomic<uint64_t>* progress) {
        obs::CorrelationScope cscope(obs::NextCorrelationId());
        const auto t0 = std::chrono::steady_clock::now();
        const size_t begin = starts[i];
        const size_t end =
            i + 1 < starts.size() ? starts[i + 1] : stream.size();
        const Status s =
            filter_->Scan(stream.substr(begin, end - begin), eff,
                          &shard[i].alerts, &shard[i].stats, progress);
        for (Alert& a : shard[i].alerts) a.end += begin;
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (options_.slow_shard_seconds > 0 &&
            secs >= options_.slow_shard_seconds) {
          obs::RecordEvent(obs::EventKind::kSlowShard,
                           static_cast<int64_t>(end - begin),
                           static_cast<int64_t>(i), "slow stream shard");
        }
        return s;
      },
      "ScanStream");

  // Merge whatever each shard produced — on error this is the partial
  // result the controlled API promises (each shard's consumed prefix,
  // already rebased to absolute offsets).
  size_t total_alerts = 0;
  for (const StreamResult& s : shard) total_alerts += s.alerts.size();
  result->alerts.reserve(total_alerts);
  for (StreamResult& s : shard) {
    result->alerts.insert(result->alerts.end(), s.alerts.begin(),
                          s.alerts.end());
    result->stats.bytes += s.stats.bytes;
    result->stats.tokens += s.stats.tokens;
    result->stats.spans_scanned += s.stats.spans_scanned;
    result->stats.alerts += s.stats.alerts;
  }
  metrics.bytes->Increment(result->stats.bytes);
  return status;
}

}  // namespace cfgtag::nids
