#ifndef CFGTAG_NIDS_SCAN_ENGINE_H_
#define CFGTAG_NIDS_SCAN_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <string_view>
#include <vector>

#include "core/resilience/deadline.h"
#include "core/worker_pool.h"
#include "nids/context_filter.h"

namespace cfgtag::nids {

struct ScanEngineOptions {
  // Worker threads in the engine's pool; <= 0 picks one per hardware
  // thread.
  int num_threads = 0;
  // ScanStream() will not cut shards smaller than this — below it the
  // per-shard session/merge overhead outweighs the parallelism.
  size_t min_shard_bytes = 1 << 16;
  // Upper bound on shards per ScanStream() call; 0 = 2x the worker count
  // (some slack over the thread count smooths out uneven shard costs).
  size_t max_shards = 0;
  // The stream's RECORD separator: the byte class that appears only
  // between complete, independent messages. ScanStream() cuts shards only
  // after one of these bytes. This must not be confused with the tagger's
  // token-delimiter set: at a mid-message token delimiter the streaming
  // tagger still carries the follow-set arms of the message in flight, so
  // cutting there would drop the rest of that message's tags. Every
  // record byte must also be a tagger delimiter; otherwise ScanStream()
  // refuses to shard and falls back to one sequential Scan().
  regex::CharClass record_delimiters = regex::CharClass::Of('\n');
  // A worker unit (one batch stream or one stream shard) slower than this
  // is flight-recorded as a kSlowShard event, tagged with the unit's
  // correlation id so its alerts can be tied back to it. <= 0 disables.
  double slow_shard_seconds = 0.25;
  // Chunked scans only: a *running* unit that makes no byte progress
  // for this long is declared stuck by the engine watchdog — the event is
  // recorded, every sibling shard is cancelled (via an internal child
  // token, never the caller's), and the batch fails with context naming
  // the shard, instead of the join blocking forever. Queued-but-unstarted
  // units are never flagged. Detection is cooperative: a shard wedged
  // *inside* one chunk is detected on time but the batch only completes
  // once that shard's thread yields back to a chunk boundary (or its
  // stall ends). <= 0 disables the watchdog. A control with
  // check_interval_bytes 0 has no heartbeat to watch, so the uncontrolled
  // ScanBatch/ScanStream never run one.
  double stuck_shard_seconds = 5.0;
};

// One stream's scan outcome: its alerts (stream-order, offsets absolute
// within that stream) and its ScanStats delta.
struct StreamResult {
  std::vector<Alert> alerts;
  ScanStats stats;
};

// Parallel batch-scan engine over one ContextFilter: a fixed worker pool
// (core::WorkerPool) fans independent streams — or delimiter-aligned
// shards of one large stream — out to workers, each of which runs the
// filter's streaming Scan() over its whole share on one held
// LazyDfaSession (a ScanSlot per worker, whose registry tallies merge
// once per run), and the results are merged back in deterministic stream
// order. Alerts are byte-identical
// to the sequential path: ScanBatch() by construction (results are keyed
// by stream index), ScanStream() because shards are cut only at resync
// record boundaries, where a fresh tagger state is exactly the streaming
// state.
//
// The filter must outlive the engine. All methods are thread-safe with
// respect to the filter (Scan() is const), but the engine itself expects
// one caller at a time per method invocation's result vectors.
class ScanEngine {
 public:
  explicit ScanEngine(const ContextFilter* filter,
                      const ScanEngineOptions& options = {});

  // Scans a batch of independent streams; result i belongs to stream i.
  // The controlled ScanBatch() under ScanControl::InertOneChunk(): no
  // watchdog, and the results are always complete.
  std::vector<StreamResult> ScanBatch(
      const std::vector<std::string_view>& streams) const;

  // Controlled batch scan: the deadline/cancel bundle is threaded into
  // every worker's filter scan (checked at chunk boundaries), and the
  // stuck-shard watchdog runs when enabled. On error, *results still
  // holds each stream's partial result (alerts valid for that stream's
  // consumed prefix) and the status context names every failing shard,
  // e.g. "ScanBatch: shard 1 DEADLINE_EXCEEDED; shard 3 INTERNAL"; one
  // kShardFailed flight-recorder event is recorded per failing shard.
  Status ScanBatch(const std::vector<std::string_view>& streams,
                   const core::resilience::ScanControl& control,
                   std::vector<StreamResult>* results) const;

  // Scans one large stream, sharding it at record boundaries (see
  // ScanEngineOptions::record_delimiters) when the filter's tagger runs
  // in resync arm mode — the mode in which a fresh tagger after a record
  // separator equals the streaming tagger. Non-resync filters, streams
  // too small to cut, and record separators that are not tagger
  // delimiters all fall back to one sequential Scan(). Like ScanBatch(),
  // the controlled twin under ScanControl::InertOneChunk().
  StreamResult ScanStream(std::string_view stream) const;

  // Controlled single-stream scan, sharded under the same rules. On error
  // *result holds the merged partial alerts of every shard's consumed
  // prefix (offsets rebased to the full stream) and the status context
  // names the failing shards.
  Status ScanStream(std::string_view stream,
                    const core::resilience::ScanControl& control,
                    StreamResult* result) const;

  int num_threads() const { return pool_.num_threads(); }
  const ContextFilter& filter() const { return *filter_; }

 private:
  // The one run behind all four entry points: scans units[i] into
  // (*results)[i] across the pool under `control`, runs the stuck-shard
  // watchdog when configured and the control has chunks to watch, and
  // aggregates per-unit statuses into one error naming every failing
  // unit. `what` labels the operation in statuses and events, `slow_what`
  // the slow-unit event.
  Status Run(const std::vector<std::string_view>& units,
             const core::resilience::ScanControl& control, const char* what,
             const char* slow_what, std::vector<StreamResult>* results) const;

  const ContextFilter* filter_;
  ScanEngineOptions options_;
  mutable core::WorkerPool pool_;
};

}  // namespace cfgtag::nids

#endif  // CFGTAG_NIDS_SCAN_ENGINE_H_
