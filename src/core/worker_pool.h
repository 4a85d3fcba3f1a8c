#ifndef CFGTAG_CORE_WORKER_POOL_H_
#define CFGTAG_CORE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "regex/char_class.h"
#include "tagger/tag.h"

namespace cfgtag::core {

// Fixed-size fork-join pool behind the parallel scan paths
// (nids::ScanEngine, cfgtagc --threads). Workers are spawned once and park
// between runs; a run publishes (fn, count), wakes them once, and they
// claim guided blocks of indices from one atomic counter: each claim is
// one compare-and-swap for max(1, remaining / (4 x workers)) indices, so
// early blocks are large (the counter and neighbouring result entries do
// not bounce between cores on every index) and the last ones are single
// indices (a slow index at the end still leaves the other workers the
// rest). Every index is one task in the cfgtag_engine_* metrics, so
// worker utilization is visible in the same registry as the scan
// counters; each worker tallies its tasks privately, timing each from
// the clock reading that ended the one before, and folds the tally into
// the registry once, when its share of the run is done.
class WorkerPool {
 public:
  // num_threads <= 0 picks one worker per hardware thread.
  explicit WorkerPool(int num_threads = 0);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Runs fn(slot, 0), ..., fn(slot, count-1) across the workers and
  // returns once every call has completed; every write fn made
  // happens-before the return. `slot` names the worker running the call:
  // each worker that claims an index takes the next free slot for the
  // rest of the run, so slots lie in [0, min(count, num_threads())) and
  // calls with the same slot never overlap — fn may keep per-slot scratch
  // (a held session, a metrics tally) without locking. Callers key
  // results by index, so the output is deterministic regardless of which
  // worker ran which index. A one-worker pool, and a count <= 1, run
  // inline on the calling thread as slot 0. Concurrent callers run one
  // after another. Not reentrant: fn must not call RunIndexed on the same
  // pool.
  using IndexedFn = std::function<void(size_t slot, size_t index)>;
  void RunIndexed(size_t count, const IndexedFn& fn);

 private:
  void WorkerLoop();
  // Claims the next guided block [*begin, *end) of a run over `count`
  // indices; false once every index is claimed.
  bool ClaimBlock(size_t count, size_t* begin, size_t* end);

  std::mutex run_mu_;  // held by the one RunIndexed call in flight
  std::mutex mu_;  // guards everything below except next_, next_slot_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const IndexedFn* fn_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> next_slot_{0};
  uint64_t run_id_ = 0;
  size_t busy_ = 0;  // workers not yet finished with run run_id_
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// True when a stream may be cut at `record_delimiters` bytes and each
// piece tagged by a fresh tagger with `options`, with the tags unchanged:
// resync arm mode, a non-empty record class, and every record byte a
// tagger delimiter (a record byte that could be token content would make
// the cut itself lossy). nids::ScanEngine and cfgtagc --threads shard
// only when this holds.
bool RecordShardingIsExact(const tagger::TaggerOptions& options,
                           const regex::CharClass& record_delimiters);

// Plans a record-aligned sharding of `stream` for parallel scanning:
// returns shard start offsets, first always 0, at most `max_shards` of
// them, each shard at least roughly `min_shard_bytes` long. Every shard
// after the first starts on the byte following a `record_delimiters` byte.
//
// `record_delimiters` must be the stream's RECORD separator (the byte
// class that appears only between complete messages, e.g. '\n' for
// line-framed protocols) — NOT the tagger's full token-delimiter set. A
// resync-mode tagger started fresh after a record separator sees exactly
// the state a streaming tagger would carry there (start tokens armed, no
// pending follow-set arms). At an arbitrary token delimiter that is not
// true: the streaming tagger still holds the follow-set arms of the
// message in flight, so a fresh tagger would drop every remaining token
// of that message. Returns {0} (no split) when the stream is too small or
// no separator is found.
std::vector<size_t> ShardSplitPoints(std::string_view stream,
                                     const regex::CharClass& record_delimiters,
                                     size_t max_shards,
                                     size_t min_shard_bytes);

}  // namespace cfgtag::core

#endif  // CFGTAG_CORE_WORKER_POOL_H_
