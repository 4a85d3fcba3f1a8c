#include "core/worker_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cfgtag::core {

namespace {

struct PoolMetrics {
  obs::Gauge* threads;
  obs::Counter* tasks;
  obs::Histogram* task_seconds;

  static const PoolMetrics& Get() {
    static const PoolMetrics* const kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new PoolMetrics;
      m->threads = reg.GetGauge("cfgtag_engine_threads",
                                "Worker threads in the last-built pool");
      m->tasks = reg.GetCounter("cfgtag_engine_tasks_total",
                                "Indices run by RunIndexed");
      m->task_seconds = reg.GetHistogram(
          "cfgtag_engine_task_seconds",
          "Per-index wall time in RunIndexed (busy time)");
      return m;
    }();
    return *kMetrics;
  }

  // Runs fn(slot, i) for `first` and each later index `claim` hands out
  // below `count`, tallying the tasks and their wall times privately and
  // folding the tally into the registry once, at the end of the share.
  template <typename Claim>
  void RunShare(const WorkerPool::IndexedFn& fn, size_t slot, size_t first,
                size_t count, Claim claim) const {
    uint64_t ran = 0;
    obs::HistogramTally seconds(task_seconds);
    for (size_t i = first; i < count; i = claim()) {
      obs::ScopedTimer timer(&seconds);
      fn(slot, i);
      ++ran;
    }
    tasks->Increment(ran);
    seconds.Merge();
  }
};

}  // namespace

WorkerPool::WorkerPool(int num_threads) {
  int n = num_threads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  PoolMetrics::Get().threads->Set(static_cast<double>(n));
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::RunIndexed(size_t count, const IndexedFn& fn) {
  if (count <= 1 || threads_.size() <= 1) {
    size_t next = 1;
    PoolMetrics::Get().RunShare(fn, 0, 0, count, [&] { return next++; });
    return;
  }
  std::lock_guard<std::mutex> run(run_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  count_ = count;
  next_.store(0);
  next_slot_.store(0);
  busy_ = threads_.size();
  ++run_id_;
  work_cv_.notify_all();
  // Every worker checks in under mu_ after its last index, so the wait
  // also orders all of fn's writes before the return.
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  const PoolMetrics& metrics = PoolMetrics::Get();
  uint64_t done_id = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || run_id_ != done_id; });
    if (shutdown_) return;
    done_id = run_id_;
    const IndexedFn& fn = *fn_;
    const size_t count = count_;
    lock.unlock();
    const size_t first = next_++;
    if (first < count) {
      metrics.RunShare(fn, next_slot_++, first, count,
                       [this] { return next_++; });
    }
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

bool RecordShardingIsExact(const tagger::TaggerOptions& options,
                           const regex::CharClass& record_delimiters) {
  return options.arm_mode == tagger::ArmMode::kResync &&
         !record_delimiters.Empty() &&
         record_delimiters.Minus(options.delimiters).Empty();
}

std::vector<size_t> ShardSplitPoints(std::string_view stream,
                                     const regex::CharClass& record_delimiters,
                                     size_t max_shards,
                                     size_t min_shard_bytes) {
  std::vector<size_t> starts{0};
  const size_t min_bytes = std::max<size_t>(min_shard_bytes, 1);
  if (max_shards <= 1 || stream.size() < 2 * min_bytes) return starts;
  const size_t target = std::max(min_bytes, stream.size() / max_shards);
  while (starts.size() < max_shards) {
    size_t probe = starts.back() + target;
    if (probe >= stream.size()) break;
    while (probe < stream.size() &&
           !record_delimiters.Test(
               static_cast<unsigned char>(stream[probe]))) {
      ++probe;
    }
    // The shard begins on the byte after the separator; a boundary at the
    // very end would create an empty shard, so stop instead.
    if (probe + 1 >= stream.size()) break;
    starts.push_back(probe + 1);
  }
  return starts;
}

}  // namespace cfgtag::core
