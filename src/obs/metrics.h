#ifndef CFGTAG_OBS_METRICS_H_
#define CFGTAG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cfgtag::obs {

// Process-wide observability primitives. Everything here is thread-safe
// except HistogramTally: counters and gauges are lock-free atomics,
// histograms take one atomic add per bucket observation, and the registry
// locks only on first lookup of a metric name (instrumented call sites
// cache the returned pointer).
//
// Naming follows Prometheus conventions: `cfgtag_<area>_<what>_<unit>`,
// optional labels inline in the metric name, e.g.
// `cfgtag_compile_stage_seconds{stage="hwgen"}`. The registry treats the
// full string (labels included) as the key and splits it only for
// exposition, so a labelled family is simply several registered metrics
// sharing a base name.

// A monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that can go up and down (sizes, ratios, last-seen readings).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram with Prometheus `le` (less-or-equal) semantics:
// an observation v lands in the first bucket whose upper bound satisfies
// v <= bound; observations above every bound land only in the implicit
// +Inf bucket. Bounds must be strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  // The bucket `value` lands in: the first bound with value <= bound, or
  // bounds().size() (+Inf).
  size_t BucketIndex(double value) const;

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  // Non-cumulative count of bucket i (bounds().size() + 1 buckets; the
  // last is +Inf). Exposition applies the cumulative sum.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};

  friend class HistogramTally;
};

// A plain, single-thread tally of observations bound for one Histogram.
// A thread that observes many values (an engine worker's share of a run)
// keeps one and merges it once, instead of writing the shared histogram
// per value. Merge() adds one count per non-empty bucket, the total count
// and the sum, then empties the tally, so bucket counts and _count equal
// those of direct Observe() calls; _sum may differ by rounding. The
// buckets live inline (no heap), so the histogram may have at most
// kMaxBuckets buckets (every Default*Buckets() shape fits).
class HistogramTally {
 public:
  static constexpr size_t kMaxBuckets = 32;

  explicit HistogramTally(Histogram* target) : target_(target) {
    assert(target->bounds().size() < kMaxBuckets);
  }
  HistogramTally(const HistogramTally&) = delete;
  HistogramTally& operator=(const HistogramTally&) = delete;

  void Observe(double value) {
    ++buckets_[target_->BucketIndex(value)];
    ++count_;
    sum_ += value;
  }
  void Merge();

 private:
  Histogram* target_;
  std::array<uint64_t, kMaxBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Default buckets for operation latencies, in seconds: 1us .. 10s,
// decade-stepped with a 1-2.5-5 subdivision. Wide enough to cover both a
// sub-millisecond Tag() call and a multi-second Implement() flow.
const std::vector<double>& DefaultLatencyBuckets();

// Default buckets for byte/size distributions: 64 B .. 16 MiB.
const std::vector<double>& DefaultSizeBuckets();

// Default buckets for small-count distributions (batch sizes, shard
// counts, queue depths): 1 .. 4096, power-of-two stepped.
const std::vector<double>& DefaultCountBuckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates a metric. Pointers are stable for the registry's
  // lifetime; `help` is recorded on first creation only. It is a fatal
  // logic error to register the same name as two different metric kinds.
  Counter* GetCounter(const std::string& name, std::string_view help = "");
  Gauge* GetGauge(const std::string& name, std::string_view help = "");
  Histogram* GetHistogram(const std::string& name, std::string_view help = "",
                          const std::vector<double>& bounds =
                              DefaultLatencyBuckets());

  // Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
  // lines followed by samples; histograms expand to cumulative
  // `_bucket{le=...}` series plus `_sum` and `_count`.
  std::string ExpositionText() const;

  // The same content as JSON — the machine-readable trail benches append
  // to their BENCH_*.json outputs.
  std::string ToJson() const;

  // Drops every registered metric. Outstanding pointers become dangling;
  // only tests that own the registry should call this.
  void Clear();

  // The process-wide registry all built-in instrumentation writes to.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

// RAII latency timer: observes the elapsed wall time, in seconds, into a
// Histogram or a HistogramTally at scope exit. A null target disables the
// timer.
template <typename Target>
class ScopedTimer {
 public:
  explicit ScopedTimer(Target* target)
      : target_(target), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (target_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    target_->Observe(
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Target* target_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cfgtag::obs

#endif  // CFGTAG_OBS_METRICS_H_
