#include "tagger/session_pool.h"

#include <algorithm>

#include "core/resilience/budget.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace cfgtag::tagger {
namespace {

// Process-wide pool accounting. Pools are per-tagger, so the gauge holds
// the last-updated pool's reading; the counter aggregates across pools.
struct PoolMetrics {
  obs::Gauge* idle;
  obs::Counter* dropped;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics kMetrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return PoolMetrics{
        reg.GetGauge("cfgtag_session_pool_idle_sessions",
                     "Idle sessions retained by the last-touched pool"),
        reg.GetCounter("cfgtag_session_pool_dropped_total",
                       "Sessions freed by the pool retention cap")};
  }();
  return kMetrics;
}

}  // namespace

LazyDfaSessionPool::Handle LazyDfaSessionPool::Acquire(
    const LazyDfaTagger* tagger) {
  std::unique_ptr<LazyDfaSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    high_water_ = std::max(high_water_, outstanding_);
    burst_high_ = std::max(burst_high_, outstanding_);
    if (idle_.empty()) {
      ++created_;
    } else {
      ++reused_;
      session = std::move(idle_.back());
      idle_.pop_back();
    }
    Metrics().idle->Set(static_cast<double>(idle_.size()));
  }
  if (session == nullptr) {
    session = std::make_unique<LazyDfaSession>(tagger);
  } else {
    session->Rebind(tagger);
  }
  return Handle(this, std::move(session));
}

void LazyDfaSessionPool::set_max_idle(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_idle_ = std::max<size_t>(1, n);
}

void LazyDfaSessionPool::TrimIdle(size_t keep) {
  std::unique_lock<std::mutex> lock(mu_);
  Sessions victims;
  while (idle_.size() > keep) {
    victims.push_back(std::move(idle_.back()));
    idle_.pop_back();
  }
  DropAndUnlock(lock, std::move(victims), "session pool TrimIdle");
}

void LazyDfaSessionPool::Return(std::unique_ptr<LazyDfaSession> session) {
  // Budget pressure (kTrimPools rung): read the flag before taking the
  // pool lock and trim after releasing it — TrimIdle relocks, and the
  // trim is a best-effort shed, not part of the return itself.
  const bool trim_for_pressure =
      core::resilience::ResourceBudget::Process().ShouldTrimPools();
  std::unique_lock<std::mutex> lock(mu_);
  if (outstanding_ > 0) --outstanding_;
  Sessions victims;
  if (idle_.size() < max_idle_) {
    idle_.push_back(std::move(session));
  } else {
    victims.push_back(std::move(session));
  }
  // High-water-mark trim: once the burst that grew the pool has fully
  // drained, keep only as much idle scratch as that burst's peak
  // concurrency — the next burst's peak starts being tracked afresh, so
  // a later, smaller workload shrinks the pool further.
  if (outstanding_ == 0) {
    const size_t bound = std::max<size_t>(1, burst_high_);
    while (idle_.size() > bound) {
      victims.push_back(std::move(idle_.back()));
      idle_.pop_back();
    }
    burst_high_ = 0;
  }
  DropAndUnlock(lock, std::move(victims), "session pool retention cap");
  if (trim_for_pressure) TrimIdle(1);
}

void LazyDfaSessionPool::DropAndUnlock(std::unique_lock<std::mutex>& lock,
                                       Sessions victims, const char* why) {
  const size_t idle = idle_.size();
  dropped_ += victims.size();
  Metrics().idle->Set(static_cast<double>(idle));
  lock.unlock();
  if (victims.empty()) return;
  const size_t freed = victims.size();
  victims.clear();
  Metrics().dropped->Increment(freed);
  obs::RecordEvent(obs::EventKind::kSessionPoolDrop,
                   static_cast<int64_t>(freed), static_cast<int64_t>(idle),
                   why);
}

}  // namespace cfgtag::tagger
