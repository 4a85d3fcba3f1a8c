#ifndef CFGTAG_TAGGER_SESSION_POOL_H_
#define CFGTAG_TAGGER_SESSION_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/resilience/budget.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "tagger/functional_model.h"

namespace cfgtag::tagger {

// Thread-safe pool of reusable tagging-session scratch state, generic over
// the (tagger, session) pair — LazyDfaSessionPool pools the production
// engine's LazyDfaSessions and SessionPool pools the reference model's
// TaggerSessions. A session owns several vectors sized to the tagger;
// allocating them per scan dominates the cost of tagging short messages,
// so the hot paths (the taggers' Run, core::CompiledTagger::Tag, the nids
// scan engine workers) check sessions out of a pool instead.
// Checked-in sessions keep their buffers; Acquire() rebinds and resets
// them, so a returned session carries no state into its next use —
// early-stopped and half-fed sessions are safe to return as-is.
//
// Retention is bounded so a one-off burst of concurrent checkouts cannot
// pin scratch memory forever. The idle list never exceeds max_idle (a hard
// cap, adjustable per pool), and whenever the pool drains back to zero
// outstanding sessions it is trimmed to the high-water mark of the burst
// that just ended — so after a 100-way burst, the first steady
// single-threaded scan shrinks the pool to one retained session. Dropped
// sessions are freed on the spot and counted in sessions_dropped().
//
// Session requirements: constructible from `const Tagger*` and
// `Rebind(const Tagger*)` re-targeting it without reallocating when the
// buffer shapes match.
template <typename Tagger, typename Session>
class BasicSessionPool {
 public:
  static constexpr size_t kDefaultMaxIdle = 64;

  // RAII checkout: returns the session to the pool on destruction.
  class Handle {
   public:
    Handle() = default;
    Handle(BasicSessionPool* pool, std::unique_ptr<Session> session)
        : pool_(pool), session_(std::move(session)) {}
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept
        : pool_(other.pool_), session_(std::move(other.session_)) {
      other.pool_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        session_ = std::move(other.session_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    Session* operator->() const { return session_.get(); }
    Session& operator*() const { return *session_; }
    Session* get() const { return session_.get(); }

   private:
    void Release() {
      if (pool_ != nullptr && session_ != nullptr) {
        pool_->Return(std::move(session_));
      }
      pool_ = nullptr;
      session_.reset();
    }

    BasicSessionPool* pool_ = nullptr;
    std::unique_ptr<Session> session_;
  };

  BasicSessionPool() = default;
  BasicSessionPool(const BasicSessionPool&) = delete;
  BasicSessionPool& operator=(const BasicSessionPool&) = delete;

  // Checks out a session bound to `tagger`, reset to stream start. Reuses
  // an idle session when one exists (rebinding it if it was built for a
  // since-moved tagger — buffer shapes are preserved across moves, so the
  // rebind is allocation-free); otherwise constructs a fresh one.
  Handle Acquire(const Tagger* tagger) {
    std::unique_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
      high_water_ = std::max(high_water_, outstanding_);
      burst_high_ = std::max(burst_high_, outstanding_);
      if (!idle_.empty()) {
        session = std::move(idle_.back());
        idle_.pop_back();
      }
      PoolMetrics().idle->Set(static_cast<double>(idle_.size()));
    }
    if (session == nullptr) {
      created_.fetch_add(1, std::memory_order_relaxed);
      session = std::make_unique<Session>(tagger);
    } else {
      reused_.fetch_add(1, std::memory_order_relaxed);
      session->Rebind(tagger);
    }
    return Handle(this, std::move(session));
  }

  // Idle sessions retained will not exceed max(1, n) from the next Return.
  void set_max_idle(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    max_idle_ = std::max<size_t>(1, n);
  }

  // One-shot trim: drops idle sessions until at most `keep` remain, right
  // now, counting them in sessions_dropped(). Unlike set_max_idle this is
  // not a standing cap — the pool may grow past `keep` again afterwards.
  // Safe concurrently with Acquire/Return; the freed sessions are
  // destroyed outside the pool lock.
  void TrimIdle(size_t keep) {
    std::vector<std::unique_ptr<Session>> victims;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (idle_.size() > keep) {
        victims.push_back(std::move(idle_.back()));
        idle_.pop_back();
      }
      PoolMetrics().idle->Set(static_cast<double>(idle_.size()));
    }
    if (!victims.empty()) {
      dropped_.fetch_add(victims.size(), std::memory_order_relaxed);
      PoolMetrics().dropped->Increment(victims.size());
      obs::RecordEvent(obs::EventKind::kSessionPoolDrop,
                       static_cast<int64_t>(victims.size()),
                       static_cast<int64_t>(keep), "session pool TrimIdle");
    }
  }

  size_t IdleCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_.size();
  }
  // Peak number of concurrently checked-out sessions.
  size_t HighWater() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  uint64_t sessions_created() const {
    return created_.load(std::memory_order_relaxed);
  }
  uint64_t sessions_reused() const {
    return reused_.load(std::memory_order_relaxed);
  }
  uint64_t sessions_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class Handle;

  // Process-wide pool accounting. Pools are per-tagger, so the gauge holds
  // the last-updated pool's reading; the counter aggregates across pools.
  struct Metrics {
    obs::Gauge* idle;
    obs::Counter* dropped;
  };
  static const Metrics& PoolMetrics() {
    static const Metrics kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return Metrics{
          reg.GetGauge("cfgtag_session_pool_idle_sessions",
                       "Idle sessions retained by the last-touched pool"),
          reg.GetCounter("cfgtag_session_pool_dropped_total",
                         "Sessions freed by the pool retention cap")};
    }();
    return kMetrics;
  }

  void Return(std::unique_ptr<Session> session) {
    // Budget pressure (kTrimPools rung): read the flag before taking the
    // pool lock and trim after releasing it — TrimIdle relocks, and the
    // trim is a best-effort shed, not part of the return itself.
    const bool trim_for_pressure =
        core::resilience::ResourceBudget::Process().ShouldTrimPools();
    ReturnToIdle(std::move(session));
    if (trim_for_pressure) TrimIdle(1);
  }

  void ReturnToIdle(std::unique_ptr<Session> session) {
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_ > 0) --outstanding_;
    size_t freed = 0;
    if (idle_.size() < max_idle_) {
      idle_.push_back(std::move(session));
    } else {
      session.reset();
      ++freed;
    }
    // High-water-mark trim: once the burst that grew the pool has fully
    // drained, keep only as much idle scratch as that burst's peak
    // concurrency — the next burst's peak starts being tracked afresh, so
    // a later, smaller workload shrinks the pool further.
    if (outstanding_ == 0) {
      const size_t bound = std::max<size_t>(1, burst_high_);
      while (idle_.size() > bound) {
        idle_.pop_back();
        ++freed;
      }
      burst_high_ = 0;
    }
    if (freed > 0) {
      dropped_.fetch_add(freed, std::memory_order_relaxed);
      PoolMetrics().dropped->Increment(freed);
      obs::RecordEvent(obs::EventKind::kSessionPoolDrop,
                       static_cast<int64_t>(freed),
                       static_cast<int64_t>(idle_.size()),
                       "session pool retention cap");
    }
    PoolMetrics().idle->Set(static_cast<double>(idle_.size()));
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Session>> idle_;
  size_t outstanding_ = 0;
  size_t high_water_ = 0;  // lifetime peak (accessor/observability)
  size_t burst_high_ = 0;  // peak of the burst in flight; reset on drain
  size_t max_idle_ = kDefaultMaxIdle;
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> reused_{0};
  std::atomic<uint64_t> dropped_{0};
};

// The functional reference model's pool (the original SessionPool name —
// call sites and the FunctionalTagger forward declaration predate the
// template).
class SessionPool final
    : public BasicSessionPool<FunctionalTagger, TaggerSession> {};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_SESSION_POOL_H_
