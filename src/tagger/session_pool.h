#ifndef CFGTAG_TAGGER_SESSION_POOL_H_
#define CFGTAG_TAGGER_SESSION_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tagger/lazy_dfa.h"

namespace cfgtag::tagger {

// Thread-safe pool of reusable LazyDfaSessions. A session owns its
// transition cache and several buffers sized to the tagger; building them
// per scan dominates the cost of tagging short messages, so the hot paths
// (LazyDfaTagger::Run, core::CompiledTagger::Tag, the nids scan engine
// workers) check sessions out of a pool instead. Checked-in sessions keep
// their buffers and, when re-acquired for the same tagger, their cache —
// repeated scans run almost entirely out of cached transitions. Acquire()
// rebinds and resets them, so a returned session carries no stream state
// into its next use: early-stopped and half-fed sessions are safe to
// return as-is.
//
// Retention is bounded so a one-off burst of concurrent checkouts cannot
// pin scratch memory forever. The idle list never exceeds max_idle (a hard
// cap, adjustable per pool), and whenever the pool drains back to zero
// outstanding sessions it is trimmed to the high-water mark of the burst
// that just ended — so after a 100-way burst, the first steady
// single-threaded scan shrinks the pool to one retained session. Dropped
// sessions are freed after the pool lock is released and counted in
// sessions_dropped().
class LazyDfaSessionPool {
 public:
  static constexpr size_t kDefaultMaxIdle = 64;

  // RAII checkout: returns the session to the pool on destruction.
  class Handle {
   public:
    Handle() = default;
    Handle(LazyDfaSessionPool* pool, std::unique_ptr<LazyDfaSession> session)
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

    LazyDfaSession* operator->() const { return session_.get(); }
    LazyDfaSession& operator*() const { return *session_; }
    LazyDfaSession* get() const { return session_.get(); }

   private:
    void Release() {
      if (pool_ != nullptr && session_ != nullptr) {
        pool_->Return(std::move(session_));
      }
      pool_ = nullptr;
      session_.reset();
    }

    LazyDfaSessionPool* pool_ = nullptr;
    std::unique_ptr<LazyDfaSession> session_;
  };

  LazyDfaSessionPool() = default;
  LazyDfaSessionPool(const LazyDfaSessionPool&) = delete;
  LazyDfaSessionPool& operator=(const LazyDfaSessionPool&) = delete;

  // Checks out a session bound to `tagger`, reset to stream start. Reuses
  // an idle session when one exists (rebinding it if it was built for a
  // since-moved tagger); otherwise constructs a fresh one.
  Handle Acquire(const LazyDfaTagger* tagger);

  // Idle sessions retained will not exceed max(1, n) from the next Return.
  void set_max_idle(size_t n);

  // One-shot trim: drops idle sessions until at most `keep` remain, right
  // now, counting them in sessions_dropped(). Unlike set_max_idle this is
  // not a standing cap — the pool may grow past `keep` again afterwards.
  // Safe concurrently with Acquire/Return.
  void TrimIdle(size_t keep);

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
    std::lock_guard<std::mutex> lock(mu_);
    return created_;
  }
  uint64_t sessions_reused() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reused_;
  }
  uint64_t sessions_dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  using Sessions = std::vector<std::unique_ptr<LazyDfaSession>>;

  void Return(std::unique_ptr<LazyDfaSession> session);

  // The one drop path. Called with mu_ held through `lock` and `victims`
  // already off the idle list: counts them and sets the idle gauge, then
  // releases the lock before freeing them (a session can own up to
  // dfa_cache_bytes of cache) and reporting the drop under `why`.
  void DropAndUnlock(std::unique_lock<std::mutex>& lock, Sessions victims,
                     const char* why);

  mutable std::mutex mu_;
  Sessions idle_;
  size_t outstanding_ = 0;
  size_t high_water_ = 0;  // lifetime peak (accessor/observability)
  size_t burst_high_ = 0;  // peak of the burst in flight; reset on drain
  size_t max_idle_ = kDefaultMaxIdle;
  uint64_t created_ = 0;
  uint64_t reused_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_SESSION_POOL_H_
