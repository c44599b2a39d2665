#ifndef BLSM_ENGINE_IO_RATE_LIMITER_H_
#define BLSM_ENGINE_IO_RATE_LIMITER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "io/env.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm::engine {

// Priority classes for background write I/O, highest first. The ordering
// encodes what unblocks stalled writers soonest: a memtable flush frees C0
// (or the multilevel memtable) directly, the C0:C1 merge drains the spring,
// and the C1':C2 merge / deep compaction only relieves pressure transitively.
enum class IoPriority : int {
  kFlush = 0,       // memtable flush — unblocks stalled writers directly
  kMerge1 = 1,      // C0:C1 merge
  kCompaction = 2,  // C1':C2 merge, level compaction — lowest
};
inline constexpr int kNumIoPriorities = 3;

// A token-bucket rate limiter shared by the background writers of every open
// tree, turning the per-tree spring-and-gear pacing into one global I/O
// arbiter (the role mergeScheduler plays in the original bLSM: many trees,
// one disk). Callers block in Request() until their bytes are covered by
// accumulated tokens.
//
// Grant policy: the highest-priority non-empty queue is served first, except
// that every `fairness`-th grant offers the *lowest*-priority non-empty
// queue the head of the line, so a steady stream of flushes cannot starve
// compaction forever. Within a queue, strict FIFO with head-of-line
// blocking: a head too large for the current tokens parks the whole queue
// until tokens accumulate (they always do — requests are capped at one
// refill period's worth of bytes), which is what makes every waiter's wait
// finite.
//
// bytes_per_second == 0 means unlimited: requests pass through uncounted
// against tokens (but still counted in the stats).
class IoRateLimiter {
 public:
  // `env` supplies the clock (nullptr -> Env::Default()). `refill_period
  // _micros` bounds both the burst size (one period's worth of bytes) and
  // the waiters' poll timeout.
  explicit IoRateLimiter(uint64_t bytes_per_second, Env* env = nullptr,
                         uint64_t refill_period_micros = 100 * 1000,
                         int fairness = 8);
  IoRateLimiter(const IoRateLimiter&) = delete;
  IoRateLimiter& operator=(const IoRateLimiter&) = delete;

  // Blocks until `bytes` tokens are granted (or the limiter is switched to
  // unlimited). Requests larger than one refill period's worth are charged
  // at that cap, so no single request can wait longer than ~one period per
  // queue position.
  void Request(uint64_t bytes, IoPriority pri) EXCLUDES(mu_);

  // 0 = unlimited; switching to unlimited releases every queued waiter.
  void SetBytesPerSecond(uint64_t bytes_per_second) EXCLUDES(mu_);
  uint64_t bytes_per_second() const EXCLUDES(mu_);

  uint64_t BytesThrough(IoPriority pri) const {
    return bytes_through_[static_cast<int>(pri)].load(
        std::memory_order_relaxed);
  }
  uint64_t TotalBytesThrough() const {
    uint64_t total = 0;
    for (const auto& b : bytes_through_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t TotalRequests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Cumulative time callers spent blocked in Request().
  uint64_t TotalWaitMicros() const {
    return wait_micros_.load(std::memory_order_relaxed);
  }

 private:
  struct Waiter {
    uint64_t bytes;
    bool granted = false;
  };

  void RefillLocked() REQUIRES(mu_);
  // Serves queue heads while tokens last; releases everyone when unlimited.
  void GrantLocked() REQUIRES(mu_);
  uint64_t BurstBytesLocked() const REQUIRES(mu_);

  Env* env_;
  const uint64_t refill_period_micros_;
  const int fairness_;

  mutable util::Mutex mu_{util::lock_rank::kIoRateLimiterMu};
  util::CondVar cv_;
  uint64_t rate_ GUARDED_BY(mu_);
  uint64_t tokens_ GUARDED_BY(mu_);
  uint64_t last_refill_us_ GUARDED_BY(mu_);
  uint64_t grant_count_ GUARDED_BY(mu_) = 0;
  std::deque<Waiter*> queues_[kNumIoPriorities] GUARDED_BY(mu_);

  std::atomic<uint64_t> bytes_through_[kNumIoPriorities] = {};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> wait_micros_{0};
};

// RAII tag marking the calling thread's background I/O priority. The
// RateLimitedEnv charges writes only on tagged threads, so foreground work
// (WAL appends, user-facing manifest writes) passes through unmetered while
// everything a BackgroundRunner job writes draws from the shared budget.
// Nests: an inner scope (e.g. a memtable flush inside a compaction pass)
// overrides and then restores the outer tag.
class ScopedIoPriority {
 public:
  explicit ScopedIoPriority(IoPriority pri);
  ~ScopedIoPriority();
  ScopedIoPriority(const ScopedIoPriority&) = delete;
  ScopedIoPriority& operator=(const ScopedIoPriority&) = delete;

  // The calling thread's current priority index, or -1 when untagged.
  static int CurrentIndex();

 private:
  int prev_;
};

// Env decorator that wraps writable files so that appends issued by an
// I/O-priority-tagged thread first acquire tokens from the shared limiter;
// every other call goes straight to the base Env. Reads are not metered —
// the paper's robustness concern is merge *write* bandwidth crowding out
// foreground work.
class RateLimitedEnv final : public EnvWrapper {
 public:
  RateLimitedEnv(Env* base, std::shared_ptr<IoRateLimiter> limiter)
      : EnvWrapper(base), limiter_(std::move(limiter)) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;

  IoRateLimiter* limiter() { return limiter_.get(); }

 private:
  std::shared_ptr<IoRateLimiter> limiter_;
};

}  // namespace blsm::engine

#endif  // BLSM_ENGINE_IO_RATE_LIMITER_H_
