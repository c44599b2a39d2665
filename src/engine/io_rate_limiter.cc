#include "engine/io_rate_limiter.h"

#include <algorithm>
#include <chrono>

namespace blsm::engine {

IoRateLimiter::IoRateLimiter(uint64_t bytes_per_second, Env* env,
                             uint64_t refill_period_micros, int fairness)
    : env_(env != nullptr ? env : Env::Default()),
      refill_period_micros_(std::max<uint64_t>(1, refill_period_micros)),
      fairness_(fairness) {
  util::MutexLock l(&mu_);
  rate_ = bytes_per_second;
  tokens_ = BurstBytesLocked();  // start with a full bucket
  last_refill_us_ = env_->NowMicros();
}

uint64_t IoRateLimiter::BurstBytesLocked() const {
  // One refill period's worth of bytes. Requests are capped at this, which
  // bounds the tokens any single grant needs and therefore every waiter's
  // worst-case wait.
  return std::max<uint64_t>(1, rate_ * refill_period_micros_ / 1000000);
}

void IoRateLimiter::RefillLocked() {
  if (rate_ == 0) return;
  uint64_t now = env_->NowMicros();
  if (now <= last_refill_us_) return;
  // Idle periods do not bank unbounded credit: anything older than one
  // second is forfeit (the bucket caps at burst size anyway).
  if (now - last_refill_us_ > 1000000) last_refill_us_ = now - 1000000;
  uint64_t elapsed = now - last_refill_us_;
  uint64_t added = rate_ * elapsed / 1000000;
  if (added == 0) return;  // keep sub-token time credited for the next call
  tokens_ = std::min(BurstBytesLocked(), tokens_ + added);
  // Advance the clock by exactly the time that produced `added` tokens, so
  // integer truncation never leaks rate.
  last_refill_us_ += added * 1000000 / rate_;
  if (last_refill_us_ > now) last_refill_us_ = now;
}

void IoRateLimiter::GrantLocked() {
  bool granted_any = false;
  for (;;) {
    if (rate_ == 0) {
      // Unlimited: release everyone.
      for (auto& queue : queues_) {
        for (Waiter* w : queue) w->granted = true;
        if (!queue.empty()) granted_any = true;
        queue.clear();
      }
      break;
    }
    // Highest priority first, except every fairness_-th grant offers the
    // head of the line to the lowest-priority non-empty queue. When that
    // head cannot be covered yet we break WITHOUT advancing grant_count_,
    // so the same queue stays first in line until tokens accumulate —
    // that head-of-line blocking is the starvation-freedom argument.
    int chosen = -1;
    bool low_first =
        fairness_ > 0 &&
        grant_count_ % static_cast<uint64_t>(fairness_) ==
            static_cast<uint64_t>(fairness_) - 1;
    if (low_first) {
      for (int p = kNumIoPriorities - 1; p >= 0; p--) {
        if (!queues_[p].empty()) {
          chosen = p;
          break;
        }
      }
    } else {
      for (int p = 0; p < kNumIoPriorities; p++) {
        if (!queues_[p].empty()) {
          chosen = p;
          break;
        }
      }
    }
    if (chosen < 0) break;
    Waiter* head = queues_[chosen].front();
    // A rate drop can shrink the burst below an already-queued request;
    // re-cap so the head stays satisfiable.
    head->bytes = std::min(head->bytes, BurstBytesLocked());
    if (head->bytes > tokens_) break;
    tokens_ -= head->bytes;
    head->granted = true;
    queues_[chosen].pop_front();
    grant_count_++;
    granted_any = true;
  }
  if (granted_any) cv_.NotifyAll();
}

void IoRateLimiter::Request(uint64_t bytes, IoPriority pri) {
  if (bytes == 0) return;
  int p = static_cast<int>(pri);
  requests_.fetch_add(1, std::memory_order_relaxed);

  util::MutexLock l(&mu_);
  if (rate_ == 0) {
    bytes_through_[p].fetch_add(bytes, std::memory_order_relaxed);
    return;
  }
  bytes = std::min(bytes, BurstBytesLocked());
  RefillLocked();
  bool queues_empty = true;
  for (const auto& queue : queues_) {
    if (!queue.empty()) {
      queues_empty = false;
      break;
    }
  }
  if (queues_empty && tokens_ >= bytes) {
    // Fast path: nobody waiting and tokens cover us.
    tokens_ -= bytes;
    bytes_through_[p].fetch_add(bytes, std::memory_order_relaxed);
    return;
  }

  uint64_t wait_start = env_->NowMicros();
  Waiter waiter{bytes};
  queues_[p].push_back(&waiter);
  while (!waiter.granted) {
    RefillLocked();
    GrantLocked();
    if (waiter.granted) break;
    // Timeout-poll, like every blocking wait in the engine layer: a missed
    // notification costs one refill period, never a hang.
    (void)cv_.WaitFor(&mu_, std::chrono::microseconds(refill_period_micros_));
  }
  bytes_through_[p].fetch_add(waiter.bytes, std::memory_order_relaxed);
  wait_micros_.fetch_add(env_->NowMicros() - wait_start,
                         std::memory_order_relaxed);
}

void IoRateLimiter::SetBytesPerSecond(uint64_t bytes_per_second) {
  util::MutexLock l(&mu_);
  rate_ = bytes_per_second;
  last_refill_us_ = env_->NowMicros();
  tokens_ = std::min(tokens_, BurstBytesLocked());
  GrantLocked();  // unlimited drains every queue; a raise may free heads
  cv_.NotifyAll();
}

uint64_t IoRateLimiter::bytes_per_second() const {
  util::MutexLock l(&mu_);
  return rate_;
}

// --- thread-local priority tag ---------------------------------------------

namespace {
thread_local int tls_io_priority = -1;
}  // namespace

ScopedIoPriority::ScopedIoPriority(IoPriority pri) : prev_(tls_io_priority) {
  tls_io_priority = static_cast<int>(pri);
}

ScopedIoPriority::~ScopedIoPriority() { tls_io_priority = prev_; }

int ScopedIoPriority::CurrentIndex() { return tls_io_priority; }

// --- rate-limited env -------------------------------------------------------

namespace {

class RateLimitedWritableFile final : public WritableFile {
 public:
  RateLimitedWritableFile(std::unique_ptr<WritableFile> base,
                          IoRateLimiter* limiter)
      : base_(std::move(base)), limiter_(limiter) {}

  Status Append(const Slice& data) override {
    int p = ScopedIoPriority::CurrentIndex();
    if (p >= 0) {
      limiter_->Request(data.size(), static_cast<IoPriority>(p));
    }
    return base_->Append(data);
  }
  Status AppendV(const Slice* parts, size_t n) override {
    int p = ScopedIoPriority::CurrentIndex();
    if (p >= 0) {
      uint64_t total = 0;
      for (size_t i = 0; i < n; i++) total += parts[i].size();
      limiter_->Request(total, static_cast<IoPriority>(p));
    }
    return base_->AppendV(parts, n);
  }
  size_t PreferredAppendAlignment() const override {
    return base_->PreferredAppendAlignment();
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  IoRateLimiter* limiter_;
};

}  // namespace

Status RateLimitedEnv::NewWritableFile(const std::string& fname,
                                       std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> file;
  Status s = base()->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<RateLimitedWritableFile>(std::move(file),
                                                      limiter_.get());
  return Status::OK();
}

}  // namespace blsm::engine
