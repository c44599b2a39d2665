#include "engine/background_runner.h"

#include <algorithm>
#include <chrono>

namespace blsm::engine {

namespace {
// All blocking waits in the runner are timeout-polls: a missed notification
// costs at most one poll interval, never a hang, which keeps the
// notify-outside-lock patterns in the engines safe.
constexpr auto kPollInterval = std::chrono::milliseconds(20);
}  // namespace

BackgroundRunner::BackgroundRunner(Env* env, const BackgroundPolicy& policy)
    : env_(env), policy_(policy) {}

BackgroundRunner::~BackgroundRunner() { Stop(); }

void BackgroundRunner::AddJob(JobSpec spec) {
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  jobs_.push_back(std::move(job));
}

void BackgroundRunner::Start() {
  util::MutexLock l(&mu_);
  if (started_) return;
  started_ = true;
  for (auto& job : jobs_) {
    job->thread = std::thread(&BackgroundRunner::WorkerLoop, this, job.get());
  }
}

void BackgroundRunner::Stop() {
  shutdown_.store(true, std::memory_order_relaxed);
  {
    util::MutexLock l(&mu_);
    work_cv_.NotifyAll();
    idle_cv_.NotifyAll();
  }
  for (auto& job : jobs_) {
    if (job->thread.joinable()) job->thread.join();
  }
}

void BackgroundRunner::Notify() {
  util::MutexLock l(&mu_);
  work_cv_.NotifyAll();
}

Status BackgroundRunner::BackgroundError() const {
  util::MutexLock l(&mu_);
  return bg_error_;
}

void BackgroundRunner::SetBackgroundError(const Status& s) {
  if (s.ok()) return;
  util::MutexLock l(&mu_);
  if (bg_error_.ok()) bg_error_ = s;
  idle_cv_.NotifyAll();
}

void BackgroundRunner::Heal() {
  util::MutexLock l(&mu_);
  bg_error_ = Status::OK();
  work_cv_.NotifyAll();
  idle_cv_.NotifyAll();
}

bool BackgroundRunner::Running(const std::string& name) const {
  for (const auto& job : jobs_) {
    if (job->spec.name == name) {
      return job->running.load(std::memory_order_acquire);
    }
  }
  return false;
}

bool BackgroundRunner::AnyRunning() const {
  for (const auto& job : jobs_) {
    if (job->running.load(std::memory_order_acquire)) return true;
  }
  return false;
}

Status BackgroundRunner::WaitUntil(const std::function<bool()>& done) {
  for (;;) {
    if (shutdown_.load(std::memory_order_relaxed)) {
      return Status::Busy("shutting down");
    }
    {
      util::MutexLock l(&mu_);
      if (!bg_error_.ok()) return bg_error_;
      work_cv_.NotifyAll();
    }
    // The predicate may take engine locks; evaluate it outside mu_.
    if (done()) return Status::OK();
    util::MutexLock l(&mu_);
    idle_cv_.WaitFor(&mu_, kPollInterval);
  }
}

void BackgroundRunner::WaitIdle() {
  WaitUntil([this] {
    if (AnyRunning()) return false;
    for (const auto& job : jobs_) {
      if (job->spec.pending && job->spec.pending()) return false;
    }
    return true;
  }).IgnoreError("WaitIdle is void by contract; a latched error also ends "
                 "the wait and stays visible through BackgroundError()");
}

void BackgroundRunner::WorkerLoop(Job* job) {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    // Paused while an error is latched: Heal() resumes us.
    {
      util::MutexLock l(&mu_);
      if (!bg_error_.ok()) {
        work_cv_.WaitFor(&mu_, kPollInterval);
        continue;
      }
    }
    // pending() takes engine locks — never call it holding mu_.
    if (!job->spec.pending()) {
      util::MutexLock l(&mu_);
      idle_cv_.NotifyAll();
      work_cv_.WaitFor(&mu_, kPollInterval);
      continue;
    }

    job->running.store(true, std::memory_order_release);
    Status s = RunWithRetry(job);
    {
      util::MutexLock l(&mu_);
      if (!s.ok() && !shutdown_.load(std::memory_order_relaxed) &&
          bg_error_.ok()) {
        bg_error_ = s;
      }
      // Pass counters advance even for failed passes: waiters keyed on pass
      // counts must not deadlock against an errored background job.
      if (job->spec.passes != nullptr) {
        job->spec.passes->fetch_add(1, std::memory_order_relaxed);
      }
      job->running.store(false, std::memory_order_release);
      idle_cv_.NotifyAll();
    }
  }
}

Status BackgroundRunner::RunWithRetry(Job* job) {
  Status s = job->spec.run();
  int attempt = 0;
  while (!s.ok() && s.IsTransient() &&
         !shutdown_.load(std::memory_order_relaxed) &&
         attempt < policy_.max_background_retries) {
    if (job->spec.retries != nullptr) {
      job->spec.retries->fetch_add(1, std::memory_order_relaxed);
    }
    BackoffWait(attempt++);
    if (shutdown_.load(std::memory_order_relaxed)) break;
    s = job->spec.run();
  }
  return s;
}

void BackgroundRunner::BackoffWait(int attempt) {
  uint64_t micros = policy_.retry_backoff_base_micros;
  for (int i = 0; i < attempt && micros < policy_.retry_backoff_max_micros;
       i++) {
    micros <<= 1;
  }
  micros = std::min(micros, policy_.retry_backoff_max_micros);
  // Sleep in slices so shutdown never waits out a long backoff.
  while (micros > 0 && !shutdown_.load(std::memory_order_relaxed)) {
    uint64_t slice = std::min<uint64_t>(micros, 1000);
    env_->SleepForMicroseconds(slice);
    micros -= slice;
  }
}

}  // namespace blsm::engine
