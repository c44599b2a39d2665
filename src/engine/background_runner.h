#ifndef BLSM_ENGINE_BACKGROUND_RUNNER_H_
#define BLSM_ENGINE_BACKGROUND_RUNNER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace blsm::engine {

// Bounded fan-out for the parallel stretches inside one background pass:
// compaction output-file builds, one whole file per task. A fixed crew of
// worker threads consumes a FIFO queue; Submit blocks once
// queued + running == max_concurrency (backpressure). After any task fails,
// Submit fails fast with the first error and drops the new task; Drain
// waits everything out and returns that first error.
class TaskPipeline {
 public:
  explicit TaskPipeline(int max_concurrency);
  ~TaskPipeline();  // drains, then joins the workers
  TaskPipeline(const TaskPipeline&) = delete;
  TaskPipeline& operator=(const TaskPipeline&) = delete;

  Status Submit(std::function<Status()> task) EXCLUDES(mu_);
  Status Drain() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  const int limit_;

  util::Mutex mu_{util::lock_rank::kTaskPipelineMu};
  util::CondVar cv_;
  std::deque<std::function<Status()>> queue_ GUARDED_BY(mu_);
  int active_ GUARDED_BY(mu_) = 0;
  Status error_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

// Background fault-handling knobs shared by every engine that runs merge or
// compaction work. A pass that fails with a *transient* error
// (Status::IsTransient: IOError, Busy) is re-run up to max_background_retries
// times with capped exponential backoff (base << attempt, capped at
// retry_backoff_max_micros) before the error latches as BackgroundError().
// Permanent errors (corruption) latch immediately. Tests shrink the backoff
// so retries are instant.
struct BackgroundPolicy {
  int max_background_retries = 15;
  uint64_t retry_backoff_base_micros = 1000;
  uint64_t retry_backoff_max_micros = 256 * 1000;

  // Open-time verification: every manifest-referenced component has each of
  // its blocks read and checksummed before the engine accepts writes. Turns
  // latent media corruption into an Open error that names the damaged file
  // instead of a surprise mid-merge.
  bool paranoid_checks = false;
};

// Named-job background runner: owns the engine's worker threads, the
// transient-retry loop, the permanent-error latch, and quiesce/shutdown.
// Both LSM engines delegate their merge/compaction scheduling to this class
// instead of hand-rolling thread loops and backoff.
//
// Locking contract: job callbacks (pending, run) and WaitUntil predicates are
// always invoked WITHOUT the runner's internal mutex held, so they may take
// the owning engine's locks freely; conversely the engine may call Notify(),
// SetBackgroundError(), or the accessors while holding its own locks.
class BackgroundRunner {
 public:
  struct JobSpec {
    std::string name;
    // Polled by the job's worker: true when there is work to do now.
    std::function<bool()> pending;
    // One unit of work (one merge/compaction pass).
    std::function<Status()> run;
    // Optional externally-owned counters (engine stats): completed pass
    // attempts (successful or not) and transient re-runs.
    std::atomic<uint64_t>* passes = nullptr;
    std::atomic<uint64_t>* retries = nullptr;
  };

  BackgroundRunner(Env* env, const BackgroundPolicy& policy);
  ~BackgroundRunner();  // Stop()
  BackgroundRunner(const BackgroundRunner&) = delete;
  BackgroundRunner& operator=(const BackgroundRunner&) = delete;

  // Register jobs before Start(); each job gets its own worker thread.
  void AddJob(JobSpec spec);
  void Start() EXCLUDES(mu_);
  // Requests shutdown, wakes every sleeper (workers and waiters), joins.
  // Idempotent.
  void Stop() EXCLUDES(mu_);

  // Wakes the workers to re-evaluate their pending() predicates.
  void Notify() EXCLUDES(mu_);

  bool shutting_down() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  // The latched background error (first error wins), or OK.
  Status BackgroundError() const EXCLUDES(mu_);
  // Latches `s` unless an error is already latched (no-op for OK).
  void SetBackgroundError(const Status& s) EXCLUDES(mu_);
  // Clears the latch and resumes paused workers. The caller is responsible
  // for having actually fixed the fault (e.g. FaultInjectionEnv::Heal).
  void Heal() EXCLUDES(mu_);

  // True while the named job is inside run() (retries included).
  bool Running(const std::string& name) const;
  bool AnyRunning() const;

  // Blocks until done() returns true, an error latches, or shutdown; wakes
  // workers while waiting. Returns the background error (OK on clean exit).
  Status WaitUntil(const std::function<bool()>& done) EXCLUDES(mu_);

  // Quiesce: waits until no job is running and no job reports pending work.
  void WaitIdle() EXCLUDES(mu_);

 private:
  struct Job {
    JobSpec spec;
    std::atomic<bool> running{false};
    std::thread thread;
  };

  void WorkerLoop(Job* job) EXCLUDES(mu_);
  // Runs the job once, re-running on transient failure per the policy.
  Status RunWithRetry(Job* job);
  // Sleeps min(base << attempt, cap) in 1 ms slices, polling shutdown so the
  // destructor never waits out a backoff.
  void BackoffWait(int attempt);

  Env* env_;
  BackgroundPolicy policy_;

  mutable util::Mutex mu_{util::lock_rank::kBackgroundRunnerMu};
  util::CondVar work_cv_;  // wakes workers
  util::CondVar idle_cv_;  // signals pass completion to waiters
  Status bg_error_ GUARDED_BY(mu_);
  std::atomic<bool> shutdown_{false};
  bool started_ GUARDED_BY(mu_) = false;

  // Grown only before Start() (single-threaded setup phase); the vector is
  // immutable once workers exist, so per-job state is in Job's atomics.
  std::vector<std::unique_ptr<Job>> jobs_;
};

}  // namespace blsm::engine

#endif  // BLSM_ENGINE_BACKGROUND_RUNNER_H_
