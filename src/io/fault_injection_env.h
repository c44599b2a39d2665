#ifndef BLSM_IO_FAULT_INJECTION_ENV_H_
#define BLSM_IO_FAULT_INJECTION_ENV_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "io/env.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace blsm {

// The operation classes the injector distinguishes. Real devices fail these
// differently (a dying disk often reads fine long after writes start
// erroring), so each class gets its own probability knob.
enum class FaultOpClass {
  kRead,      // SequentialFile/RandomAccessFile/RandomRWFile reads
  kWrite,     // Append / positional Write
  kSync,      // fsync
  kOpen,      // file creation / opening
  kMetadata,  // RemoveFile, CreateDir, RenameFile
};

// Probabilistic fault model, driven by a seeded RNG so failures are
// reproducible. All probabilities are in [0, 1] and independent per
// operation. The deterministic TripAfter() countdown is separate and is
// checked first; it models a device that dies outright, while the policy
// models a device (or kernel, or firmware) that lies and flakes.
struct FaultPolicy {
  uint64_t seed = 0;

  // Clean, detectable failures: the call returns IOError and has no effect.
  double read_error_prob = 0.0;
  double write_error_prob = 0.0;
  double sync_error_prob = 0.0;
  double open_error_prob = 0.0;
  double metadata_error_prob = 0.0;

  // Torn write: a uniformly random strict prefix of the Append payload is
  // persisted, then the call reports IOError — the classic partial sector
  // write of a power cut mid-DMA.
  double torn_write_prob = 0.0;

  // Silent faults. These REPORT SUCCESS: the only defenses are checksums
  // (bit flips) and crash-recovery discipline (a swallowed fsync surfaces
  // when DropUnsynced discards the data that was claimed durable).
  double bit_flip_prob = 0.0;      // one random bit of the payload flips
  double swallow_sync_prob = 0.0;  // Sync() returns OK without syncing

  // When set, only files for which this returns true are subject to the
  // silent faults above. Error faults (and TripAfter) ignore the filter:
  // a detectable failure is fair game anywhere, but tests often need to
  // keep silent lies away from files whose integrity protocol is the
  // subject of a different test (e.g. the manifest).
  std::function<bool(const std::string& fname)> silent_fault_filter;

  bool AnyProbabilistic() const {
    return read_error_prob > 0 || write_error_prob > 0 ||
           sync_error_prob > 0 || open_error_prob > 0 ||
           metadata_error_prob > 0 || torn_write_prob > 0 ||
           bit_flip_prob > 0 || swallow_sync_prob > 0;
  }
};

// Env decorator that injects I/O failures. Two mechanisms compose:
//
//  * TripAfter(n): after `n` further operations, every data-path call
//    (reads, writes, syncs, file creation, rename, remove, mkdir) fails
//    with IOError until Heal() — a device that dies outright.
//  * SetPolicy(FaultPolicy): seeded probabilistic faults per operation
//    class, including torn writes, silent bit flips, and swallowed syncs —
//    a device that flakes and lies.
//
// Heal() clears both. Benign metadata queries (FileExists, GetChildren,
// GetFileSize) and the clock are never failed: a broken disk still answers
// stat-ish queries in practice, and failing them mostly tests the test.
class FaultInjectionEnv final : public EnvWrapper {
 public:
  explicit FaultInjectionEnv(Env* base) : EnvWrapper(base) {}

  // Arms the deterministic fault: the next `ops` data operations succeed,
  // everything after fails.
  void TripAfter(uint64_t ops) {
    remaining_.store(static_cast<int64_t>(ops), std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }

  // Installs (replacing) the probabilistic fault policy.
  void SetPolicy(const FaultPolicy& policy);

  // Clears every fault source; subsequent operations succeed again.
  void Heal();

  bool tripped() const {
    return armed_.load(std::memory_order_relaxed) &&
           remaining_.load(std::memory_order_relaxed) <= 0;
  }

  // Counters, for tests to assert that the intended faults actually fired.
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }
  uint64_t torn_writes() const {
    return torn_writes_.load(std::memory_order_relaxed);
  }
  uint64_t bit_flips() const {
    return bit_flips_.load(std::memory_order_relaxed);
  }
  uint64_t swallowed_syncs() const {
    return swallowed_syncs_.load(std::memory_order_relaxed);
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;

  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  // Env's default GetChildren walk, not the wrapped Env's own recursion, so
  // each RemoveFile / RemoveDir along the way rolls the metadata fault dice
  // individually.
  Status RemoveDirRecursive(const std::string& dirname) override {
    return Env::RemoveDirRecursive(dirname);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

  // Returns OK while healthy; decrements the deterministic countdown and
  // returns IOError once tripped. Exposed for the file wrappers.
  Status Check();

  // Deterministic check plus the probabilistic per-class error roll.
  Status CheckOp(FaultOpClass op, const std::string& fname);

  // Decision for one Append of `len` bytes. Exactly one of the fields is
  // meaningful: if !status.ok() and torn_len > 0, persist that prefix then
  // fail; if flip_bit >= 0, flip that bit of the payload and succeed.
  struct WritePlan {
    Status status;
    size_t torn_len = 0;
    int64_t flip_bit = -1;
  };
  WritePlan PlanAppend(const std::string& fname, size_t len);

  // Decision for one Sync: fail, silently swallow, or pass through.
  struct SyncPlan {
    Status status;
    bool swallow = false;
  };
  SyncPlan PlanSync(const std::string& fname);

 private:
  bool Roll(double prob);  // true with probability `prob` (seeded RNG)
  bool SilentFaultsApply(const std::string& fname);

  std::atomic<bool> armed_{false};
  std::atomic<int64_t> remaining_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> torn_writes_{0};
  std::atomic<uint64_t> bit_flips_{0};
  std::atomic<uint64_t> swallowed_syncs_{0};

  util::Mutex policy_mu_{util::lock_rank::kFaultInjectionEnvPolicyMu};
  FaultPolicy policy_ GUARDED_BY(policy_mu_);
  std::atomic<bool> policy_active_{false};
  Random rng_ GUARDED_BY(policy_mu_) = Random(0);
};

}  // namespace blsm

#endif  // BLSM_IO_FAULT_INJECTION_ENV_H_
