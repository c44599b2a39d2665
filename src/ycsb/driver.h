#ifndef BLSM_YCSB_DRIVER_H_
#define BLSM_YCSB_DRIVER_H_

#include <string>
#include <vector>

#include "engine/kv.h"
#include "io/env.h"
#include "util/histogram.h"
#include "util/status.h"
#include "ycsb/workload.h"

namespace blsm::ycsb {

// One interval of the run's timeseries (Figures 7 and 9). Every bucket is
// DriverOptions::bucket_seconds wide except the last, which ends when the
// run does; the widths sum to RunResult::elapsed_seconds. Report a bucket's
// rate as ops / seconds.
struct TimeBucket {
  double start_seconds = 0;
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t max_latency_us = 0;
};

struct RunResult {
  std::string label;
  double elapsed_seconds = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  Histogram latency_us;
  std::vector<TimeBucket> timeseries;
  EnvIoCounters::Snapshot io{};  // I/O performed during the run

  double OpsPerSecond() const {
    return elapsed_seconds > 0 ? static_cast<double>(ops) / elapsed_seconds
                               : 0;
  }
};

struct DriverOptions {
  int threads = 4;
  uint64_t operations = 100000;
  double bucket_seconds = 1.0;
  uint64_t seed = 42;
  // When set, the run's I/O delta is captured into RunResult::io. Point it
  // at the engine's terminal Env's counters (Env::io_counters()); they are
  // shared by everything that Env serves, so keep other IO off it during
  // the run.
  const EnvIoCounters* io_stats = nullptr;
  // RunLoad only: group this many records into one kv::WriteBatch per
  // engine->Write call (one group-commit sync pays for the whole batch).
  // 1 means plain Put per record; ignored when check_exists is set (the
  // existence probe is inherently per-record).
  uint64_t batch_size = 1;
};

// Runs `spec.operations` mixed operations against a pre-loaded engine. The
// driver is engine-agnostic: every engine is exercised through the unified
// kv::Engine interface (use kv::Open or the kv::Wrap* adapters). Updates and
// inserts are both Put — for the LSMs that is the blind zero-seek write, for
// the B-tree it is the update-in-place leaf fault the paper contrasts (§2.2).
RunResult RunWorkload(kv::Engine* engine, const WorkloadSpec& spec,
                      const DriverOptions& options);

// Loads `spec.record_count` records. `check_exists` uses the engine's
// insert-if-not-exists primitive (the §5.2 semantics comparison); `sorted`
// loads keys in key order (the pre-sorted load InnoDB needs).
RunResult RunLoad(kv::Engine* engine, const WorkloadSpec& spec,
                  const DriverOptions& options, bool check_exists,
                  bool sorted);

}  // namespace blsm::ycsb

#endif  // BLSM_YCSB_DRIVER_H_
