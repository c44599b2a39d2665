// Regenerates Figure 9: bLSM shifting from 100% uniform blind writes
// (saturated for an extended period) to an 80% read / 20% blind-write
// Zipfian serving workload at t = 0.
//
// Expected shape (Figure 9): after the shift, throughput ramps up as hot
// index/data blocks populate the cache, then levels off with occasional
// small dips from merge hiccups; latency stays low and stable (the paper
// reports ~2 ms with 128 unthrottled workers).
//
// Writes BENCH_fig9_workload_shift.json: one row per phase, then one
// "post_shift_window" row per printed post-shift window.

#include <algorithm>

#include "harness.h"
#include "ycsb/workload.h"

namespace {

// The post-shift series is cut into at most this many windows whatever the
// scale, as bench/stability does: the phase lasts a fraction of a second
// at BLSM_BENCH_SCALE=0.25, so fixed-width windows would leave one point.
constexpr size_t kPostShiftWindows = 16;

// Merges runs of consecutive fine driver buckets into at most `windows`
// equal-width windows. A partial last window under half a window wide
// joins the one before it, so the run's tail is not printed as a dip.
std::vector<blsm::ycsb::TimeBucket> Coarsen(
    const std::vector<blsm::ycsb::TimeBucket>& fine, size_t windows) {
  const size_t per = std::max<size_t>(1, (fine.size() + windows - 1) / windows);
  std::vector<blsm::ycsb::TimeBucket> out;
  auto absorb = [](blsm::ycsb::TimeBucket* w, const blsm::ycsb::TimeBucket& b) {
    w->ops += b.ops;
    w->seconds += b.seconds;
    w->max_latency_us = std::max(w->max_latency_us, b.max_latency_us);
  };
  for (size_t i = 0; i < fine.size(); i++) {
    if (i % per == 0) {
      out.push_back(fine[i]);
    } else {
      absorb(&out.back(), fine[i]);
    }
  }
  if (out.size() > 1 && out.back().seconds < out.front().seconds / 2) {
    blsm::ycsb::TimeBucket tail = out.back();
    out.pop_back();
    absorb(&out.back(), tail);
  }
  return out;
}

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(60000);
  const uint64_t kSaturationOps = Scaled(60000);
  const uint64_t kServingOps = Scaled(120000);

  PrintHeader("Figure 9 reproduction: uniform-write saturation -> Zipfian serving");
  printf("dataset: %" PRIu64 " records x 1000 B; shift at t=0\n", kRecords);

  Workspace ws("fig9");
  std::unique_ptr<BlsmTree> tree;
  if (!BlsmTree::Open(DefaultBlsmOptions(ws.env()), ws.Path("db"), &tree)
           .ok()) {
    return 1;
  }
  auto engine = kv::WrapBlsm(tree.get());

  WorkloadSpec load_spec;
  load_spec.record_count = kRecords;
  load_spec.value_size = 1000;
  DriverOptions dopts;
  dopts.threads = 8;
  dopts.bucket_seconds = 0.5;
  RunLoad(engine.get(), load_spec, dopts, false, false);

  // Phase 1: saturate with 100% uniform blind writes (pre-shift regime).
  auto writes =
      WorkloadSpec::ReadWriteMix(100, true, kRecords, Distribution::kUniform);
  writes.value_size = 1000;
  dopts.operations = kSaturationOps;
  dopts.io_stats = ws.stats();
  auto phase1 = RunWorkload(engine.get(), writes, dopts);
  printf("\npre-shift (100%% uniform writes): %.0f ops/s, p99 latency %.2f ms\n",
         phase1.OpsPerSecond(),
         phase1.latency_us.Percentile(99) / 1000.0);

  // Phase 2 (t = 0): 80% read / 20% blind write, Zipfian.
  auto serving =
      WorkloadSpec::ReadWriteMix(20, true, kRecords, Distribution::kZipfian);
  serving.value_size = 1000;
  dopts.operations = kServingOps;
  // Fine buckets, coarsened below into kPostShiftWindows windows.
  dopts.bucket_seconds = 0.005;
  auto phase2 = RunWorkload(engine.get(), serving, dopts);

  printf("\n--- post-shift timeseries (80%% read / 20%% blind write, "
         "zipfian)\n");
  printf("%8s %12s %14s\n", "t(s)", "ops/s", "max-latency(ms)");
  const std::vector<TimeBucket> windows =
      Coarsen(phase2.timeseries, kPostShiftWindows);
  for (const auto& bucket : windows) {
    printf("%8.3f %12.0f %14.2f\n", bucket.start_seconds,
           static_cast<double>(bucket.ops) / bucket.seconds,
           static_cast<double>(bucket.max_latency_us) / 1000.0);
  }
  printf("\npost-shift: %.0f ops/s sustained; latency %s\n",
         phase2.OpsPerSecond(), phase2.latency_us.ToString().c_str());
  PrintModeledThroughput("post-shift mix", phase2.ops, phase2.io);

  JsonReport report("fig9_workload_shift");
  report.AddRun(phase1).Str("phase", "pre_shift_uniform_writes");
  report.AddRun(phase2).Str("phase", "post_shift_zipfian_serving");
  for (const auto& bucket : windows) {
    report.AddRow()
        .Str("phase", "post_shift_window")
        .Num("t_seconds", bucket.start_seconds)
        .Num("wall_ops_per_second",
             static_cast<double>(bucket.ops) / bucket.seconds)
        .Num("wall_max_latency_ms",
             static_cast<double>(bucket.max_latency_us) / 1000.0);
  }

  printf("\nPaper check: throughput ramps up after the shift as the cache\n"
         "warms, then levels off; latencies stay stable (paper: ~2 ms).\n");
  return 0;
}
