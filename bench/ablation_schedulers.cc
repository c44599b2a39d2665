// Ablation (§4.1-4.3, §5.5): the three merge schedulers under an identical
// saturating random-insert load.
//
// Expected shape: the naive block-when-full scheduler shows enormous
// worst-case insert latencies (writes stall for whole C0:C1 merges); the
// gear scheduler bounds latency by pacing writers against merge progress;
// spring-and-gear keeps the same bound while sustaining equal-or-better
// throughput (backpressure is proportional, not stop-and-go) — the paper's
// headline scheduling claim.

#include "harness.h"
#include "ycsb/workload.h"

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(50000);

  PrintHeader("Scheduler ablation: naive vs gear vs spring-and-gear");
  printf("load: %" PRIu64 " random-order inserts x 1000 B, 8 writers\n",
         kRecords);

  struct Config {
    const char* name;
    SchedulerKind kind;
    bool snowshovel;
  };
  const Config configs[] = {
      {"naive (block when full)", SchedulerKind::kNaive, false},
      {"gear", SchedulerKind::kGear, false},
      {"spring-and-gear", SchedulerKind::kSpringGear, true},
  };

  printf("\n%-26s %10s %12s %12s %12s %14s\n", "scheduler", "ops/s",
         "p99(us)", "p99.9(us)", "max(ms)", "stall-total(ms)");

  JsonReport report("ablation_schedulers");
  for (const Config& config : configs) {
    Workspace ws(std::string("sched_") + config.name);
    auto options = DefaultBlsmOptions(ws.env());
    options.scheduler = config.kind;
    options.snowshovel = config.snowshovel;
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(options, ws.Path("db"), &tree).ok()) return 1;

    WorkloadSpec spec;
    spec.record_count = kRecords;
    spec.value_size = 1000;
    DriverOptions dopts;
    dopts.threads = 8;
    dopts.io_stats = ws.stats();
    auto result = RunLoad(tree.get(), spec, dopts, false, false);
    tree->WaitIdle();

    printf("%-26s %10.0f %12.0f %12.0f %12.2f %14.1f\n", config.name,
           result.OpsPerSecond(), result.latency_us.Percentile(99),
           result.latency_us.Percentile(99.9),
           static_cast<double>(result.latency_us.max()) / 1000.0,
           static_cast<double>(tree->stats().write_stall_micros.load()) /
               1000.0);
    report.AddRun(result)
        .Str("scheduler", config.name)
        .Num("latency_p999_us", result.latency_us.Percentile(99.9))
        .Num("latency_max_us", static_cast<double>(result.latency_us.max()))
        .Num("write_stall_micros",
             static_cast<double>(tree->stats().write_stall_micros.load()));
  }

  printf("\nPaper check: only the level schedulers (gear, spring-and-gear)\n"
         "bound worst-case insert latency; spring-and-gear does so without\n"
         "sacrificing throughput (§4.3, §5.5, Table 1 last rows).\n");
  return 0;
}
