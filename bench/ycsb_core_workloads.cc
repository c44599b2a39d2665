// YCSB core workloads A-F against all three engines. The paper built its
// evaluation on YCSB (§5.1, [11] — Cooper et al., which shares an author
// with bLSM); this binary runs the standard core mixes end-to-end as a
// cross-check that no engine has pathological behaviour outside the
// specific experiments the paper reports.
//
//   A: 50/50 read/update (zipfian)     B: 95/5 read/update (zipfian)
//   C: 100 read (zipfian)              D: 95/5 read/insert (latest)
//   E: 95/5 scan/insert (zipfian)      F: 50/50 read/RMW (zipfian)

#include <vector>

#include "harness.h"
#include "ycsb/workload.h"

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(30000);
  const uint64_t kOps = Scaled(15000);

  PrintHeader("YCSB core workloads A-F, all engines");
  printf("dataset: %" PRIu64 " records x 1000 B; %" PRIu64
         " ops per workload; 8 threads\n\n",
         kRecords, kOps);

  std::vector<WorkloadSpec> workloads = {
      WorkloadA(kRecords), WorkloadB(kRecords), WorkloadC(kRecords),
      WorkloadD(kRecords), WorkloadE(kRecords), WorkloadF(kRecords)};
  JsonReport report("ycsb_core_workloads");

  printf("%-14s", "engine");
  for (const auto& w : workloads) printf("%12s", w.name.c_str());
  printf("   (ops/s measured, p99 us)\n");

  auto run_engine = [&](const char* name, kv::Engine* engine) {
    // Load once; workloads run back to back (state accumulates, as in the
    // real YCSB runs).
    WorkloadSpec load = workloads[0];
    DriverOptions dopts;
    dopts.threads = 8;
    auto lr = RunLoad(engine, load, dopts, false, false);
    report.AddRun(lr).Str("engine", name).Str("workload", "load");
    printf("%-14s", name);
    std::vector<double> p99s;
    for (const auto& w : workloads) {
      dopts.operations = kOps;
      auto r = RunWorkload(engine, w, dopts);
      report.AddRun(r).Str("engine", name).Str("workload", w.name);
      printf("%12.0f", r.OpsPerSecond());
      p99s.push_back(r.latency_us.Percentile(99));
      if (r.errors > 0) printf("(!%llu)", (unsigned long long)r.errors);
    }
    printf("\n%-14s", "  p99(us)");
    for (double p : p99s) printf("%12.0f", p);
    printf("\n");
    printf("%-14s load: %.0f ops/s\n", "", lr.OpsPerSecond());
  };

  {
    Workspace ws("ycsb_blsm");
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(DefaultBlsmOptions(ws.env()), ws.Path("db"), &tree)
             .ok()) {
      return 1;
    }
    run_engine("bLSM", tree.get());
  }
  {
    Workspace ws("ycsb_bt");
    auto tree = OpenBTree(ws.env(), ws.Path("db"), 16 << 20);
    run_engine("B-Tree", tree.get());
  }
  {
    Workspace ws("ycsb_ml");
    std::unique_ptr<multilevel::MultilevelTree> tree;
    if (!multilevel::MultilevelTree::Open(DefaultMultilevelOptions(ws.env()),
                                          ws.Path("db"), &tree)
             .ok()) {
      return 1;
    }
    run_engine("LevelDB-like", tree.get());
  }

  printf("\nExpected: bLSM matches or beats the baselines on A-D and F;\n"
         "workload E (scan-heavy) is the B-tree's best case (§5.6) when its\n"
         "leaves are unfragmented.\n");
  return 0;
}
