// Regenerates Figure 8: throughput vs write percentage (uniform random
// access) for the B-tree (InnoDB stand-in), the LevelDB-like tree, and bLSM,
// with both update strategies (read-modify-write and blind writes). The
// measured I/O profile of each mix is pushed through the HDD-array and
// SSD-array device models to produce the two panels.
//
// Expected shape (Figure 8): all engines' read-modify-write curves slope
// down with write fraction (a RMW is a read plus a write); blind-write
// curves for the LSMs rise steeply toward 100% writes (zero-seek writes);
// the B-tree is lowest at high write fractions on both devices because
// every update costs two seeks; on SSD the absolute numbers are far higher
// but the ordering persists and random writes are penalized.

#include <vector>

#include "harness.h"
#include "ycsb/workload.h"

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(40000);
  const uint64_t kOpsPerMix = Scaled(8000);
  const std::vector<int> kWritePcts = {0, 20, 40, 60, 80, 100};

  PrintHeader("Figure 8 reproduction: throughput vs write fraction (uniform)");
  printf("dataset: %" PRIu64 " records x 1000 B; %" PRIu64
         " ops per mix; 8 client threads\n",
         kRecords, kOpsPerMix);

  struct Series {
    std::string name;
    bool blind;
    std::vector<double> hdd, ssd, measured;
  };
  std::vector<Series> series;

  WorkloadSpec load_spec;
  load_spec.record_count = kRecords;
  load_spec.value_size = 1000;

  auto run_series = [&](const std::string& name, kv::Engine* engine,
                        const EnvIoCounters* stats, bool blind,
                        const std::function<void()>& settle) {
    Series s;
    s.name = name;
    s.blind = blind;
    for (int pct : kWritePcts) {
      auto spec = WorkloadSpec::ReadWriteMix(pct, blind, kRecords,
                                             Distribution::kUniform);
      spec.value_size = 1000;
      DriverOptions dopts;
      dopts.threads = 8;
      dopts.operations = kOpsPerMix;
      // Each mix starts from a quiesced engine, and its own deferred work
      // (merges, compactions, dirty writeback) is charged to it: the I/O
      // delta spans the run plus the settle that drains it.
      settle();
      auto before = stats->snapshot();
      auto result = RunWorkload(engine, spec, dopts);
      settle();
      auto io = stats->snapshot() - before;
      s.hdd.push_back(HardDiskArray().OpsPerSecond(result.ops, io));
      s.ssd.push_back(SsdArray().OpsPerSecond(result.ops, io));
      s.measured.push_back(result.OpsPerSecond());
    }
    series.push_back(std::move(s));
  };

  {  // B-tree (update-in-place): one curve; updates are never blind.
    Workspace ws("fig8_bt");
    auto tree = OpenBTree(ws.env(), ws.Path("db"), 16 << 20);
    DriverOptions dopts;
    dopts.threads = 8;
    // Hashed keys: the same keyspace the mixes probe. (The sorted-load
    // fast path is Sec 5.2's experiment, not this one.)
    RunLoad(tree.get(), load_spec, dopts, false, false);
    CheckOk(tree->Flush(), "post-load checkpoint");
    run_series("InnoDB-like B-Tree", tree.get(), ws.stats(), /*blind=*/false,
               [&] { CheckOk(tree->Flush(), "quiesce checkpoint"); });
  }

  {  // LevelDB-like: RMW and blind.
    Workspace ws("fig8_ml");
    auto ml_options = DefaultMultilevelOptions(ws.env());
    ml_options.block_cache_bytes = 4 << 20;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    if (!multilevel::MultilevelTree::Open(ml_options, ws.Path("db"), &tree)
             .ok()) {
      return 1;
    }
    DriverOptions dopts;
    dopts.threads = 8;
    RunLoad(tree.get(), load_spec, dopts, false, false);
    CheckOk(tree->CompactAll(), "post-load compaction");
    run_series("LevelDB-like (RMW)", tree.get(), ws.stats(), false,
               [&] { tree->WaitIdle(); });
    run_series("LevelDB-like (blind)", tree.get(), ws.stats(), true,
               [&] { tree->WaitIdle(); });
  }

  {  // bLSM: RMW and blind.
    Workspace ws("fig8_blsm");
    auto blsm_options = DefaultBlsmOptions(ws.env());
    blsm_options.block_cache_bytes = 4 << 20;
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(blsm_options, ws.Path("db"), &tree).ok()) {
      return 1;
    }
    DriverOptions dopts;
    dopts.threads = 8;
    RunLoad(tree.get(), load_spec, dopts, false, false);
    CheckOk(tree->CompactToBottom(), "post-load compaction");
    run_series("bLSM (RMW)", tree.get(), ws.stats(), false,
               [&] { tree->WaitIdle(); });
    run_series("bLSM (blind)", tree.get(), ws.stats(), true,
               [&] { tree->WaitIdle(); });
  }

  auto print_panel = [&](const char* title,
                         const std::function<double(const Series&, size_t)>&
                             value) {
    printf("\n--- %s: throughput (ops/second)\n", title);
    printf("%-24s", "write %:");
    for (int pct : kWritePcts) printf("%10d", pct);
    printf("\n");
    for (const auto& s : series) {
      printf("%-24s", s.name.c_str());
      for (size_t i = 0; i < kWritePcts.size(); i++) {
        printf("%10.0f", value(s, i));
      }
      printf("\n");
    }
  };

  print_panel("Figure 8 left panel (hard disk array model)",
              [](const Series& s, size_t i) { return s.hdd[i]; });
  print_panel("Figure 8 right panel (SSD array model)",
              [](const Series& s, size_t i) { return s.ssd[i]; });
  print_panel("(reference) locally measured wall-clock",
              [](const Series& s, size_t i) { return s.measured[i]; });

  JsonReport report("fig8_throughput_vs_writes");
  for (const auto& s : series) {
    for (size_t i = 0; i < kWritePcts.size(); i++) {
      report.AddRow()
          .Str("series", s.name)
          .Num("write_pct", kWritePcts[i])
          .Num("hdd_model_ops_per_second", s.hdd[i])
          .Num("ssd_model_ops_per_second", s.ssd[i])
          .Num("measured_ops_per_second", s.measured[i]);
    }
  }

  printf("\nPaper check: RMW is strictly more expensive than reads; blind\n"
         "LSM writes pull away sharply as the write fraction grows; the\n"
         "B-tree loses at high write fractions on both device classes.\n");
  return 0;
}
