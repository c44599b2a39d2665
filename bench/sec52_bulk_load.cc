// Regenerates the §5.2 experiment: raw insert performance / bulk load with
// the strongest semantics each system can sustain.
//
//   bLSM          — unordered load with duplicate checking (insert-if-not-
//                   exists): the Bloom filter on C2 makes the check free.
//   LevelDB-like  — unordered load, blind writes only; the checked variant
//                   is also measured (each check is a multi-level read).
//   B-Tree        — pre-sorted load (its fast path) and the unordered
//                   pathology.
//
// Every row's I/O is charged through quiescence (merges, compactions, and
// dirty-page writeback included), so engines cannot hide deferred work; the
// device models then give the HDD/SSD-equivalent load rates.
//
// Expected shape (§5.2): bLSM sustains checked unordered inserts at full
// LSM speed; the LevelDB-like tree only sustains blind writes (checking
// costs a multi-level read per insert) and piles up L0 stalls; the B-tree
// needs pre-sorted input — unordered loads collapse to ~2 seeks per insert.

#include "harness.h"
#include "ycsb/workload.h"

namespace {

struct Row {
  std::string label;
  uint64_t ops;
  double wall_seconds;
  double p999_us;
  blsm::EnvIoCounters::Snapshot io;
};

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(40000);
  // The unordered B-tree case performs ~2 random I/Os per insert; keep its
  // dataset smaller so the bench stays fast (costs are per-op anyway).
  const uint64_t kBtreeUnorderedRecords = kRecords / 4;
  const size_t kCacheBytes = 4 << 20;  // caches << data, the paper's regime

  PrintHeader("Sec 5.2 reproduction: bulk load semantics and throughput");
  printf("dataset: %" PRIu64 " records x 1000 B, 8 loader threads, "
         "4 MiB caches\n", kRecords);

  std::vector<Row> rows;

  auto run_case = [&](const std::string& label, Workspace& ws,
                      kv::Engine* engine, uint64_t records,
                      bool check_exists, bool sorted) {
    WorkloadSpec spec;
    spec.record_count = records;
    spec.value_size = 1000;
    DriverOptions dopts;
    dopts.threads = 8;
    auto before = ws.stats()->snapshot();
    uint64_t start = Env::Default()->NowMicros();
    auto result = RunLoad(engine, spec, dopts, check_exists, sorted);
    engine->WaitIdle();  // charge deferred merge/compaction/writeback I/O
    uint64_t end = Env::Default()->NowMicros();
    rows.push_back(Row{label, records,
                       static_cast<double>(end - start) / 1e6,
                       result.latency_us.Percentile(99.9),
                       ws.stats()->snapshot() - before});
  };

  {
    Workspace ws("load_blsm");
    auto options = DefaultBlsmOptions(ws.env());
    options.block_cache_bytes = kCacheBytes;
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(options, ws.Path("db"), &tree).ok()) return 1;
    run_case("bLSM unordered+checked", ws, tree.get(), kRecords, true,
             false);
  }

  {
    Workspace ws("load_ml_blind");
    auto options = DefaultMultilevelOptions(ws.env());
    options.block_cache_bytes = kCacheBytes;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    if (!multilevel::MultilevelTree::Open(options, ws.Path("db"), &tree).ok()) {
      return 1;
    }
    run_case("LevelDB-like blind", ws, tree.get(), kRecords, false, false);
    printf("  (LevelDB-like blind: %" PRIu64 " slowdowns, %" PRIu64
           " stopped writes during load)\n",
           tree->stats().slowdown_writes.load(),
           tree->stats().stopped_writes.load());
  }

  {
    Workspace ws("load_ml_checked");
    auto options = DefaultMultilevelOptions(ws.env());
    options.block_cache_bytes = kCacheBytes;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    if (!multilevel::MultilevelTree::Open(options, ws.Path("db"), &tree).ok()) {
      return 1;
    }
    run_case("LevelDB-like checked", ws, tree.get(), kRecords, true, false);
  }

  {
    Workspace ws("load_bt_sorted");
    auto tree = OpenBTree(ws.env(), ws.Path("db"), kCacheBytes);
    run_case("B-Tree pre-sorted+checked", ws, tree.get(), kRecords, true,
             true);
  }

  {
    Workspace ws("load_bt_unordered");
    auto tree = OpenBTree(ws.env(), ws.Path("db"), kCacheBytes);
    run_case("B-Tree unordered+checked (1/4)", ws, tree.get(),
             kBtreeUnorderedRecords, true, false);
  }

  printf("\n%-32s %9s %9s %10s %10s %10s %10s\n", "configuration", "wall-s",
         "wr-amp", "seeks/op", "p99.9(us)", "hdd-model", "ssd-model");
  JsonReport report("sec52_bulk_load");
  for (const auto& row : rows) {
    DeviceModel hdd = HardDiskArray();
    DeviceModel ssd = SsdArray();
    double write_amp = static_cast<double>(row.io.write_bytes) /
                       (static_cast<double>(row.ops) * 1000.0);
    double seeks_per_op =
        static_cast<double>(row.io.read_seeks + row.io.write_seeks) /
        static_cast<double>(row.ops);
    double hdd_ops = hdd.OpsPerSecond(row.ops, row.io);
    double ssd_ops = ssd.OpsPerSecond(row.ops, row.io);
    printf("%-32s %9.1f %9.2f %10.2f %10.0f %10.0f %10.0f\n",
           row.label.c_str(), row.wall_seconds, write_amp, seeks_per_op,
           row.p999_us, hdd_ops, ssd_ops);
    report.AddRow()
        .Str("label", row.label)
        .Num("ops", static_cast<double>(row.ops))
        .Num("wall_seconds", row.wall_seconds)
        .Num("write_amp", write_amp)
        .Num("seeks_per_op", seeks_per_op)
        .Num("wall_p999_us", row.p999_us)
        .Num("hdd_model_ops_per_second", hdd_ops)
        .Num("ssd_model_ops_per_second", ssd_ops);
  }
  printf("\nPaper check (§5.2): only bLSM combines unordered input, "
         "duplicate checks,\nsteady progress, and high device-rate load. "
         "(The paper's InnoDB loaded\npre-sorted data at only 7K ops/s and "
         "blamed tuning; the model shows what a\nwell-behaved B-tree "
         "achieves on sorted input — both agree unordered loads\ncollapse "
         "to seeks.)\n");
  return 0;
}
