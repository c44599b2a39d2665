// Write-path scaling microbench: concurrent writers through the group-
// committed WAL and the lock-free C0. Sweeps writer threads x durability
// (kSync / kAsync) x submission mode (one Put per record vs 16-record
// WriteBatches) against bLSM on a real filesystem, reporting sustained
// ops/s and counting-env syncs per acked write.
//
// Expected shape: in kSync, one thread pays exactly one fsync per write
// (syncs/op = 1.0); concurrent writers share group commits, so syncs/op
// falls well below 1 (the acceptance bar is < 0.5 at 8 writers) and
// throughput scales instead of serializing on the log. Batches amortize
// further: one sync covers batch_size records even single-threaded. kAsync
// isolates the memtable/log-append path: scaling there is the CAS skiplist
// and thread-safe arena at work.

#include <vector>

#include "harness.h"
#include "ycsb/workload.h"

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const std::vector<int> kThreads = {1, 2, 4, 8, 16};
  const uint64_t kBatchSize = 16;

  PrintHeader("Write scaling: group commit, write batches, lock-free C0");

  JsonReport report("write_scaling");

  struct Mode {
    const char* name;
    DurabilityMode durability;
    uint64_t batch_size;
    uint64_t records;
  };
  // kSync runs pay a real fsync per group commit, so they use a smaller
  // load; within one mode every thread count writes the same volume, which
  // is what makes the ops/s column comparable. All datasets stay far below
  // the C0 target so no merge I/O pollutes the sync counts.
  const Mode modes[] = {
      {"sync/single", DurabilityMode::kSync, 1, Scaled(3000)},
      {"sync/batch16", DurabilityMode::kSync, kBatchSize, Scaled(3000)},
      {"async/single", DurabilityMode::kAsync, 1, Scaled(30000)},
      {"async/batch16", DurabilityMode::kAsync, kBatchSize, Scaled(30000)},
  };

  for (const Mode& mode : modes) {
    printf("\n--- %s: %" PRIu64 " records x 100 B\n", mode.name,
           mode.records);
    printf("%8s %12s %12s %12s %14s\n", "threads", "ops/s", "syncs",
           "syncs/op", "wal-recs/batch");
    double one_thread_ops = 0;
    for (int threads : kThreads) {
      Workspace ws(std::string("wscale_") + std::to_string(threads));
      auto options = DefaultBlsmOptions(ws.env());
      options.durability = mode.durability;
      std::unique_ptr<BlsmTree> tree;
      if (!BlsmTree::Open(options, ws.Path("db"), &tree).ok()) return 1;

      WorkloadSpec spec;
      spec.record_count = mode.records;
      spec.value_size = 100;
      DriverOptions dopts;
      dopts.threads = threads;
      dopts.batch_size = mode.batch_size;
      dopts.io_stats = ws.stats();
      auto result = RunLoad(tree.get(), spec, dopts, false, false);

      double syncs_per_op =
          result.ops > 0
              ? static_cast<double>(result.io.syncs) / result.ops
              : 0;
      auto wal = tree->WalCounters();
      double recs_per_batch =
          wal.batches > 0
              ? static_cast<double>(wal.records) / wal.batches
              : 0;
      printf("%8d %12.0f %12" PRIu64 " %12.3f %14.1f\n", threads,
             result.OpsPerSecond(), result.io.syncs, syncs_per_op,
             recs_per_batch);
      if (threads == 1) one_thread_ops = result.OpsPerSecond();
      report.AddRun(result)
          .Str("mode", mode.name)
          .Num("threads", threads)
          .Num("batch_size", static_cast<double>(mode.batch_size))
          .Num("syncs_per_op", syncs_per_op)
          .Num("wal_batches", static_cast<double>(wal.batches))
          .Num("wal_records", static_cast<double>(wal.records))
          .Num("wal_records_per_batch", recs_per_batch)
          .Num("speedup_vs_1_thread",
               one_thread_ops > 0 ? result.OpsPerSecond() / one_thread_ops
                                  : 1.0);
    }
  }

  printf("\nExpected: single-writer sync pays ~1 fsync per record; at 8\n"
         "writers group commit drops that below 0.5; batches amortize the\n"
         "log further; async scaling isolates the lock-free memtable.\n");
  return 0;
}
