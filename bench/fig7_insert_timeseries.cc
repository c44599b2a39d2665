// Regenerates Figure 7: timeseries of random-order insert throughput and
// worst-case latency, bLSM (left) vs the LevelDB-like tree (right), under
// unthrottled load.
//
// Expected shape (Figure 7): bLSM's throughput stays comparatively steady
// (spring-and-gear backpressure spreads merge cost over every write) and its
// max latency stays in the low milliseconds; the LevelDB-like tree shows
// bursts separated by multi-interval stalls (L0 pile-ups) with max
// latencies orders of magnitude higher, and takes longer to finish the same
// load.

#include "harness.h"
#include "ycsb/workload.h"

namespace {

void PrintSeries(const char* name, const blsm::ycsb::RunResult& result) {
  printf("\n--- %s: %" PRIu64 " inserts in %.1fs (%.0f ops/s sustained)\n",
         name, result.ops, result.elapsed_seconds, result.OpsPerSecond());
  printf("%8s %12s %14s\n", "t(s)", "ops/s", "max-latency(ms)");
  for (const auto& bucket : result.timeseries) {
    printf("%8.1f %12.0f %14.2f\n", bucket.start_seconds,
           static_cast<double>(bucket.ops) / bucket.seconds,
           static_cast<double>(bucket.max_latency_us) / 1000.0);
  }
  printf("  latency: %s\n", result.latency_us.ToString().c_str());
}

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(80000);  // ~80 MB of 1000 B values
  JsonReport report("fig7_insert_timeseries");

  PrintHeader("Figure 7 reproduction: random-order insert timeseries");
  printf("load: %" PRIu64 " records x 1000 B, 8 unthrottled writers, "
         "0.5s buckets\n", kRecords);

  WorkloadSpec spec;
  spec.record_count = kRecords;
  spec.value_size = 1000;

  DriverOptions dopts;
  dopts.threads = 8;
  dopts.bucket_seconds = 0.5;

  {
    Workspace ws("fig7_blsm");
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(DefaultBlsmOptions(ws.env()), ws.Path("db"), &tree)
             .ok()) {
      return 1;
    }
    dopts.io_stats = ws.stats();
    auto result = RunLoad(tree.get(), spec, dopts, false, false);
    PrintSeries("bLSM (spring-and-gear)", result);
    printf("  write stalls: %.1f ms total backpressure\n",
           static_cast<double>(tree->stats().write_stall_micros.load()) /
               1000.0);
    PrintModeledThroughput("bLSM", result.ops, result.io);
    report.AddRun(result).Num(
        "write_stall_micros",
        static_cast<double>(tree->stats().write_stall_micros.load()));
  }

  {
    Workspace ws("fig7_ml");
    std::unique_ptr<multilevel::MultilevelTree> tree;
    if (!multilevel::MultilevelTree::Open(DefaultMultilevelOptions(ws.env()),
                                          ws.Path("db"), &tree)
             .ok()) {
      return 1;
    }
    dopts.io_stats = ws.stats();
    auto result = RunLoad(tree.get(), spec, dopts, false, false);
    PrintSeries("LevelDB-like (partition scheduler)", result);
    printf("  slowdown writes: %" PRIu64 ", stopped writes: %" PRIu64
           ", stall time: %.1f ms\n",
           tree->stats().slowdown_writes.load(),
           tree->stats().stopped_writes.load(),
           static_cast<double>(tree->stats().write_stall_micros.load()) /
               1000.0);
    PrintModeledThroughput("LevelDB-like", result.ops, result.io);
    report.AddRun(result).Num(
        "write_stall_micros",
        static_cast<double>(tree->stats().write_stall_micros.load()));
  }

  printf("\nPaper check: bLSM's throughput is more predictable and it\n"
         "finishes earlier; LevelDB-like inserts pause for long periods.\n");
  return 0;
}
