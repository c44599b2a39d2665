// Ablation (§4.2): snowshoveling (replacement-selection consumption of C0)
// vs the partitioned C0/C0' scheme, under the spring-and-gear scheduler.
//
// Expected shape: snowshoveling increases the effective size of C0 — the
// paper argues by 4x for random workloads (2x from longer runs, 2x from not
// halving RAM into C0/C0') — which shows up as fewer, larger C0:C1 merge
// passes for the same data volume and lower total merge write volume (less
// write amplification). Sequential-key insertion is snowshoveling's best
// case: runs grow toward the entire input.

#include "harness.h"
#include "ycsb/workload.h"

namespace {

void RunConfig(blsm::bench::JsonReport* report, const char* label,
               bool snowshovel, bool sequential_keys, uint64_t records) {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  Workspace ws(std::string("snow_") + std::to_string(snowshovel) +
               (sequential_keys ? "_seq" : "_rand"));
  auto options = DefaultBlsmOptions(ws.env());
  options.snowshovel = snowshovel;
  options.scheduler =
      snowshovel ? SchedulerKind::kSpringGear : SchedulerKind::kGear;
  // Fixed RAM budget (§4.2.1): the partitioned scheme keeps both C0 and the
  // frozen C0' resident, so for the same memory it gets half the C0.
  if (!snowshovel) options.c0_target_bytes /= 2;
  std::unique_ptr<BlsmTree> tree;
  if (!BlsmTree::Open(options, ws.Path("db"), &tree).ok()) exit(1);

  WorkloadSpec spec;
  spec.record_count = records;
  spec.value_size = 1000;
  DriverOptions dopts;
  dopts.threads = 8;
  dopts.io_stats = ws.stats();
  auto result =
      RunLoad(tree.get(), spec, dopts, false, /*sorted=*/sequential_keys);
  tree->WaitIdle();

  uint64_t passes = tree->stats().merge1_passes.load();
  uint64_t merge_out = tree->stats().merge1_bytes_out.load() +
                       tree->stats().merge2_bytes_out.load();
  double write_amp = static_cast<double>(result.io.write_bytes) /
                     (static_cast<double>(records) * 1000.0);
  printf("%-34s %10.0f %8" PRIu64 " %14.1f %12.2f\n", label,
         result.OpsPerSecond(), passes,
         static_cast<double>(merge_out) / 1e6, write_amp);
  report->AddRun(result)
      .Str("configuration", label)
      .Num("merge1_passes", static_cast<double>(passes))
      .Num("merge_bytes_out", static_cast<double>(merge_out))
      .Num("write_amplification", write_amp);
}

}  // namespace

int main() {
  using namespace blsm::bench;
  const uint64_t kRecords = Scaled(50000);

  PrintHeader("Snowshovel ablation (spring-and-gear vs partitioned C0/C0')");
  printf("load: %" PRIu64 " inserts x 1000 B, 8 writers\n", kRecords);
  printf("\n%-34s %10s %8s %14s %12s\n", "configuration", "ops/s",
         "merges", "merge-out(MB)", "write-amp");

  JsonReport report("ablation_snowshovel");
  RunConfig(&report, "snowshovel, random keys", true, false, kRecords);
  RunConfig(&report, "partitioned C0/C0', random keys", false, false,
            kRecords);
  RunConfig(&report, "snowshovel, sequential keys", true, true, kRecords);
  RunConfig(&report, "partitioned C0/C0', sequential", false, true, kRecords);

  printf("\nPaper check (§4.2): snowshoveling raises C0's effective size\n"
         "(fewer merge passes for the same data) and cuts write\n"
         "amplification; sorted input is its best case (runs approach the\n"
         "whole input).\n");
  return 0;
}
