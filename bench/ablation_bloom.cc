// Ablation (§3.1): Bloom filters and early read termination.
//
// Four configurations of bLSM, same dataset spread across C0/C1/C2, cold
// block cache, measuring read seeks per operation for (a) point lookups of
// existing keys, (b) lookups of absent keys, (c) insert-if-not-exists of
// fresh keys.
//
// Expected shape: the full design costs ~1 seek per hit and ~0 per miss;
// dropping C2's filter (§3.1.2) makes misses and checked inserts pay a C2
// probe; dropping all filters costs every component a probe; disabling
// early termination (§3.1.1) forces every lookup to visit every component
// even when C0 holds a fresh base record.

#include "harness.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace {

struct Probe {
  double hit_seeks, miss_seeks, iine_seeks;
};

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;

  const uint64_t kRecords = Scaled(30000);
  const int kProbes = 400;

  PrintHeader("Bloom / early-termination ablation (read seeks per op)");
  printf("dataset: %" PRIu64 " records x 1000 B across C0+C1+C2, cold cache\n",
         kRecords);

  struct Config {
    const char* name;
    bool use_bloom;
    bool bloom_on_largest;
    bool early_termination;
  };
  const Config configs[] = {
      {"full bLSM (bloom+early-term)", true, true, true},
      {"no bloom on largest (C2)", true, false, true},
      {"no bloom filters at all", false, false, true},
      {"no early termination", true, true, false},
  };

  printf("\n%-32s %12s %12s %14s\n", "configuration", "hit", "miss",
         "insert-if-new");

  JsonReport report("ablation_bloom");
  for (const Config& config : configs) {
    Workspace ws(std::string("bloom_") + std::to_string(config.use_bloom) +
                 std::to_string(config.bloom_on_largest) +
                 std::to_string(config.early_termination));
    auto options = DefaultBlsmOptions(ws.env());
    options.use_bloom = config.use_bloom;
    options.bloom_on_largest = config.bloom_on_largest;
    options.early_read_termination = config.early_termination;
    options.block_cache_bytes = 2 << 20;  // nearly cold: indexes only
    std::unique_ptr<BlsmTree> tree;
    if (!BlsmTree::Open(options, ws.Path("db"), &tree).ok()) return 1;

    ycsb::ValueGenerator values(5);
    for (uint64_t i = 0; i < kRecords; i++) {
      CheckOk(tree->Put(ycsb::FormatKey(i, true), values.Next(i, 1000)),
              "load put");
    }
    CheckOk(tree->CompactToBottom(), "compact to bottom");
    // Fresher versions of a slice of keys into C1 and C0 so early
    // termination has something to terminate on.
    for (uint64_t i = 0; i < kRecords / 10; i++) {
      CheckOk(tree->Put(ycsb::FormatKey(i, true), values.Next(i, 1000)),
              "load put");
    }
    CheckOk(tree->Flush(), "flush");
    for (uint64_t i = kRecords / 10; i < kRecords / 5; i++) {
      CheckOk(tree->Put(ycsb::FormatKey(i, true), values.Next(i, 1000)),
              "load put");
    }
    // Warm index blocks.
    Random warm(2);
    std::string v;
    for (int i = 0; i < 1500; i++) {
      tree->Get(ycsb::FormatKey(warm.Uniform(kRecords), true), &v)
          .IgnoreError("warming probe; hits and misses both warm the cache");
    }

    Probe probe;
    Random rnd(0xab1e);
    auto before = ws.stats()->snapshot();
    for (int i = 0; i < kProbes; i++) {
      CheckOk(tree->Get(ycsb::FormatKey(rnd.Uniform(kRecords), true), &v),
              "probe get");
    }
    auto mid = ws.stats()->snapshot();
    probe.hit_seeks =
        static_cast<double>((mid - before).read_seeks) / kProbes;
    for (int i = 0; i < kProbes; i++) {
      // Hashed ids beyond the loaded range: absent keys scattered across
      // the whole keyspace (a fixed prefix would hit one cached leaf).
      tree->Get(ycsb::FormatKey(kRecords + 1000000 + i, true), &v)
          .IgnoreError("NotFound is the point of the miss probe");
    }
    auto after_miss = ws.stats()->snapshot();
    probe.miss_seeks =
        static_cast<double>((after_miss - mid).read_seeks) / kProbes;
    for (int i = 0; i < kProbes; i++) {
      CheckOk(tree->InsertIfNotExists(
                  ycsb::FormatKey(kRecords + 2000000 + i, true), "value"),
              "insert-if-not-exists probe");
    }
    tree->WaitIdle();
    auto after_iine = ws.stats()->snapshot();
    probe.iine_seeks =
        static_cast<double>((after_iine - after_miss).read_seeks) / kProbes;

    printf("%-32s %12.2f %12.2f %14.2f\n", config.name, probe.hit_seeks,
           probe.miss_seeks, probe.iine_seeks);
    report.AddRow()
        .Str("configuration", config.name)
        .Num("hit_seeks_per_op", probe.hit_seeks)
        .Num("miss_seeks_per_op", probe.miss_seeks)
        .Num("insert_if_new_seeks_per_op", probe.iine_seeks);
  }

  printf("\nPaper check (§3.1): filters cut lookup amplification from N to\n"
         "1 + N/100; the largest component's filter is what makes\n"
         "\"insert if not exists\" seek-free; early termination keeps\n"
         "frequently-updated keys at one lookup.\n");
  return 0;
}
