// Regenerates §5.6: range scan performance, InnoDB-like B-tree vs bLSM,
// after the B-tree has been fragmented by random-order insertion.
//
// Expected shape (§5.6): short scans (1-4 rows) favor the B-tree — bLSM
// must touch all three components (paper: 608 vs 385 scans/s, ~1.6x);
// long scans (1-100 rows) erase the advantage because B-tree fragmentation
// turns leaf-chain traversal into seeks (paper: bLSM 165 vs InnoDB 86).

#include "harness.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace {

struct ScanResult {
  double seeks_per_scan;
  double hdd_scans_per_sec;
};

template <typename ScanFn>
ScanResult MeasureScans(blsm::bench::Workspace& ws, int probes,
                        const ScanFn& scan) {
  auto before = ws.stats()->snapshot();
  blsm::Random rnd(0x5ca9);
  for (int i = 0; i < probes; i++) scan(rnd);
  auto io = ws.stats()->snapshot() - before;
  blsm::DeviceModel hdd = blsm::HardDiskArray();
  return ScanResult{
      static_cast<double>(io.read_seeks) / probes,
      hdd.OpsPerSecond(probes, io),
  };
}

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;

  const uint64_t kRecords = Scaled(30000);
  const int kProbes = 400;

  PrintHeader("Sec 5.6 reproduction: short and long range scans");
  printf("dataset: %" PRIu64 " records x 1000 B; B-tree fragmented by "
         "random-order insertion\n", kRecords);

  Workspace ws("sec56");
  ycsb::ValueGenerator values(11);

  std::unique_ptr<BlsmTree> lsm;
  if (!BlsmTree::Open(DefaultBlsmOptions(ws.env()), ws.Path("blsm"), &lsm)
           .ok()) {
    return 1;
  }
  auto bt = OpenBTree(ws.env(), ws.Path("bt"), 16 << 20);

  // Fragmenting load: hashed (random) key order scatters logically adjacent
  // B-tree leaves across the file, exactly like the paper's post-read-write
  // test trees. The same records go to bLSM.
  Random load_rnd(1);
  std::vector<uint64_t> ids(kRecords);
  for (uint64_t i = 0; i < kRecords; i++) ids[i] = i;
  for (uint64_t i = kRecords - 1; i > 0; i--) {
    std::swap(ids[i], ids[load_rnd.Uniform(i + 1)]);
  }
  for (uint64_t id : ids) {
    // NOTE: unhashed key text, shuffled insertion order — so scans by key
    // prefix make sense while the B-tree still fragments.
    std::string key = ycsb::FormatKey(id, false);
    std::string value = values.Next(id, 1000);
    CheckOk(bt->Put(key, value), "load insert");
    CheckOk(lsm->Put(key, value), "load put");
  }
  CheckOk(bt->Flush(), "post-load checkpoint");
  // Spread bLSM data across all three components: most in C2, a slice in
  // C1 and C0 (the three-seek configuration of §3.3).
  CheckOk(lsm->CompactToBottom(), "compact to bottom");
  for (uint64_t i = 0; i < kRecords / 20; i++) {
    CheckOk(lsm->Put(ycsb::FormatKey(ids[i], false), values.Next(ids[i], 1000)),
            "overwrite put");
  }
  CheckOk(lsm->Flush(), "flush");
  for (uint64_t i = kRecords / 20; i < kRecords / 10; i++) {
    CheckOk(lsm->Put(ycsb::FormatKey(ids[i], false), values.Next(ids[i], 1000)),
            "overwrite put");
  }

  // Warm the index layers.
  std::vector<std::pair<std::string, std::string>> out;
  Random warm(3);
  for (int i = 0; i < 1000; i++) {
    std::string v;
    CheckOk(bt->Get(ycsb::FormatKey(warm.Uniform(kRecords), false), &v),
            "warming get");
    CheckOk(lsm->Get(ycsb::FormatKey(warm.Uniform(kRecords), false), &v),
            "warming get");
  }

  auto bt_scan = [&](uint64_t len) {
    return [&, len](Random& rnd) {
      uint64_t n = len == 0 ? 1 + rnd.Uniform(4) : 1 + rnd.Uniform(len);
      CheckOk(bt->Scan(ycsb::FormatKey(rnd.Uniform(kRecords), false), n, &out),
              "scan");
    };
  };
  auto lsm_scan = [&](uint64_t len) {
    return [&, len](Random& rnd) {
      uint64_t n = len == 0 ? 1 + rnd.Uniform(4) : 1 + rnd.Uniform(len);
      CheckOk(lsm->Scan(ycsb::FormatKey(rnd.Uniform(kRecords), false), n, &out),
              "scan");
    };
  };

  JsonReport report("sec56_scans");
  auto print_row = [&](const char* label, const ScanResult& r) {
    printf("%-26s %16.2f %18.0f\n", label, r.seeks_per_scan,
           r.hdd_scans_per_sec);
    report.AddRow()
        .Str("label", label)
        .Num("seeks_per_scan", r.seeks_per_scan)
        .Num("hdd_model_scans_per_second", r.hdd_scans_per_sec);
  };
  printf("\n%-26s %16s %18s\n", "scan type", "seeks/scan",
         "scans/s (hdd model)");
  auto bt_short = MeasureScans(ws, kProbes, bt_scan(0));
  print_row("B-Tree short (1-4 rows)", bt_short);
  auto lsm_short = MeasureScans(ws, kProbes, lsm_scan(0));
  print_row("bLSM   short (1-4 rows)", lsm_short);
  auto bt_long = MeasureScans(ws, kProbes, bt_scan(100));
  print_row("B-Tree long (1-100 rows)", bt_long);
  auto lsm_long = MeasureScans(ws, kProbes, lsm_scan(100));
  print_row("bLSM   long (1-100 rows)", lsm_long);

  printf("\nPaper check (§5.6): MySQL 608 vs bLSM 385 short scans/s\n"
         "(B-tree wins ~1.6x); fragmentation reverses long scans:\n"
         "bLSM 165 vs InnoDB 86 scans/s (bLSM wins ~1.9x).\n");
  printf("short-scan ratio (B-tree/bLSM): %.2fx   "
         "long-scan ratio (bLSM/B-tree): %.2fx\n",
         bt_short.hdd_scans_per_sec / std::max(lsm_short.hdd_scans_per_sec, 1.0),
         lsm_long.hdd_scans_per_sec / std::max(bt_long.hdd_scans_per_sec, 1.0));
  return 0;
}
