// Regenerates §5.6: range scan performance, InnoDB-like B-tree vs bLSM,
// after the B-tree has been fragmented by random-order insertion.
//
// Expected shape (§5.6): short scans (1-4 rows) favor the B-tree — bLSM
// must touch all three components (paper: 608 vs 385 scans/s, ~1.6x);
// long scans (1-100 rows) erase the advantage because B-tree fragmentation
// turns leaf-chain traversal into seeks (paper: bLSM 165 vs InnoDB 86).

#include <fcntl.h>
#include <unistd.h>

#include <chrono>

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

// Best-effort page-cache eviction so the measured scans read from the
// device and the WILLNEED hints have something to front. Harmless on
// filesystems that ignore DONTNEED (the comparison just runs warm).
void EvictDir(const std::string& dir) {
  std::vector<std::string> children;
  if (!blsm::Env::Default()->GetChildren(dir, &children).ok()) return;
  for (const std::string& name : children) {
    std::string path = dir + "/" + name;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

// Readahead ablation: long scans over each compaction policy's layout, with
// the per-scan readahead knob (kv::ReadOptions::readahead_bytes) either set
// to a 64 KiB hint-window cap or left at its default 0 (hints off).
// Tiered/lazy layouts stack more runs per scan, so they issue more hint
// streams per seek position.
void RunScanReadaheadAblation(blsm::bench::Workspace& ws, uint64_t records) {
  using namespace blsm;
  using namespace blsm::bench;

  PrintHeader("Readahead ablation: long scans per compaction policy");
  JsonReport report("sec56_scan_readahead");
  const char* kPolicies[] = {"leveling", "leveling-whole", "tiering",
                             "lazy-leveling"};
  const int kScans = 200;
  const size_t kScanRows = 200;
  const uint64_t kScanReadAheadBytes = 64 << 10;
  ycsb::ValueGenerator values(29);

  printf("%-16s %10s %10s %8s %8s %8s %8s\n", "policy", "ra-on(s)",
         "ra-off(s)", "MB-on", "MB-off", "hints", "ratio");
  for (const char* policy : kPolicies) {
    std::string dir = ws.Path(std::string("ml_ra_") + policy);
    {
      multilevel::MultilevelOptions o = DefaultMultilevelOptions(ws.env());
      CheckOk(engine::ParseCompactionConfig(policy, &o.compaction),
              "parse policy");
      std::unique_ptr<multilevel::MultilevelTree> tree;
      CheckOk(multilevel::MultilevelTree::Open(o, dir, &tree), "open");
      Random load_rnd(41);
      for (uint64_t i = 0; i < records; i++) {
        uint64_t id = load_rnd.Uniform(records);
        CheckOk(tree->Put(ycsb::FormatKey(id, false), values.Next(id, 1000)),
                "ablation load");
      }
      CheckOk(tree->CompactAll(), "settle");
    }

    double elapsed[2] = {0, 0};
    double read_mb[2] = {0, 0};
    uint64_t hints = 0;
    for (int off = 0; off < 2; off++) {
      const uint64_t readahead = off == 0 ? kScanReadAheadBytes : 0;
      multilevel::MultilevelOptions o = DefaultMultilevelOptions(ws.env());
      CheckOk(engine::ParseCompactionConfig(policy, &o.compaction),
              "parse policy");
      o.read_only = true;
      std::unique_ptr<multilevel::MultilevelTree> tree;
      CheckOk(multilevel::MultilevelTree::Open(o, dir, &tree), "reopen");
      EnvIoCounters::Snapshot before = ws.stats()->snapshot();
      Random rnd(0x5eed);
      std::vector<std::pair<std::string, std::string>> out;
      // Page-cache eviction between short segments (untimed) keeps the
      // measured scans cold throughout, not just for the first few seeks.
      constexpr int kSegment = 25;
      elapsed[off] = 0;
      for (int done = 0; done < kScans; done += kSegment) {
        EvictDir(dir);
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kSegment; i++) {
          CheckOk(tree->Scan(ycsb::FormatKey(rnd.Uniform(records), false),
                             kScanRows, &out, readahead),
                  "ablation scan");
        }
        elapsed[off] += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      }
      EnvIoCounters::Snapshot io = ws.stats()->snapshot() - before;
      if (off == 0) hints = io.readahead_hints;
      read_mb[off] = static_cast<double>(io.read_bytes) / 1e6;
      report.AddRow()
          .Str("policy", policy)
          .Str("readahead", off == 0 ? "on" : "off")
          .Num("readahead_bytes", static_cast<double>(readahead))
          .Num("elapsed_seconds", elapsed[off])
          .Num("scans_per_second", kScans / elapsed[off])
          .Num("read_mb", read_mb[off])
          .Num("readahead_hints", static_cast<double>(off == 0 ? hints : 0));
    }
    printf("%-16s %10.3f %10.3f %8.1f %8.1f %8" PRIu64 " %7.2fx\n", policy,
           elapsed[0], elapsed[1], read_mb[0], read_mb[1], hints,
           elapsed[1] / std::max(elapsed[0], 1e-9));
  }
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
  std::unique_ptr<btree::BTree> bt;
  if (!btree::BTree::Open(DefaultBTreeOptions(ws.env()), ws.Path("bt.db"),
                          &bt)
           .ok()) {
    return 1;
  }

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
    CheckOk(bt->Insert(key, value), "load insert");
    CheckOk(lsm->Put(key, value), "load put");
  }
  CheckOk(bt->Checkpoint(), "post-load checkpoint");
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

  printf("\n%-26s %16s %18s\n", "scan type", "seeks/scan",
         "scans/s (hdd model)");
  auto bt_short = MeasureScans(ws, kProbes, bt_scan(0));
  printf("%-26s %16.2f %18.0f\n", "B-Tree short (1-4 rows)",
         bt_short.seeks_per_scan, bt_short.hdd_scans_per_sec);
  auto lsm_short = MeasureScans(ws, kProbes, lsm_scan(0));
  printf("%-26s %16.2f %18.0f\n", "bLSM   short (1-4 rows)",
         lsm_short.seeks_per_scan, lsm_short.hdd_scans_per_sec);
  auto bt_long = MeasureScans(ws, kProbes, bt_scan(100));
  printf("%-26s %16.2f %18.0f\n", "B-Tree long (1-100 rows)",
         bt_long.seeks_per_scan, bt_long.hdd_scans_per_sec);
  auto lsm_long = MeasureScans(ws, kProbes, lsm_scan(100));
  printf("%-26s %16.2f %18.0f\n", "bLSM   long (1-100 rows)",
         lsm_long.seeks_per_scan, lsm_long.hdd_scans_per_sec);

  printf("\nPaper check (§5.6): MySQL 608 vs bLSM 385 short scans/s\n"
         "(B-tree wins ~1.6x); fragmentation reverses long scans:\n"
         "bLSM 165 vs InnoDB 86 scans/s (bLSM wins ~1.9x).\n");
  printf("short-scan ratio (B-tree/bLSM): %.2fx   "
         "long-scan ratio (bLSM/B-tree): %.2fx\n",
         bt_short.hdd_scans_per_sec / std::max(lsm_short.hdd_scans_per_sec, 1.0),
         lsm_long.hdd_scans_per_sec / std::max(bt_long.hdd_scans_per_sec, 1.0));

  RunScanReadaheadAblation(ws, kRecords / 3);
  return 0;
}
