#ifndef BLSM_BENCH_HARNESS_H_
#define BLSM_BENCH_HARNESS_H_

// Shared scaffolding for the paper-reproduction benchmarks: engine setup on
// the default environment, workspace management, device-model reporting,
// and table printing. Each bench binary regenerates one table or figure of the
// paper (see DESIGN.md §3 for the index and EXPERIMENTS.md for results).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/kv.h"
#include "io/env.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"
#include "sim/device_model.h"
#include "ycsb/driver.h"

namespace blsm::bench {

// Aborts on failure. Benchmarks have no error channel, and numbers produced
// after a silently failed operation are worse than no numbers.
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "bench: %s: %s\n", what, s.ToString().c_str());
    abort();
  }
}

// Benchmarks run against real files in a scratch directory on the default
// (POSIX) Env, whose counters classify every access as a seek or a
// sequential transfer; the device models convert those into the
// HDD/SSD-equivalent numbers the paper reports (DESIGN.md §1). The counters
// are process-wide, so benches take before/after deltas and keep one
// Workspace alive at a time.
class Workspace {
 public:
  explicit Workspace(const std::string& name)
      : dir_("/tmp/blsm_bench_" + name) {
    Cleanup();
    CheckOk(Env::Default()->CreateDir(dir_), "create scratch dir");
  }

  ~Workspace() { Cleanup(); }

  Env* env() { return Env::Default(); }
  const EnvIoCounters* stats() { return Env::Default()->io_counters(); }
  std::string Path(const std::string& sub) { return dir_ + "/" + sub; }

 private:
  void Cleanup() {
    Env::Default()->RemoveDirRecursive(dir_).IgnoreError(
        "scratch scrub; nothing to remove on the first run");
  }

  std::string dir_;
};

// Scale factor: BLSM_BENCH_SCALE=4 quadruples dataset/op counts. Default
// sizes keep every binary under ~a minute while still cycling each engine's
// merge machinery many times.
inline double Scale() {
  const char* s = getenv("BLSM_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = atof(s);
  return v > 0 ? v : 1.0;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * Scale());
}

// Paper-style geometry: values of 1000 bytes (§5.1); C0 sized so that
// |data|/|C0| lands in the paper's regime.
inline BlsmOptions DefaultBlsmOptions(Env* env) {
  BlsmOptions options;
  options.env = env;
  options.c0_target_bytes = 8 << 20;
  options.block_cache_bytes = 16 << 20;
  options.durability = DurabilityMode::kAsync;  // the paper's setting (§5.1)
  return options;
}

// The B-tree baseline, opened on `dir` through the engine registry (its
// buffer pool gets block_cache_bytes / 4096 pages). Aborts on failure.
inline std::unique_ptr<kv::Engine> OpenBTree(Env* env, const std::string& dir,
                                             size_t block_cache_bytes) {
  kv::CommonOptions options;
  options.env = env;
  options.block_cache_bytes = block_cache_bytes;
  std::unique_ptr<kv::Engine> engine;
  CheckOk(kv::Open("btree", options, dir, &engine), "open B-tree");
  return engine;
}

inline multilevel::MultilevelOptions DefaultMultilevelOptions(Env* env) {
  multilevel::MultilevelOptions options;
  options.env = env;
  // LevelDB's write buffer is tiny relative to bLSM's RAM-sized C0 (§5.1:
  // "LevelDB makes use of extremely small C0 components"). Scaled to this
  // harness's datasets, that is 1 MiB against bLSM's 8 MiB, and a level
  // geometry deep enough that data traverses several levels.
  options.memtable_bytes = 1 << 20;
  options.file_bytes = 1 << 20;
  options.base_level_bytes = 4 << 20;
  options.block_cache_bytes = 16 << 20;
  options.durability = DurabilityMode::kAsync;
  return options;
}

// --- machine-readable reporting ------------------------------------------

// Accumulates one row of metrics per (engine, config) cell and writes
// BENCH_<name>.json into the working directory when destroyed (or on an
// explicit Write()). On by default so CI and scripts can scrape results;
// BLSM_BENCH_JSON=0 disables the file.
class JsonReport {
 public:
  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, Quote(value));
      return *this;
    }
    Row& Num(const std::string& key, double value) {
      char buf[64];
      if (!std::isfinite(value)) {
        snprintf(buf, sizeof(buf), "null");
      } else if (value == std::floor(value) && std::fabs(value) < 1e15) {
        snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
      } else {
        snprintf(buf, sizeof(buf), "%.6g", value);
      }
      fields_.emplace_back(key, buf);
      return *this;
    }

   private:
    friend class JsonReport;
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
      }
      out += '"';
      return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReport(std::string name) : name_(std::move(name)) {
    const char* flag = getenv("BLSM_BENCH_JSON");
    enabled_ = flag == nullptr || std::string(flag) != "0";
  }
  ~JsonReport() { Write(); }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  // Common shape for driver results: label + throughput + latency + I/O.
  Row& AddRun(const ycsb::RunResult& r) {
    Row& row = AddRow();
    row.Str("label", r.label)
        .Num("ops", static_cast<double>(r.ops))
        .Num("elapsed_seconds", r.elapsed_seconds)
        .Num("ops_per_second", r.OpsPerSecond())
        .Num("errors", static_cast<double>(r.errors))
        .Num("latency_p50_us", r.latency_us.Percentile(50))
        .Num("latency_p99_us", r.latency_us.Percentile(99))
        .Num("read_seeks", static_cast<double>(r.io.read_seeks))
        .Num("read_bytes", static_cast<double>(r.io.read_bytes))
        .Num("write_bytes", static_cast<double>(r.io.write_bytes))
        .Num("syncs", static_cast<double>(r.io.syncs));
    return row;
  }

  // Idempotent: the first call writes the file, later calls are no-ops.
  void Write() {
    if (!enabled_ || written_) return;
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return;
    fprintf(f, "{\n  \"bench\": %s,\n  \"rows\": [\n",
            Row::Quote(name_).c_str());
    for (size_t i = 0; i < rows_.size(); i++) {
      fprintf(f, "    {");
      const auto& fields = rows_[i].fields_;
      for (size_t j = 0; j < fields.size(); j++) {
        fprintf(f, "%s%s: %s", j == 0 ? "" : ", ",
                Row::Quote(fields[j].first).c_str(), fields[j].second.c_str());
      }
      fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("\nwrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  bool enabled_;
  bool written_ = false;
  std::vector<Row> rows_;
};

// --- reporting -----------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  printf("\n================================================================\n");
  printf("%s\n", title.c_str());
  printf("================================================================\n");
}

inline void PrintIoProfile(const char* label,
                           const EnvIoCounters::Snapshot& io,
                           uint64_t ops) {
  double per_op = ops > 0 ? static_cast<double>(io.read_seeks) / ops : 0;
  printf("  %-28s read-seeks=%-8" PRIu64 " (%.2f/op)  read-MB=%-7.1f "
         "write-MB=%-7.1f write-seeks=%" PRIu64 "\n",
         label, io.read_seeks, per_op,
         static_cast<double>(io.read_bytes) / 1e6,
         static_cast<double>(io.write_bytes) / 1e6, io.write_seeks);
}

// Device-model throughput: what this I/O profile would sustain on the
// paper's HDD and SSD arrays.
inline void PrintModeledThroughput(const char* label, uint64_t ops,
                                   const EnvIoCounters::Snapshot& io) {
  DeviceModel hdd = HardDiskArray();
  DeviceModel ssd = SsdArray();
  printf("  %-28s hdd-model=%9.0f ops/s   ssd-model=%9.0f ops/s\n", label,
         hdd.OpsPerSecond(ops, io), ssd.OpsPerSecond(ops, io));
}

}  // namespace blsm::bench

#endif  // BLSM_BENCH_HARNESS_H_
