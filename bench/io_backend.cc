// IO-backend micro-benchmark: measures what the batched/async Env layer buys
// on the two hot paths that exploit it.
//
//   Phase 1 — cold-read MultiGet: one bLSM tree built once, then reopened
//   read-only (no block cache) under three Env stacks:
//     unbatched   every block read is a lone pread, hints dropped
//                 (UnbatchedEnv — the synchronous baseline)
//     posix       MultiRead coalesces contiguous runs into preadv,
//                 ReadAheadHint = fadvise(WILLNEED)
//     uring       MultiRead = one batched io_uring submission
//                 (skipped when the kernel lacks io_uring)
//
//   Phase 2 — compaction wall-clock: identical random loads into a
//   multilevel tree, varying the Env stack and the parallel-output-build
//   knob; the measured interval covers the load plus CompactAll(), i.e. the
//   full merge cascade with its readahead-hinted inputs.
//
// Writes BENCH_io_backend.json with one row per (phase, mode).

#include <fcntl.h>
#include <unistd.h>

#include <chrono>

#include "harness.h"
#include "io/unbatched_env.h"
#include "io/uring_env.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace {

using namespace blsm;
using namespace blsm::bench;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Evicts every file under `dir` from the page cache so the next pass
// performs real device reads ("cold" means cold). Best-effort: on
// filesystems that ignore DONTNEED (tmpfs) the bench still runs, just warm.
void DropPageCache(const std::string& dir) {
  std::vector<std::string> children;
  if (!Env::Default()->GetChildren(dir, &children).ok()) return;
  for (const std::string& name : children) {
    std::string path = dir + "/" + name;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

// Phase 1 state: one read-only reopen of the shared tree per Env stack.
// Repetitions for all modes are interleaved round-robin by the caller, so
// slow drift in ambient disk latency (shared-host fsync noise) hits every
// mode equally instead of biasing whichever ran last.
struct MultiGetPass {
  const char* mode = "";
  Env* env = nullptr;
  std::unique_ptr<BlsmTree> tree;
  double elapsed = 1e30;            // min over repetitions
  EnvIoCounters::Snapshot per_rep;  // counter deltas of the first rep
  bool have_counters = false;
};

void OpenMultiGetPass(MultiGetPass* pass, const std::string& dir) {
  BlsmOptions o;
  o.env = pass->env;
  // Small cache: index blocks (a few hundred KB) stay resident after the
  // first descents while the ~10x larger data working set keeps missing —
  // so the measured path is exactly the batched data-block MultiRead.
  o.block_cache_bytes = 2 << 20;
  o.read_only = true;
  CheckOk(BlsmTree::Open(o, dir, &pass->tree), "read-only reopen");
}

// One repetition: evict the page cache, replay the identical batch
// schedule, keep the minimum elapsed time.
void RunMultiGetRep(MultiGetPass* pass, const std::string& dir,
                    uint64_t records, int batches, size_t batch_size) {
  DropPageCache(dir);
  const EnvIoCounters* io = pass->env->io_counters();
  EnvIoCounters::Snapshot before = io->snapshot();
  Random rnd(0xb10c);
  std::vector<std::string> key_storage(batch_size);
  std::vector<Slice> keys(batch_size);
  std::vector<std::string> values;
  double t0 = Now();
  for (int b = 0; b < batches; b++) {
    // Scattered keys: each lands in its own data block, so the batch is 64
    // independent cold block reads. A synchronous backend issues them one
    // at a time; a batched one hands the whole set to the kernel in a
    // single submission and lets the device's queue depth absorb them.
    for (size_t i = 0; i < batch_size; i++) {
      key_storage[i] = ycsb::FormatKey(rnd.Uniform(records), false);
      keys[i] = key_storage[i];
    }
    std::vector<Status> statuses = pass->tree->MultiGet(keys, &values);
    for (const Status& s : statuses) CheckOk(s, "multiget");
  }
  pass->elapsed = std::min(pass->elapsed, Now() - t0);
  if (!pass->have_counters) {
    pass->per_rep = io->snapshot() - before;
    pass->have_counters = true;
  }
}

void ReportMultiGetPass(const MultiGetPass& pass, int batches,
                        size_t batch_size, JsonReport& report) {
  printf("  %-12s %8.3f s  %9.0f keys/s  batches=%" PRIu64 " reqs=%" PRIu64
         "\n",
         pass.mode, pass.elapsed,
         static_cast<double>(batches) * batch_size / pass.elapsed,
         pass.per_rep.multiread_batches, pass.per_rep.multiread_requests);
  report.AddRow()
      .Str("phase", "multiget_cold")
      .Str("mode", pass.mode)
      .Num("elapsed_seconds", pass.elapsed)
      .Num("keys_per_second",
           static_cast<double>(batches) * batch_size / pass.elapsed)
      .Num("io_read_bytes", static_cast<double>(pass.per_rep.read_bytes))
      .Num("io_multiread_batches",
           static_cast<double>(pass.per_rep.multiread_batches))
      .Num("io_multiread_requests",
           static_cast<double>(pass.per_rep.multiread_requests));
}

multilevel::MultilevelOptions CompactionBenchOptions(Env* env) {
  multilevel::MultilevelOptions o;
  o.env = env;
  o.memtable_bytes = 1 << 20;
  o.file_bytes = 1 << 20;
  o.base_level_bytes = 2 << 20;
  o.block_cache_bytes = 4 << 20;
  o.durability = DurabilityMode::kAsync;
  // No write stalls: the bench measures the merge cascade, not pacing.
  o.l0_slowdown_trigger = 10000;
  o.l0_stop_trigger = 10000;
  return o;
}

// Phase 2 staging: load the dataset with compaction disabled (trigger set
// unreachably high), leaving a deterministic stack of whole-memtable L0
// runs. Every mode starts its measured cascade from this identical state.
void StageL0Runs(const std::string& dir, uint64_t records) {
  multilevel::MultilevelOptions o = CompactionBenchOptions(Env::Default());
  o.l0_compaction_trigger = 10000;
  std::unique_ptr<multilevel::MultilevelTree> tree;
  CheckOk(multilevel::MultilevelTree::Open(o, dir, &tree), "stage open");
  ycsb::ValueGenerator values(17);
  Random rnd(7);
  for (uint64_t i = 0; i < records; i++) {
    uint64_t id = rnd.Uniform(records);
    CheckOk(tree->Put(ycsb::FormatKey(id, false), values.Next(id, 500)),
            "stage put");
  }
  tree->WaitForIdle();  // drain pending flushes; compactions never trigger
}

// Phase 2, one repetition: stage a fresh deterministic L0 stack, drop the
// page cache, then measure reopen (WAL replay of the unflushed tail —
// identical per mode) plus the full CompactAll cascade. The caller
// interleaves repetitions across modes and keeps the per-mode minimum.
struct CompactionResult {
  double elapsed = 1e30;
  uint64_t parallel_builds = 0;
  uint64_t compaction_bytes = 0;
};

void RunCompactionRep(Env* env, const std::string& dir, uint64_t records,
                      int builder_threads, CompactionResult* out) {
  StageL0Runs(dir, records);
  // No page-cache eviction here, deliberately: L0 runs enter a real cascade
  // moments after the flush that wrote them, i.e. page-cache warm. That
  // also makes the measurement honest about where the backend helps — the
  // merge is CPU + write/fsync bound, which is exactly what parallel
  // output builds overlap.
  multilevel::MultilevelOptions o = CompactionBenchOptions(env);
  o.compaction_builder_threads = builder_threads;
  double t0 = Now();
  std::unique_ptr<multilevel::MultilevelTree> tree;
  CheckOk(multilevel::MultilevelTree::Open(o, dir, &tree), "open multilevel");
  CheckOk(tree->CompactAll(), "compact all");
  out->elapsed = std::min(out->elapsed, Now() - t0);
  out->parallel_builds = tree->stats().parallel_output_builds.load();
  out->compaction_bytes = tree->stats().compaction_bytes.load();
  tree.reset();
  Env::Default()->RemoveDirRecursive(dir).IgnoreError("scratch scrub");
}

}  // namespace

int main() {
  const uint64_t kRecords = Scaled(30000);
  const int kBatches = 300;
  const size_t kBatchSize = 64;

  PrintHeader("IO backend: batched/async Env vs synchronous baseline");
  printf("dataset: %" PRIu64 " records x 500 B\n", kRecords);

  JsonReport report("io_backend");
  Workspace ws("io_backend");
  Env* posix = Env::Default();
  UnbatchedEnv unbatched(posix);
  const bool have_uring = UringEnv::Supported();
  if (!have_uring) {
    printf("io_uring unavailable on this kernel; uring rows skipped\n");
  }

  // --- Phase 1: build once, probe under each stack -------------------------
  printf("\ncold-read MultiGet (%d batches x %zu scattered keys):\n",
         kBatches, kBatchSize);
  {
    BlsmOptions o = DefaultBlsmOptions(posix);
    std::unique_ptr<BlsmTree> tree;
    CheckOk(BlsmTree::Open(o, ws.Path("blsm"), &tree), "build tree");
    ycsb::ValueGenerator values(13);
    for (uint64_t i = 0; i < kRecords; i++) {
      CheckOk(tree->Put(ycsb::FormatKey(i, false), values.Next(i, 500)),
              "build put");
    }
    CheckOk(tree->CompactToBottom(), "compact to bottom");
  }
  UringEnv uring(posix);
  UringEnvOptions dopts;
  dopts.direct_io = true;
  UringEnv uring_direct(posix, dopts);

  std::vector<MultiGetPass> mg_passes;
  auto add_mg_mode = [&mg_passes](const char* mode, Env* env) {
    MultiGetPass pass;
    pass.mode = mode;
    pass.env = env;
    mg_passes.push_back(std::move(pass));
  };
  add_mg_mode("unbatched", &unbatched);
  add_mg_mode("posix", posix);
  if (have_uring) {
    add_mg_mode("uring", &uring);
    // O_DIRECT bypasses the page cache entirely: every data-block read is a
    // device read regardless of eviction — the honest cold-read floor.
    add_mg_mode("uring-direct", &uring_direct);
  }
  for (MultiGetPass& pass : mg_passes) {
    OpenMultiGetPass(&pass, ws.Path("blsm"));
  }
  // Round-robin repetitions: rep r of every mode runs before rep r+1 of
  // any, so ambient latency drift cannot favor one mode over another.
  constexpr int kMultiGetReps = 4;
  for (int rep = 0; rep < kMultiGetReps; rep++) {
    for (MultiGetPass& pass : mg_passes) {
      RunMultiGetRep(&pass, ws.Path("blsm"), kRecords, kBatches, kBatchSize);
    }
  }
  double base_mg = 0, best_mg = 1e30;
  for (const MultiGetPass& pass : mg_passes) {
    ReportMultiGetPass(pass, kBatches, kBatchSize, report);
    if (std::string(pass.mode) == "unbatched") {
      base_mg = pass.elapsed;
    } else if (std::string(pass.mode) != "uring-direct") {
      best_mg = std::min(best_mg, pass.elapsed);
    }
  }

  // --- Phase 2: identical staged L0 stacks, measured cascade per stack -----
  printf(
      "\nCompactAll cascade wall-clock (freshly staged L0 runs, cache-warm "
      "as after real flushes):\n");
  struct CompactionMode {
    const char* name;
    Env* env;
    int threads;
  };
  std::vector<CompactionMode> modes = {
      {"unbatched-serial", &unbatched, 1},
      {"posix-serial", posix, 1},
      {"posix-parallel", posix, 2},
  };
  if (have_uring) modes.push_back({"uring-parallel", &uring, 2});
  std::vector<CompactionResult> results(modes.size());
  // A deeper stack than phase 1's dataset: more output files per cascade
  // averages out per-fsync latency variance on shared hosts, which would
  // otherwise dwarf the effect being measured.
  const uint64_t kCompactionRecords = 2 * kRecords;
  constexpr int kCompactionReps = 5;
  for (int rep = 0; rep < kCompactionReps; rep++) {
    for (size_t i = 0; i < modes.size(); i++) {
      std::string dir = ws.Path(std::string("ml_") + modes[i].name);
      RunCompactionRep(modes[i].env, dir, kCompactionRecords,
                       modes[i].threads, &results[i]);
    }
  }
  double base_cp = 0, best_cp = 1e30;
  for (size_t i = 0; i < modes.size(); i++) {
    const CompactionResult& r = results[i];
    printf("  %-22s %8.3f s  %6.1f MB compacted  parallel_builds=%" PRIu64
           "\n",
           modes[i].name, r.elapsed,
           static_cast<double>(r.compaction_bytes) / 1e6, r.parallel_builds);
    report.AddRow()
        .Str("phase", "compaction")
        .Str("mode", modes[i].name)
        .Num("elapsed_seconds", r.elapsed)
        .Num("compaction_bytes", static_cast<double>(r.compaction_bytes))
        .Num("parallel_output_builds",
             static_cast<double>(r.parallel_builds));
    if (std::string(modes[i].name) == "unbatched-serial") {
      base_cp = r.elapsed;
    } else {
      best_cp = std::min(best_cp, r.elapsed);
    }
  }

  printf("\nbest-batched speedup vs unbatched baseline: multiget %.2fx, "
         "compaction %.2fx\n",
         base_mg / std::max(best_mg, 1e-9),
         base_cp / std::max(best_cp, 1e-9));
  return 0;
}
