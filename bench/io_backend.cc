// IO-backend micro-benchmark: measures what the batched/async Env layer buys
// on the one hot path that exploits it, cold-read MultiGet. One bLSM tree is
// built once, then reopened read-only (small block cache) under each Env
// stack:
//     unbatched     every block read is a lone pread
//                   (UnbatchedEnv — the synchronous baseline)
//     posix         MultiRead coalesces contiguous runs into preadv
//     uring         MultiRead = one batched io_uring submission
//     uring-direct  the same under O_DIRECT
//                   (uring rows are skipped when the kernel lacks io_uring)
//
// Merges and compactions issue no MultiRead and no readahead hints, so every
// stack runs identical code there; this bench does not time them.
//
// Every returned value is checked against the value the build wrote, so the
// stacks are also a parity check: the bench exits 1 if any batched read
// returns a wrong value.
//
// Writes BENCH_io_backend.json with one row per mode.

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
  uint64_t value_mismatches = 0;    // over all repetitions
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
// schedule, keep the minimum elapsed time. `expected[id]` is the value the
// build wrote for record `id`.
void RunMultiGetRep(MultiGetPass* pass, const std::string& dir,
                    const std::vector<std::string>& expected, int batches,
                    size_t batch_size) {
  DropPageCache(dir);
  const EnvIoCounters* io = pass->env->io_counters();
  EnvIoCounters::Snapshot before = io->snapshot();
  Random rnd(0xb10c);
  std::vector<uint64_t> ids(batch_size);
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
      ids[i] = rnd.Uniform(expected.size());
      key_storage[i] = ycsb::FormatKey(ids[i], false);
      keys[i] = key_storage[i];
    }
    std::vector<Status> statuses = pass->tree->MultiGet(keys, &values);
    for (size_t i = 0; i < batch_size; i++) {
      CheckOk(statuses[i], "multiget");
      if (values[i] != expected[ids[i]]) pass->value_mismatches++;
    }
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

  // Build once, probe under each stack.
  printf("\ncold-read MultiGet (%d batches x %zu scattered keys):\n",
         kBatches, kBatchSize);
  std::vector<std::string> expected;
  expected.reserve(kRecords);
  {
    BlsmOptions o = DefaultBlsmOptions(posix);
    std::unique_ptr<BlsmTree> tree;
    CheckOk(BlsmTree::Open(o, ws.Path("blsm"), &tree), "build tree");
    ycsb::ValueGenerator values(13);
    for (uint64_t i = 0; i < kRecords; i++) {
      expected.push_back(values.Next(i, 500));
      CheckOk(tree->Put(ycsb::FormatKey(i, false), expected.back()),
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
      RunMultiGetRep(&pass, ws.Path("blsm"), expected, kBatches, kBatchSize);
    }
  }
  double base_mg = 0, best_mg = 1e30;
  uint64_t mismatches = 0;
  for (const MultiGetPass& pass : mg_passes) {
    ReportMultiGetPass(pass, kBatches, kBatchSize, report);
    if (pass.value_mismatches != 0) {
      fprintf(stderr, "io_backend: %s returned %" PRIu64 " wrong values\n",
              pass.mode, pass.value_mismatches);
      mismatches += pass.value_mismatches;
    }
    if (std::string(pass.mode) == "unbatched") {
      base_mg = pass.elapsed;
    } else if (std::string(pass.mode) != "uring-direct") {
      best_mg = std::min(best_mg, pass.elapsed);
    }
  }

  printf("\nbest-batched speedup vs unbatched baseline: multiget %.2fx\n",
         base_mg / std::max(best_mg, 1e-9));
  return mismatches == 0 ? 0 : 1;
}
