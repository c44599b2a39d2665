// google-benchmark microbenchmarks for the substrates: Bloom filter,
// skiplist/memtable, CRC32C, hashing, Zipfian generation, block cache, and
// WAL appends. Sanity checks that no substrate is pathologically slow
// relative to the I/O costs the paper reasons about. BM_BlsmLoadDrain is
// the one whole-tree case: the CPU cost of bLSM's merges.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "bloom/bloom_filter.h"
#include "buffer/block_cache.h"
#include "harness.h"
#include "io/mem_env.h"
#include "memtable/memtable.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/zipfian.h"
#include "wal/log_writer.h"

namespace blsm {
namespace {

void BM_BloomInsert(benchmark::State& state) {
  BloomFilter filter(1000000, 10.0);
  uint64_t i = 0;
  for (auto _ : state) {
    filter.InsertHash(Hash64(reinterpret_cast<const char*>(&i), 8, 0));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilter filter(1000000, 10.0);
  for (uint64_t i = 0; i < 1000000; i++) {
    filter.InsertHash(Hash64(reinterpret_cast<const char*>(&i), 8, 0));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter.MayContainHash(Hash64(reinterpret_cast<const char*>(&i), 8, 0)));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_MemTableAdd(benchmark::State& state) {
  auto mem = std::make_unique<MemTable>();
  Random rnd(1);
  std::string value(state.range(0), 'v');
  char key[32];
  uint64_t seq = 0;
  for (auto _ : state) {
    snprintf(key, sizeof(key), "key%016llu",
             static_cast<unsigned long long>(rnd.Next()));
    mem->Add(++seq, RecordType::kBase, key, value);
    if (mem->ApproximateMemoryUsage() > (256u << 20)) {
      state.PauseTiming();
      mem = std::make_unique<MemTable>();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableAdd)->Arg(100)->Arg(1000);

void BM_MemTableLookup(benchmark::State& state) {
  MemTable mem;
  const uint64_t kN = 100000;
  char key[32];
  for (uint64_t i = 0; i < kN; i++) {
    snprintf(key, sizeof(key), "key%016llu",
             static_cast<unsigned long long>(i));
    mem.Add(i + 1, RecordType::kBase, key, "value");
  }
  Random rnd(2);
  for (auto _ : state) {
    snprintf(key, sizeof(key), "key%016llu",
             static_cast<unsigned long long>(rnd.Uniform(kN)));
    mem.ForEachVersion(key, [](RecordType, const Slice&) { return false; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableLookup);

// The dispatched routine (SSE4.2 where the CPU has it) and the portable table
// routine, at one WAL record (1040 B), one block and one large run.
void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(1040)->Arg(4096)->Arg(32768);

void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(1040)->Arg(4096)->Arg(32768);

void BM_Hash64(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(data.data(), data.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(100)->Arg(1000);

void BM_ZipfianNext(benchmark::State& state) {
  ScrambledZipfianGenerator gen(10000000, 1);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void BM_BlockCacheHit(benchmark::State& state) {
  BlockCache cache(64 << 20);
  for (uint64_t i = 0; i < 1000; i++) {
    cache.Insert(1, i * 4096, std::make_shared<const std::string>(4096, 'b'));
  }
  Random rnd(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(1, rnd.Uniform(1000) * 4096));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheHit);

// One read miss at steady state: a Lookup that misses, then an Insert into a
// full cache that must evict. The argument is the capacity in MiB; per-insert
// cost should not grow with it. Every entry shares one 4 KiB block, so the
// 512 MiB case charges 512 MiB without allocating it.
void BM_BlockCacheMissInsert(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0)) << 20;
  BlockCache cache(capacity);
  auto block = std::make_shared<const std::string>(4096, 'b');
  uint64_t next = 0;
  for (; next < 2 * capacity / 4096; next++) {
    cache.Insert(1, next * 4096, block);
  }
  for (auto _ : state) {
    const uint64_t offset = next++ * 4096;
    benchmark::DoNotOptimize(cache.Lookup(1, offset));
    cache.Insert(1, offset, block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheMissInsert)->Arg(32)->Arg(512);

void BM_WalAppend(benchmark::State& state) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  if (!env.NewWritableFile("log", &file).ok()) {
    state.SkipWithError("NewWritableFile failed");
    return;
  }
  wal::LogWriter writer(std::move(file));
  std::string record(state.range(0), 'r');
  for (auto _ : state) {
    Status s = writer.AddRecord(record);
    if (!s.ok()) {
      state.SkipWithError("wal append failed");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalAppend)->Arg(128)->Arg(1100);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram hist;
  Random rnd(4);
  for (auto _ : state) hist.Add(rnd.Uniform(1000000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

double CpuSeconds(const rusage& ru) {
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Load and drain: range(0) thousand random-key 1000 B Puts into a kAsync
// BlsmTree with an 8 MiB C0 on real files (Env::Default()), then
// WaitIdle, so every C0->C1 and C1->C2 merge the load triggers runs
// to completion inside the timed region. One iteration; the time is
// wall-clock. The counters are getrusage(RUSAGE_SELF) deltas over the same
// region, so cpu_s covers every thread (writer and both merge threads) and
// vol_ctx_switches counts the hand-offs between them.
void BM_BlsmLoadDrain(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0)) * 1000;
  for (auto _ : state) {
    state.PauseTiming();
    auto ws = std::make_unique<bench::Workspace>("load_drain");
    std::unique_ptr<BlsmTree> tree;
    bench::CheckOk(BlsmTree::Open(bench::DefaultBlsmOptions(ws->env()),
                                  ws->Path("db"), &tree),
                   "open");
    Random rnd(301);
    const std::string value(1000, 'v');
    char key[32];
    rusage before;
    getrusage(RUSAGE_SELF, &before);
    state.ResumeTiming();

    for (uint64_t i = 0; i < n; i++) {
      snprintf(key, sizeof(key), "key%016llu",
               static_cast<unsigned long long>(rnd.Next()));
      bench::CheckOk(tree->Put(key, value), "put");
    }
    tree->WaitIdle();

    state.PauseTiming();
    rusage after;
    getrusage(RUSAGE_SELF, &after);
    const BlsmStats& st = tree->stats();
    state.counters["cpu_s"] = CpuSeconds(after) - CpuSeconds(before);
    state.counters["vol_ctx_switches"] =
        static_cast<double>(after.ru_nvcsw - before.ru_nvcsw);
    state.counters["merge_MiB"] =
        static_cast<double>(st.merge1_bytes_out.load() +
                            st.merge2_bytes_out.load()) /
        (1 << 20);
    state.counters["merge1_passes"] =
        static_cast<double>(st.merge1_passes.load());
    state.counters["merge2_passes"] =
        static_cast<double>(st.merge2_passes.load());
    tree.reset();
    ws.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_BlsmLoadDrain)
    ->Arg(300)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kSecond);

}  // namespace
}  // namespace blsm

BENCHMARK_MAIN();
