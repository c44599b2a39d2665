#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Outside-in tracing for the traced benchmark run. Every layer is timed at
// its public entry points, never from inside src/:
//
//   * client  — one span per request, from its intended send time to the
//               response (recorded by the load generator);
//   * engine  — a kv::Engine decorator registered as "traced-blsm" and
//               selected through ServerOptions::engine_spec;
//   * wal/io  — a timing Env passed as CommonOptions::env. Calls made while
//               the calling thread is inside an engine call are foreground
//               and become children of that engine span; all others
//               (merge threads) are background.
//
// Spans stay in per-thread memory while the run is traced and are written
// out once at exit. A span's self time is its duration minus child_ns.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/kv.h"
#include "io/env.h"

namespace perfbench {

enum class Layer : uint8_t { kClient, kEngine, kWal, kIo };

enum class Op : uint8_t {
  kGet,       // client GET / engine Get or MultiGet
  kPut,       // client PUT / engine Write, Put or Delete
  kScan,      // client SCAN / engine Scan
  kAppend,    // wal: Append on the log file
  kRead,      // io
  kWrite,     // io (non-log appends)
  kSync,      // io and wal
};

const char* LayerName(Layer l);
const char* OpName(Op op);

struct Span {
  uint64_t id = 0;      // client spans: request id; others: unique span id
  uint64_t parent = 0;  // enclosing engine span, 0 when none
  int64_t start_ns = 0;  // client spans: the intended send time
  int64_t end_ns = 0;
  uint64_t child_ns = 0;  // time covered by child spans (engine spans)
  uint64_t arg = 0;  // io/wal: bytes; engine: keys; client: send lag (ns)
  uint32_t thread = 0;
  uint8_t phase = 0;
  Layer layer = Layer::kClient;
  Op op = Op::kGet;
};

int64_t NowNs();

// Process-wide span sink. Recording is off until Enable(); each thread
// appends to its own buffer, so the hot path takes no shared lock.
class Recorder {
 public:
  static Recorder& Get();

  void Enable(uint8_t phase) {
    phase_.store(phase, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  uint8_t phase() const { return phase_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Fills in thread and phase.
  void Record(Span span);

  // Every span recorded so far; call once the recording threads are idle.
  std::vector<Span> Collect() const;
  uint64_t dropped() const { return dropped_.load(); }

 private:
  // A background IO call still in flight when recording stops may append
  // while Collect() copies, so each buffer has its own (uncontended) lock.
  struct Buffer {
    uint32_t thread = 0;
    std::mutex mu;
    std::vector<Span> spans;  // guarded by mu
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint8_t> phase_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// One line per span, tab-separated, with a header line.
bool WriteSpansTsv(const std::vector<Span>& spans, const std::string& path);

// A wrapper around the Env::Default() stack that times every file call.
std::unique_ptr<blsm::Env> NewTimingEnv(blsm::Env* base);

// Registers the "traced-blsm" engine (idempotent).
void RegisterTracedEngine();

// Stats() of every open traced shard, in shard order: Server::Stats() sums
// the shards, so per-shard figures need the decorator.
std::vector<std::map<std::string, uint64_t>> TracedShardStats();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
