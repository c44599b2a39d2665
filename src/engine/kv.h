#ifndef BLSM_ENGINE_KV_H_
#define BLSM_ENGINE_KV_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/background_runner.h"
#include "engine/write_batch.h"
#include "io/env.h"
#include "lsm/merge_operator.h"
#include "util/status.h"
#include "wal/logical_log.h"

namespace blsm::kv {

// Options every engine understands; engine-specific tuning keeps its
// concrete options struct (BlsmTree::Open / MultilevelTree::Open take it
// and return a tree that is itself a kv::Engine). The fields map
// onto each engine's closest equivalent: write_buffer_bytes is bLSM's C0
// target, the multilevel tree's memtable, and sizes the B-tree's buffer
// pool; durability and the background policy are ignored by the B-tree
// (no WAL, no background work).
struct CommonOptions {
  Env* env = nullptr;  // nullptr -> Env::Default()
  size_t write_buffer_bytes = 8 << 20;
  size_t block_cache_bytes = 32 << 20;
  DurabilityMode durability = DurabilityMode::kAsync;
  engine::BackgroundPolicy background;
  std::shared_ptr<const MergeOperator> merge_operator;
  // Open an existing database without mutating it (no creation, no
  // recovery rewrites, no background threads); writes fail NotSupported.
  bool read_only = false;
  // Compaction-policy spec for the multilevel engine ("leveling",
  // "leveling-whole", "tiering", "lazy-leveling", optional "@<tier_runs>";
  // see engine::ParseCompactionConfig). Empty selects the default leveling
  // partition scheduler. Other engines reject a non-empty spec with
  // InvalidArgument. kv::Open also accepts it inline as "multilevel:<spec>".
  std::string compaction_policy;
};

// Per-read tuning; passed by const reference so call sites can use a
// default-constructed temporary. Empty today: no per-read setting has
// earned its place yet.
struct ReadOptions {};

// The unified engine interface: one API over bLSM, the multilevel LevelDB
// stand-in, and the B-tree, so drivers, benches, and tools exercise all
// three through identical code paths (the paper's whole evaluation setup).
// BlsmTree and MultilevelTree implement it directly; the B-tree is reached
// through kv::Open("btree"), whose adapter supplies the LSM delete
// semantics and a read-only gate.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string Name() const = 0;

  // Blind upsert (LSMs) / update-in-place upsert (B-tree).
  virtual Status Put(const Slice& key, const Slice& value) = 0;
  // Applies a WriteBatch as one write: the LSM engines commit it under one
  // sequence-number range and one WAL record group (a single group-commit
  // sync pays for the whole batch); the B-tree applies the entries in order
  // under its operation mutex. Atomic for durability, not for readers.
  virtual Status Write(const WriteBatch& batch) = 0;
  virtual Status Get(const Slice& key, std::string* value) = 0;
  // Batched point lookups: statuses/values align with keys, all answered
  // against one consistent view of the store. The LSM engines pin a single
  // read view for the whole batch (bLSM additionally sorts the probe set
  // and coalesces block reads); the default implementation is a Get loop.
  virtual std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                                       std::vector<std::string>* values) {
    values->assign(keys.size(), std::string());
    std::vector<Status> statuses(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      statuses[i] = Get(keys[i], &(*values)[i]);
    }
    return statuses;
  }
  // Blind delete: removing an absent key succeeds, for every engine (LSM
  // tombstone semantics; kv::Open("btree") maps the B-tree's NotFound to
  // OK).
  virtual Status Delete(const Slice& key) = 0;
  // Returns KeyExists without writing if the key is present.
  virtual Status InsertIfNotExists(const Slice& key, const Slice& value) = 0;
  virtual Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string& old, bool absent)>&
          update) = 0;
  virtual Status Scan(
      const ReadOptions& options, const Slice& start, size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) = 0;
  // Convenience overload with default ReadOptions.
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) {
    return Scan(ReadOptions(), start, limit, out);
  }

  // Pushes buffered writes down one durable step (memtable flush /
  // checkpoint) and waits for it.
  virtual Status Flush() = 0;
  // Quiesces all background work (merges / compactions / checkpoints).
  virtual void WaitIdle() = 0;
  // The latched background error, or OK (always OK for engines without
  // background work).
  virtual Status BackgroundError() const = 0;

  // Named counters for tests, benches, and `blsm_inspect stats`. Keys are
  // engine-specific but stable (e.g. "puts", "merge1_passes").
  virtual std::map<std::string, uint64_t> Stats() const = 0;
};

// String-keyed factory registry. Built-ins: "blsm", "multilevel", "btree".
using EngineFactory = std::function<Status(
    const CommonOptions&, const std::string& dir, std::unique_ptr<Engine>*)>;

// Registers (or replaces) a factory under `name`.
void RegisterEngine(const std::string& name, EngineFactory factory);

// Opens the named engine on `dir` (created if absent, unless read_only).
// NotFound for an unregistered name.
Status Open(const std::string& name, const CommonOptions& options,
            const std::string& dir, std::unique_ptr<Engine>* out);

// Registered names, sorted.
std::vector<std::string> EngineNames();

// The io.* key block every engine's Stats() reports: the Env stack's
// terminal counters (decorators forward io_counters() down to the
// terminal). A stack with no counting terminal reports zeros so the keys
// stay present.
inline void AddIoStats(const EnvIoCounters* io,
                       std::map<std::string, uint64_t>* stats) {
  const EnvIoCounters::Snapshot c =
      io != nullptr ? io->snapshot() : EnvIoCounters::Snapshot{};
  (*stats)["io.read_bytes"] = c.read_bytes;
  (*stats)["io.write_bytes"] = c.write_bytes;
  (*stats)["io.syncs"] = c.syncs;
  (*stats)["io.multiread_batches"] = c.multiread_batches;
  (*stats)["io.multiread_requests"] = c.multiread_requests;
  (*stats)["io.ring_writes"] = c.ring_writes;
  (*stats)["io.direct_write_fallbacks"] = c.direct_write_fallbacks;
}

}  // namespace blsm::kv

#endif  // BLSM_ENGINE_KV_H_
