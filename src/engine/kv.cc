#include "engine/kv.h"

#include <algorithm>
#include <utility>

#include "btree/btree.h"
#include "engine/compaction_policy.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm::kv {

std::vector<Status> Engine::MultiGet(const std::vector<Slice>& keys,
                                     std::vector<std::string>* values) {
  // Default: a Get loop. No single-view guarantee beyond what consecutive
  // Gets give; engines with a real batched path override this.
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    statuses[i] = Get(keys[i], &(*values)[i]);
  }
  return statuses;
}

namespace {

// Shared io.* key block: each engine reports its Env stack's terminal
// counters (decorators forward io_counters() down to the terminal). A stack
// with no counting terminal reports zeros so the keys stay present.
void AddIoStats(const EnvIoCounters* io,
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

// --- adapters ---------------------------------------------------------------

// Each adapter optionally owns the tree (registry opens) or borrows it
// (Wrap* over a tree the caller keeps for engine-specific access).

class BlsmEngine : public Engine {
 public:
  BlsmEngine(BlsmTree* tree, std::unique_ptr<BlsmTree> owned)
      : tree_(tree), owned_(std::move(owned)) {}

  std::string Name() const override { return "bLSM"; }

  Status Put(const Slice& key, const Slice& value) override {
    return tree_->Put(key, value);
  }
  Status Write(const WriteBatch& batch) override {
    return tree_->Write(batch);
  }
  Status Get(const Slice& key, std::string* value) override {
    return tree_->Get(key, value);
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    return tree_->MultiGet(keys, values);
  }
  Status Delete(const Slice& key) override { return tree_->Delete(key); }
  Status InsertIfNotExists(const Slice& key, const Slice& value) override {
    return tree_->InsertIfNotExists(key, value);
  }
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string&, bool)>& update)
      override {
    return tree_->ReadModifyWrite(key, update);
  }
  Status Scan(const ReadOptions& /*options*/, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return tree_->Scan(start, limit, out);
  }
  Status Flush() override { return tree_->Flush(); }
  void WaitIdle() override { tree_->WaitForMergeIdle(); }
  Status BackgroundError() const override { return tree_->BackgroundError(); }

  std::map<std::string, uint64_t> Stats() const override {
    const BlsmStats& s = tree_->stats();
    const LogicalLog::Counters wal = tree_->WalCounters();
    std::map<std::string, uint64_t> stats = {
        {"puts", s.puts.load()},
        {"gets", s.gets.load()},
        {"deletes", s.deletes.load()},
        {"deltas", s.deltas.load()},
        {"insert_if_not_exists", s.insert_if_not_exists.load()},
        {"bloom_skips", s.bloom_skips.load()},
        {"write.stalls", s.write_stalls.load()},
        {"write_stall_micros", s.write_stall_micros.load()},
        {"write.max_stall_micros", s.max_stall_micros.load()},
        {"merge1_passes", s.merge1_passes.load()},
        {"merge2_passes", s.merge2_passes.load()},
        {"merge1_bytes_out", s.merge1_bytes_out.load()},
        {"merge2_bytes_out", s.merge2_bytes_out.load()},
        {"merge_retries", s.merge_retries.load()},
        {"orphans_scavenged", s.orphans_scavenged.load()},
        {"on_disk_bytes", tree_->OnDiskBytes()},
        {"c0_live_bytes", tree_->C0LiveBytes()},
        {"wal.records", wal.records},
        {"wal.batches", wal.batches},
        {"wal.syncs", wal.syncs},
        {"wal.records_per_batch",
         wal.batches != 0 ? wal.records / wal.batches : 0},
        {"block_cache.hits", tree_->CacheHits()},
        {"block_cache.misses", tree_->CacheMisses()},
        {"read.views_pinned", s.views_pinned.load()},
        {"read.multiget_batches", s.multiget_batches.load()},
        {"read.blocks_coalesced", s.blocks_coalesced.load()},
    };
    AddIoStats(tree_->IoCounters(), &stats);
    return stats;
  }

 private:
  BlsmTree* tree_;
  std::unique_ptr<BlsmTree> owned_;
};

class MultilevelEngine : public Engine {
 public:
  MultilevelEngine(multilevel::MultilevelTree* tree,
                   std::unique_ptr<multilevel::MultilevelTree> owned)
      : tree_(tree), owned_(std::move(owned)) {}

  std::string Name() const override { return "LevelDB-like"; }

  Status Put(const Slice& key, const Slice& value) override {
    return tree_->Put(key, value);
  }
  Status Write(const WriteBatch& batch) override {
    return tree_->Write(batch);
  }
  Status Get(const Slice& key, std::string* value) override {
    return tree_->Get(key, value);
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    return tree_->MultiGet(keys, values);
  }
  Status Delete(const Slice& key) override { return tree_->Delete(key); }
  Status InsertIfNotExists(const Slice& key, const Slice& value) override {
    return tree_->InsertIfNotExists(key, value);
  }
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string&, bool)>& update)
      override {
    return tree_->ReadModifyWrite(key, update);
  }
  Status Scan(const ReadOptions& /*options*/, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return tree_->Scan(start, limit, out);
  }
  Status Flush() override { return tree_->CompactAll(); }
  void WaitIdle() override { tree_->WaitForIdle(); }
  Status BackgroundError() const override { return tree_->BackgroundError(); }

  std::map<std::string, uint64_t> Stats() const override {
    const multilevel::MultilevelStats& s = tree_->stats();
    const LogicalLog::Counters wal = tree_->WalCounters();
    std::map<std::string, uint64_t> stats = {
        {"puts", s.puts.load()},
        {"gets", s.gets.load()},
        {"write.stalls", s.write_stalls.load()},
        {"write_stall_micros", s.write_stall_micros.load()},
        {"write.max_stall_micros", s.max_stall_micros.load()},
        {"slowdown_writes", s.slowdown_writes.load()},
        {"stopped_writes", s.stopped_writes.load()},
        {"memtable_flushes", s.memtable_flushes.load()},
        {"c0_live_bytes", tree_->C0LiveBytes()},
        {"compactions", s.compactions.load()},
        {"compaction_bytes", s.compaction_bytes.load()},
        {"compaction_retries", s.compaction_retries.load()},
        // Which point of the compaction design space this tree runs (the
        // engine::CompactionLayout value; the spec string is
        // tree->CompactionPolicyName()).
        {"compaction.policy",
         static_cast<uint64_t>(tree_->CompactionPolicyLayout())},
        {"orphans_scavenged", s.orphans_scavenged.load()},
        {"on_disk_bytes", tree_->OnDiskBytes()},
        {"wal.records", wal.records},
        {"wal.batches", wal.batches},
        {"wal.syncs", wal.syncs},
        {"wal.records_per_batch",
         wal.batches != 0 ? wal.records / wal.batches : 0},
        {"block_cache.hits", tree_->CacheHits()},
        {"block_cache.misses", tree_->CacheMisses()},
        {"read.views_pinned", s.views_pinned.load()},
        {"read.multiget_batches", s.multiget_batches.load()},
        {"read.run_probes", s.read_run_probes.load()},
        // No cross-key block coalescing in the multilevel read path; the
        // key is reported for cross-engine symmetry.
        {"read.blocks_coalesced", 0},
    };
    // Per-level shape and write-amplification bytes (flushes land in l0).
    for (int l = 0; l < multilevel::kNumLevels; l++) {
      std::string suffix = "_l" + std::to_string(l);
      stats["files" + suffix] =
          static_cast<uint64_t>(tree_->NumFilesAtLevel(l));
      stats["level_bytes" + suffix] = tree_->BytesAtLevel(l);
      stats["compaction.write_bytes" + suffix] =
          s.level_write_bytes[l].load();
    }
    AddIoStats(tree_->IoCounters(), &stats);
    return stats;
  }

 private:
  multilevel::MultilevelTree* tree_;
  std::unique_ptr<multilevel::MultilevelTree> owned_;
};

class BTreeEngine : public Engine {
 public:
  BTreeEngine(btree::BTree* tree, std::unique_ptr<btree::BTree> owned,
              bool read_only)
      : tree_(tree), owned_(std::move(owned)), read_only_(read_only) {}

  std::string Name() const override { return "B-Tree"; }

  Status Put(const Slice& key, const Slice& value) override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    return tree_->Insert(key, value);
  }
  Status Write(const WriteBatch& batch) override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    // No WAL and no batch atomicity here: apply the entries in order under
    // the tree's own operation mutex. Deltas need a merge operator the
    // B-tree doesn't have.
    for (const auto& e : batch.entries()) {
      Status s;
      switch (e.type) {
        case RecordType::kBase:
          s = tree_->Insert(e.key, e.value);
          break;
        case RecordType::kTombstone:
          s = tree_->Delete(e.key);
          if (s.IsNotFound()) s = Status::OK();
          break;
        default:
          s = Status::NotSupported("B-tree batches do not support deltas");
          break;
      }
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  Status Get(const Slice& key, std::string* value) override {
    return tree_->Get(key, value);
  }
  Status Delete(const Slice& key) override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    // The engine contract is the LSM one: delete is a blind tombstone, so
    // deleting an absent key succeeds. Map the B-tree's NotFound to OK.
    Status s = tree_->Delete(key);
    if (s.IsNotFound()) return Status::OK();
    return s;
  }
  Status InsertIfNotExists(const Slice& key, const Slice& value) override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    return tree_->InsertIfNotExists(key, value);
  }
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string&, bool)>& update)
      override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    return tree_->ReadModifyWrite(key, update);
  }
  Status Scan(const ReadOptions& /*options*/, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return tree_->Scan(start, limit, out);
  }
  Status Flush() override {
    if (read_only_) return Status::NotSupported("engine is read-only");
    return tree_->Checkpoint();
  }
  void WaitIdle() override {
    // No background work; a checkpoint is the closest quiesce. WaitIdle has
    // no error channel by contract — a checkpoint failure here resurfaces on
    // the next Flush(), which does report.
    if (!read_only_) {
      tree_->Checkpoint().IgnoreError(
          "WaitIdle is void by contract; Flush reports checkpoint failures");
    }
  }
  Status BackgroundError() const override { return Status::OK(); }

  std::map<std::string, uint64_t> Stats() const override {
    std::map<std::string, uint64_t> stats = {
        {"num_entries", tree_->num_entries()},
        {"height", tree_->height()},
        // Stall-counter parity with the LSM engines: the B-tree never
        // stalls writers behind background work, so these stay zero.
        {"write.stalls", 0},
        {"write_stall_micros", 0},
        {"write.max_stall_micros", 0},
    };
    AddIoStats(tree_->IoCounters(), &stats);
    return stats;
  }

 private:
  btree::BTree* tree_;
  std::unique_ptr<btree::BTree> owned_;
  bool read_only_;
};

// --- built-in factories -----------------------------------------------------

Status OpenBlsm(const CommonOptions& common, const std::string& dir,
                std::unique_ptr<Engine>* out) {
  if (!common.compaction_policy.empty()) {
    return Status::InvalidArgument(
        "compaction_policy applies only to the multilevel engine");
  }
  BlsmOptions o;
  o.env = common.env;
  o.c0_target_bytes = common.write_buffer_bytes;
  o.block_cache_bytes = common.block_cache_bytes;
  o.durability = common.durability;
  o.background = common.background;
  o.merge_operator = common.merge_operator;
  o.read_only = common.read_only;
  std::unique_ptr<BlsmTree> tree;
  Status s = BlsmTree::Open(o, dir, &tree);
  if (!s.ok()) return s;
  BlsmTree* raw = tree.get();
  *out = std::make_unique<BlsmEngine>(raw, std::move(tree));
  return Status::OK();
}

Status OpenMultilevel(const CommonOptions& common, const std::string& dir,
                      std::unique_ptr<Engine>* out) {
  multilevel::MultilevelOptions o;
  o.env = common.env;
  o.memtable_bytes = common.write_buffer_bytes;
  o.block_cache_bytes = common.block_cache_bytes;
  o.durability = common.durability;
  o.background = common.background;
  o.merge_operator = common.merge_operator;
  o.read_only = common.read_only;
  Status ps =
      engine::ParseCompactionConfig(common.compaction_policy, &o.compaction);
  if (!ps.ok()) return ps;
  std::unique_ptr<multilevel::MultilevelTree> tree;
  Status s = multilevel::MultilevelTree::Open(o, dir, &tree);
  if (!s.ok()) return s;
  multilevel::MultilevelTree* raw = tree.get();
  *out = std::make_unique<MultilevelEngine>(raw, std::move(tree));
  return Status::OK();
}

Status OpenBTree(const CommonOptions& common, const std::string& dir,
                 std::unique_ptr<Engine>* out) {
  if (!common.compaction_policy.empty()) {
    return Status::InvalidArgument(
        "compaction_policy applies only to the multilevel engine");
  }
  Env* env = common.env != nullptr ? common.env : Env::Default();
  std::string fname = dir + "/btree.db";
  if (common.read_only) {
    // The B-tree has no native read-only mode; refuse to create a database
    // and reject writes at the adapter.
    if (!env->FileExists(fname)) {
      return Status::NotFound("no B-tree database at " + dir);
    }
  } else {
    Status s = env->CreateDir(dir);
    if (!s.ok()) return s;
  }
  btree::BTreeOptions o;
  o.env = common.env;
  size_t page_bytes = 4096;
  o.buffer_pool_pages = std::max<size_t>(16, common.block_cache_bytes / page_bytes);
  std::unique_ptr<btree::BTree> tree;
  Status s = btree::BTree::Open(o, fname, &tree);
  if (!s.ok()) return s;
  btree::BTree* raw = tree.get();
  *out = std::make_unique<BTreeEngine>(raw, std::move(tree), common.read_only);
  return Status::OK();
}

// --- registry ---------------------------------------------------------------

struct Registry {
  util::Mutex mu{util::lock_rank::kRegistryMu};
  std::map<std::string, EngineFactory> factories GUARDED_BY(mu);

  Registry() {
    factories["blsm"] = OpenBlsm;
    factories["multilevel"] = OpenMultilevel;
    factories["btree"] = OpenBTree;
  }
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

void RegisterEngine(const std::string& name, EngineFactory factory) {
  Registry& r = GetRegistry();
  util::MutexLock l(&r.mu);
  r.factories[name] = std::move(factory);
}

Status Open(const std::string& name, const CommonOptions& options,
            const std::string& dir, std::unique_ptr<Engine>* out) {
  // "name:variant" selects an engine variant inline — today that is the
  // multilevel compaction policy, e.g. "multilevel:tiering". An exact
  // registry match wins, so registered names containing ':' keep working.
  std::string base = name;
  CommonOptions effective = options;
  EngineFactory factory;
  {
    Registry& r = GetRegistry();
    util::MutexLock l(&r.mu);
    auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      size_t colon = name.find(':');
      if (colon != std::string::npos) {
        base = name.substr(0, colon);
        std::string variant = name.substr(colon + 1);
        if (!effective.compaction_policy.empty() &&
            effective.compaction_policy != variant) {
          return Status::InvalidArgument(
              "engine name variant '" + variant +
              "' conflicts with options.compaction_policy '" +
              effective.compaction_policy + "'");
        }
        effective.compaction_policy = variant;
        it = r.factories.find(base);
      }
      if (it == r.factories.end()) {
        return Status::NotFound("no engine registered as '" + base + "'");
      }
    }
    factory = it->second;
  }
  return factory(effective, dir, out);
}

std::vector<std::string> EngineNames() {
  Registry& r = GetRegistry();
  util::MutexLock l(&r.mu);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;
}

std::unique_ptr<Engine> WrapBlsm(BlsmTree* tree) {
  return std::make_unique<BlsmEngine>(tree, nullptr);
}

std::unique_ptr<Engine> WrapBTree(btree::BTree* tree) {
  return std::make_unique<BTreeEngine>(tree, nullptr, /*read_only=*/false);
}

std::unique_ptr<Engine> WrapMultilevel(multilevel::MultilevelTree* tree) {
  return std::make_unique<MultilevelEngine>(tree, nullptr);
}

}  // namespace blsm::kv
