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

namespace {

// The one adapter: the B-tree keeps its own API (update-in-place Insert,
// NotFound deletes, no read-only mode), and this class maps it onto the
// engine contract. Reached only through kv::Open("btree"), which hands it
// ownership of the tree.
class BTreeEngine final : public Engine {
 public:
  BTreeEngine(std::unique_ptr<btree::BTree> tree, bool read_only)
      : tree_(std::move(tree)), read_only_(read_only) {}

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
  std::unique_ptr<btree::BTree> tree_;
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
  *out = std::move(tree);
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
  *out = std::move(tree);
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
  *out = std::make_unique<BTreeEngine>(std::move(tree), common.read_only);
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

}  // namespace blsm::kv
