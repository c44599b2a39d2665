#ifndef BLSM_ENGINE_SHARD_ROUTER_H_
#define BLSM_ENGINE_SHARD_ROUTER_H_

// Hash-partitioned composition of N kv::Engine shards behind the one-engine
// interface. This is the tree layout the server front-end runs shard-per-core
// ("Breaking Down Memory Walls" motivates many small trees over one big one):
// each shard owns its own WriteFrontend — and therefore its own WAL group
// commit — so concurrent writers to different shards never contend, while
// writers hashing to the same shard batch into one sync.
//
// Semantics vs a single engine:
//   * point ops are identical (a key lives on exactly one shard);
//   * MultiGet splits by shard and reassembles in caller order;
//   * Scan fans out (hash partitioning scatters key ranges) and merges the
//     per-shard sorted results;
//   * Write(batch) splits into per-shard sub-batches: each sub-batch keeps
//     the single-engine atomic-durability guarantee, but the batch as a
//     whole is NOT atomic across shards (first error wins, the rest may
//     have committed). Single-shard routing of whole batches would restore
//     it at the cost of hot spots; the server documents the contract.

#include <memory>
#include <string>
#include <vector>

#include "engine/kv.h"
#include "util/hash.h"

namespace blsm::engine {

class ShardRouter final : public kv::Engine {
 public:
  // Opens `shards` instances of `engine_spec` (any kv::Open spec, e.g.
  // "blsm" or "multilevel:tiering") under dir/shard-<i>. The CommonOptions
  // apply to every shard — size write_buffer_bytes/block_cache_bytes as
  // per-shard budgets.
  static Status Open(const kv::CommonOptions& options,
                     const std::string& engine_spec, const std::string& dir,
                     int shards, std::unique_ptr<ShardRouter>* out);

  std::string Name() const override;

  Status Put(const Slice& key, const Slice& value) override;
  Status Write(const kv::WriteBatch& batch) override;
  Status Get(const Slice& key, std::string* value) override;
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;
  Status Delete(const Slice& key) override;
  Status InsertIfNotExists(const Slice& key, const Slice& value) override;
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string& old, bool absent)>&
          update) override;
  Status Scan(const kv::ReadOptions& options, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override;
  Status Flush() override;
  void WaitIdle() override;
  Status BackgroundError() const override;

  // Aggregated child counters (numeric sum per key) plus the router's own
  // shape keys. "compaction.policy" is identical across shards and passes
  // through unsummed; "write.max_stall_micros" is the largest shard's.
  std::map<std::string, uint64_t> Stats() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // The shard a key routes to: stable across restarts (seeded Hash64, no
  // per-process salt) so data written yesterday is found today.
  int ShardOf(const Slice& key) const {
    return static_cast<int>(Hash64(key, kShardSeed) %
                            static_cast<uint64_t>(shards_.size()));
  }

  // Direct access for the server's per-shard dispatch queues. The router
  // retains ownership.
  kv::Engine* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  const kv::Engine* shard(int i) const {
    return shards_[static_cast<size_t>(i)].get();
  }

  // Splits `batch` into one sub-batch per shard (empty ones included, so
  // indexes align). Shared by Write() and the server's dispatch path.
  std::vector<kv::WriteBatch> SplitBatch(const kv::WriteBatch& batch) const;

 private:
  static constexpr uint64_t kShardSeed = 0x62'6c'73'6dULL;  // "blsm"

  explicit ShardRouter(std::vector<std::unique_ptr<kv::Engine>> shards)
      : shards_(std::move(shards)) {}

  std::vector<std::unique_ptr<kv::Engine>> shards_;
};

}  // namespace blsm::engine

#endif  // BLSM_ENGINE_SHARD_ROUTER_H_
