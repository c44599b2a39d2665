#ifndef BLSM_BUFFER_BLOCK_CACHE_H_
#define BLSM_BUFFER_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm {

// Shared block cache for on-disk tree components with CLOCK (second-chance)
// eviction. The paper replaced LRU with CLOCK because LRU's list maintenance
// was a concurrency bottleneck (§4.4.2); CLOCK touches only an atomic
// reference bit on hit. The cache is sharded by key hash to spread the
// insert/evict mutex.
//
// Keys are (file_id, offset); values are immutable decoded blocks shared via
// shared_ptr, so eviction never invalidates a block a reader still holds.
class BlockCache {
 public:
  using BlockHandle = std::shared_ptr<const std::string>;

  explicit BlockCache(size_t capacity_bytes, int num_shards = 16);
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Returns the cached block or nullptr.
  BlockHandle Lookup(uint64_t file_id, uint64_t offset);

  void Insert(uint64_t file_id, uint64_t offset, BlockHandle block);

  // Drops every block belonging to a file (called when a merge deletes the
  // component).
  void EraseFile(uint64_t file_id);

  size_t capacity() const { return capacity_; }
  size_t usage() const;
  // Sums the per-shard counters; approximate under concurrent lookups.
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    uint64_t file_id;
    uint64_t offset;
    BlockHandle block;
    std::atomic<bool> referenced{true};
    bool occupied = false;

    Entry() = default;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
  };

  // Each shard starts on its own cache line and keeps its hit/miss counters
  // local: with global adjacent counters every Lookup on every shard bounced
  // the same line between cores (false sharing); now a lookup only touches
  // state the shard's mutex already made core-local.
  struct alignas(64) Shard {
    util::Mutex mu{util::lock_rank::kShardMu};
    // CLOCK ring: slots are reused in place; `hand` sweeps looking for an
    // unreferenced victim.
    std::vector<std::unique_ptr<Entry>> ring GUARDED_BY(mu);
    // Indices of unoccupied ring slots. Eviction and EraseFile push, Insert
    // pops, so a miss finds a slot in O(1); the ring grows only when empty.
    std::vector<size_t> free_slots GUARDED_BY(mu);
    size_t hand GUARDED_BY(mu) = 0;
    size_t usage GUARDED_BY(mu) = 0;
    // packed key -> slot
    std::unordered_map<uint64_t, size_t> index GUARDED_BY(mu);
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  static uint64_t PackKey(uint64_t file_id, uint64_t offset) {
    // Offsets are block-aligned and files are < 2^40 bytes; fold them.
    return (file_id << 40) ^ offset;
  }

  Shard* ShardFor(uint64_t packed);
  void EvictSome(Shard* shard, size_t needed) REQUIRES(shard->mu);
  // Empties an occupied slot and returns it to the shard's free list.
  void FreeSlot(Shard* shard, size_t slot) REQUIRES(shard->mu);

  const size_t capacity_;
  const size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace blsm

#endif  // BLSM_BUFFER_BLOCK_CACHE_H_
