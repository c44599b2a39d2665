#include "buffer/block_cache.h"

#include "util/hash.h"

namespace blsm {

BlockCache::BlockCache(size_t capacity_bytes, int num_shards)
    : capacity_(capacity_bytes),
      per_shard_capacity_(capacity_bytes / static_cast<size_t>(num_shards)) {
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; i++) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard* BlockCache::ShardFor(uint64_t packed) {
  uint64_t h = Hash64(reinterpret_cast<const char*>(&packed), sizeof(packed),
                      0x5ca1ab1eull);
  return shards_[h % shards_.size()].get();
}

BlockCache::BlockHandle BlockCache::Lookup(uint64_t file_id, uint64_t offset) {
  uint64_t key = PackKey(file_id, offset);
  Shard* shard = ShardFor(key);
  util::MutexLock l(&shard->mu);
  auto it = shard->index.find(key);
  if (it == shard->index.end()) {
    shard->misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Entry* e = shard->ring[it->second].get();
  e->referenced.store(true, std::memory_order_relaxed);
  shard->hits.fetch_add(1, std::memory_order_relaxed);
  return e->block;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset, BlockHandle block) {
  if (block == nullptr) return;
  size_t charge = block->size() + sizeof(Entry);
  uint64_t key = PackKey(file_id, offset);
  Shard* shard = ShardFor(key);
  util::MutexLock l(&shard->mu);

  auto it = shard->index.find(key);
  if (it != shard->index.end()) {
    // Replace in place (identical content in practice).
    Entry* e = shard->ring[it->second].get();
    shard->usage -= e->block->size() + sizeof(Entry);
    e->block = std::move(block);
    e->referenced.store(true, std::memory_order_relaxed);
    shard->usage += charge;
    return;
  }

  if (shard->usage + charge > per_shard_capacity_) {
    EvictSome(shard, charge);
    if (shard->usage + charge > per_shard_capacity_) {
      // Everything else is pinned by reference bits or the block simply
      // does not fit: keep the capacity bound strict and skip caching.
      return;
    }
  }

  // Reuse a free slot, else grow the ring.
  size_t slot = shard->ring.size();
  if (shard->free_slots.empty()) {
    shard->ring.push_back(std::make_unique<Entry>());
  } else {
    slot = shard->free_slots.back();
    shard->free_slots.pop_back();
  }
  Entry* e = shard->ring[slot].get();
  e->file_id = file_id;
  e->offset = offset;
  e->block = std::move(block);
  e->referenced.store(true, std::memory_order_relaxed);
  e->occupied = true;
  shard->index[key] = slot;
  shard->usage += charge;
}

void BlockCache::EvictSome(Shard* shard, size_t needed) {
  // CLOCK sweep: clear reference bits until we find victims. Bounded to two
  // full revolutions so a pathological shard can't spin forever.
  size_t n = shard->ring.size();
  if (n == 0) return;
  size_t scanned = 0;
  while (shard->usage + needed > per_shard_capacity_ && scanned < 2 * n + 1) {
    Entry* e = shard->ring[shard->hand].get();
    if (e->occupied) {
      if (e->referenced.exchange(false, std::memory_order_relaxed)) {
        // Second chance.
      } else {
        FreeSlot(shard, shard->hand);
      }
    }
    shard->hand = (shard->hand + 1) % n;
    scanned++;
  }
}

void BlockCache::EraseFile(uint64_t file_id) {
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    util::MutexLock l(&shard->mu);
    for (size_t slot = 0; slot < shard->ring.size(); slot++) {
      Entry* e = shard->ring[slot].get();
      if (e->occupied && e->file_id == file_id) FreeSlot(shard, slot);
    }
  }
}

void BlockCache::FreeSlot(Shard* shard, size_t slot) {
  Entry* e = shard->ring[slot].get();
  shard->usage -= e->block->size() + sizeof(Entry);
  shard->index.erase(PackKey(e->file_id, e->offset));
  e->block.reset();
  e->occupied = false;
  shard->free_slots.push_back(slot);
}

uint64_t BlockCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    total += shard_ptr->hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t BlockCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    total += shard_ptr->misses.load(std::memory_order_relaxed);
  }
  return total;
}

size_t BlockCache::usage() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    util::MutexLock l(&shard->mu);
    total += shard->usage;
  }
  return total;
}

}  // namespace blsm
