#include "buffer/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace blsm {
namespace {

BlockCache::BlockHandle MakeBlock(size_t size, char fill = 'x') {
  return std::make_shared<const std::string>(size, fill);
}

TEST(BlockCacheTest, InsertLookup) {
  BlockCache cache(1 << 20, 4);
  cache.Insert(1, 0, MakeBlock(100, 'a'));
  auto h = cache.Lookup(1, 0);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ((*h)[0], 'a');
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, MissReturnsNull) {
  BlockCache cache(1 << 20, 4);
  EXPECT_EQ(cache.Lookup(9, 9), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, DistinctKeysDistinctBlocks) {
  BlockCache cache(1 << 20, 4);
  cache.Insert(1, 0, MakeBlock(10, 'a'));
  cache.Insert(1, 4096, MakeBlock(10, 'b'));
  cache.Insert(2, 0, MakeBlock(10, 'c'));
  EXPECT_EQ((*cache.Lookup(1, 0))[0], 'a');
  EXPECT_EQ((*cache.Lookup(1, 4096))[0], 'b');
  EXPECT_EQ((*cache.Lookup(2, 0))[0], 'c');
}

TEST(BlockCacheTest, EvictsUnderPressure) {
  BlockCache cache(64 << 10, 1);  // one shard, 64 KiB
  for (uint64_t i = 0; i < 100; i++) {
    cache.Insert(1, i * 4096, MakeBlock(4096));
  }
  EXPECT_LE(cache.usage(), 64u << 10);
  // Some early blocks must have been evicted.
  int survivors = 0;
  for (uint64_t i = 0; i < 100; i++) {
    if (cache.Lookup(1, i * 4096) != nullptr) survivors++;
  }
  EXPECT_LT(survivors, 100);
  EXPECT_GT(survivors, 0);
}

TEST(BlockCacheTest, ClockGivesSecondChanceToReferencedBlocks) {
  // Sized to hold 8 x (4 KiB + entry overhead) with little headroom, so the
  // 9th insert must evict.
  BlockCache cache(34 << 10, 1);
  // Fill the shard, then force one eviction sweep: the first sweep clears
  // every (insert-set) reference bit and evicts one victim.
  for (uint64_t i = 0; i < 8; i++) cache.Insert(1, i * 4096, MakeBlock(4096));
  cache.Insert(1, 8 * 4096, MakeBlock(4096));
  // Now all surviving blocks are unreferenced. Touch one survivor; the next
  // eviction must skip it (second chance) and take an untouched block.
  uint64_t touched = ~uint64_t{0};
  for (uint64_t i = 1; i < 8; i++) {
    if (cache.Lookup(1, i * 4096) != nullptr) {
      touched = i;
      break;
    }
  }
  ASSERT_NE(touched, ~uint64_t{0});
  cache.Insert(1, 9 * 4096, MakeBlock(4096));
  EXPECT_NE(cache.Lookup(1, touched * 4096), nullptr)
      << "referenced block must survive one eviction sweep";
}

TEST(BlockCacheTest, HandleSurvivesEviction) {
  BlockCache cache(8 << 10, 1);
  cache.Insert(1, 0, MakeBlock(4096, 'z'));
  auto h = cache.Lookup(1, 0);
  ASSERT_NE(h, nullptr);
  // Evict by overfilling.
  for (uint64_t i = 1; i < 10; i++) cache.Insert(1, i * 4096, MakeBlock(4096));
  // The held handle is still valid even if the entry was evicted.
  EXPECT_EQ((*h)[0], 'z');
}

TEST(BlockCacheTest, EraseFileDropsAllItsBlocks) {
  BlockCache cache(1 << 20, 4);
  for (uint64_t i = 0; i < 10; i++) {
    cache.Insert(7, i * 4096, MakeBlock(128));
    cache.Insert(8, i * 4096, MakeBlock(128));
  }
  cache.EraseFile(7);
  for (uint64_t i = 0; i < 10; i++) {
    EXPECT_EQ(cache.Lookup(7, i * 4096), nullptr);
    EXPECT_NE(cache.Lookup(8, i * 4096), nullptr);
  }
}

TEST(BlockCacheTest, FreedSlotsAreReusedOnce) {
  // Slots freed by EraseFile and by eviction are handed out again; a slot
  // handed to two keys at once would make one key read the other's block.
  BlockCache cache(16 << 10, 1);  // one shard, room for a few 1 KiB blocks
  auto fill = [](uint64_t file, uint64_t i) {
    return static_cast<char>('a' + (file * 7 + i) % 26);
  };
  for (uint64_t file = 1; file <= 20; file++) {
    for (uint64_t i = 0; i < 6; i++) {
      cache.Insert(file, i * 4096, MakeBlock(1024, fill(file, i)));
    }
    if (file % 3 == 0) cache.EraseFile(file - 1);
    EXPECT_LE(cache.usage(), 16u << 10);
    for (uint64_t f = 1; f <= file; f++) {
      for (uint64_t i = 0; i < 6; i++) {
        auto h = cache.Lookup(f, i * 4096);
        if (h != nullptr) EXPECT_EQ((*h)[0], fill(f, i)) << f << "/" << i;
      }
    }
  }
  for (uint64_t i = 0; i < 6; i++) {
    EXPECT_NE(cache.Lookup(20, i * 4096), nullptr);
  }
}

TEST(BlockCacheTest, ReplaceSameKey) {
  BlockCache cache(1 << 20, 4);
  cache.Insert(1, 0, MakeBlock(100, 'a'));
  cache.Insert(1, 0, MakeBlock(100, 'b'));
  EXPECT_EQ((*cache.Lookup(1, 0))[0], 'b');
}

TEST(BlockCacheTest, UsageTracksInserts) {
  BlockCache cache(1 << 20, 1);
  EXPECT_EQ(cache.usage(), 0u);
  cache.Insert(1, 0, MakeBlock(1000));
  EXPECT_GE(cache.usage(), 1000u);
}

TEST(BlockCacheTest, CountersSumAcrossShards) {
  BlockCache cache(1 << 20, 8);
  for (uint64_t i = 0; i < 32; i++) cache.Insert(3, i * 4096, MakeBlock(64));
  uint64_t expect_hits = 0;
  uint64_t expect_misses = 0;
  for (uint64_t i = 0; i < 64; i++) {
    if (cache.Lookup(3, i * 4096) != nullptr) {
      expect_hits++;
    } else {
      expect_misses++;
    }
  }
  // Keys scatter across shards; the accessors must sum every shard's
  // (cache-line-local) counters, not just one.
  EXPECT_EQ(cache.hits(), expect_hits);
  EXPECT_EQ(cache.misses(), expect_misses);
  EXPECT_EQ(expect_hits, 32u);
}

TEST(BlockCacheTest, EraseFileRacesLookupSameFile) {
  // A merge deleting a component (EraseFile) races readers still probing
  // that file's blocks. Lookups must return either the block or null —
  // never a dangling handle — and handles taken before the erase must keep
  // their contents. Run under TSan this also proves the shard-sweep locking.
  BlockCache cache(1 << 20, 8);
  constexpr uint64_t kBlocks = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&cache, &stop, t] {
      uint64_t i = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        auto h = cache.Lookup(5, (i++ % kBlocks) * 4096);
        if (h != nullptr) {
          EXPECT_EQ(h->size(), 512u);
          EXPECT_EQ((*h)[0], 'e');
        }
      }
    });
  }
  for (int round = 0; round < 200; round++) {
    for (uint64_t i = 0; i < kBlocks; i++) {
      cache.Insert(5, i * 4096, MakeBlock(512, 'e'));
    }
    cache.EraseFile(5);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  for (uint64_t i = 0; i < kBlocks; i++) {
    EXPECT_EQ(cache.Lookup(5, i * 4096), nullptr);
  }
}

TEST(BlockCacheTest, ConcurrentMixedOperations) {
  BlockCache cache(256 << 10, 8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; i++) {
        uint64_t file = static_cast<uint64_t>(i % 4);
        uint64_t off = static_cast<uint64_t>((i * 7 + t) % 64) * 4096;
        if (i % 3 == 0) {
          cache.Insert(file, off, MakeBlock(2048));
        } else {
          auto h = cache.Lookup(file, off);
          if (h != nullptr) {
            volatile char c = (*h)[0];
            (void)c;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.usage(), 256u << 10);
}

}  // namespace
}  // namespace blsm
