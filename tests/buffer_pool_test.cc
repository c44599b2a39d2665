#include "btree/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "io/mem_env.h"

namespace blsm::btree {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  MemEnv mem_;
};

TEST_F(BufferPoolTest, AllocateAndFetch) {
  BufferPool pool(&mem_, "f", 8);
  ASSERT_TRUE(pool.Open().ok());
  PageId id;
  char* data;
  ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
  EXPECT_EQ(id, 0u);
  memset(data, 0x5a, kPageSize);
  pool.MarkDirty(id);

  char* again;
  ASSERT_TRUE(pool.Fetch(id, &again).ok());
  EXPECT_EQ(again, data) << "resident page: same frame";
  EXPECT_EQ(static_cast<unsigned char>(again[100]), 0x5a);
}

TEST_F(BufferPoolTest, PageCountGrows) {
  BufferPool pool(&mem_, "f", 8);
  ASSERT_TRUE(pool.Open().ok());
  EXPECT_EQ(pool.page_count(), 0u);
  PageId id;
  char* data;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
    EXPECT_EQ(id, static_cast<PageId>(i));
  }
  EXPECT_EQ(pool.page_count(), 5u);
}

TEST_F(BufferPoolTest, DirtyPagesSurviveEviction) {
  BufferPool pool(&mem_, "f", 4);  // tiny pool
  ASSERT_TRUE(pool.Open().ok());
  // Write 16 pages, each with a distinct pattern — 4x the pool capacity.
  for (int i = 0; i < 16; i++) {
    PageId id;
    char* data;
    ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
    memset(data, i + 1, kPageSize);
    pool.MarkDirty(id);
  }
  // Read them all back (evicting in the process).
  for (int i = 0; i < 16; i++) {
    char* data;
    ASSERT_TRUE(pool.Fetch(static_cast<PageId>(i), &data).ok());
    EXPECT_EQ(data[17], static_cast<char>(i + 1)) << "page " << i;
  }
}

TEST_F(BufferPoolTest, FlushAllPersists) {
  {
    BufferPool pool(&mem_, "f", 8);
    ASSERT_TRUE(pool.Open().ok());
    PageId id;
    char* data;
    ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
    memset(data, 0x77, kPageSize);
    pool.MarkDirty(id);
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  // Fresh pool over the same file.
  BufferPool pool(&mem_, "f", 8);
  ASSERT_TRUE(pool.Open().ok());
  EXPECT_EQ(pool.page_count(), 1u);
  char* data;
  ASSERT_TRUE(pool.Fetch(0, &data).ok());
  EXPECT_EQ(static_cast<unsigned char>(data[0]), 0x77);
}

TEST_F(BufferPoolTest, PinPreventsEviction) {
  BufferPool pool(&mem_, "f", 2);
  ASSERT_TRUE(pool.Open().ok());
  PageId pinned;
  char* pinned_data;
  ASSERT_TRUE(pool.AllocatePage(&pinned, &pinned_data).ok());
  memset(pinned_data, 0xee, kPageSize);
  pool.MarkDirty(pinned);
  pool.Pin(pinned);

  // Churn through many other pages; the pinned frame must stay resident
  // and its pointer stable.
  for (int i = 0; i < 10; i++) {
    PageId id;
    char* data;
    ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
    pool.MarkDirty(id);
  }
  char* again;
  ASSERT_TRUE(pool.Fetch(pinned, &again).ok());
  EXPECT_EQ(again, pinned_data);
  pool.Unpin(pinned);
}

TEST_F(BufferPoolTest, AllPinnedReportsBusy) {
  BufferPool pool(&mem_, "f", 2);
  ASSERT_TRUE(pool.Open().ok());
  PageId a, b, c;
  char* data;
  ASSERT_TRUE(pool.AllocatePage(&a, &data).ok());
  pool.Pin(a);
  ASSERT_TRUE(pool.AllocatePage(&b, &data).ok());
  pool.Pin(b);
  EXPECT_TRUE(pool.AllocatePage(&c, &data).IsBusy());
  pool.Unpin(a);
  EXPECT_TRUE(pool.AllocatePage(&c, &data).ok());
}

TEST_F(BufferPoolTest, EvictionWritesBackOnlyDirtyPages) {
  BufferPool pool(&mem_, "f", 2);
  ASSERT_TRUE(pool.Open().ok());
  // One clean page (written + flushed), then churn with clean fetches.
  PageId id;
  char* data;
  ASSERT_TRUE(pool.AllocatePage(&id, &data).ok());
  pool.MarkDirty(id);
  ASSERT_TRUE(pool.FlushAll().ok());
  auto before = mem_.io_counters()->snapshot();
  // Re-fetch (clean) and evict it repeatedly via other allocations: no
  // write-back should occur for clean pages.
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(pool.Fetch(0, &data).ok());
    PageId junk;
    char* junk_data;
    ASSERT_TRUE(pool.AllocatePage(&junk, &junk_data).ok());  // dirty
    ASSERT_TRUE(pool.AllocatePage(&junk, &junk_data).ok());  // dirty
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  auto diff = mem_.io_counters()->snapshot() - before;
  // 8 dirty junk pages + maybe the meta-ish page: but page 0 was clean and
  // must not be rewritten. Bound: at most 9 page writes.
  EXPECT_LE(diff.write_ops, 9u);
}

TEST_F(BufferPoolTest, ReadPastEofZeroFills) {
  BufferPool pool(&mem_, "f", 4);
  ASSERT_TRUE(pool.Open().ok());
  // Fetching a page id beyond the file's current extent yields zeroes
  // (sparse-file semantics used right after AllocatePage on reopen paths).
  char* data;
  ASSERT_TRUE(pool.Fetch(3, &data).ok());
  for (size_t i = 0; i < kPageSize; i += 997) {
    EXPECT_EQ(data[i], 0) << i;
  }
}

}  // namespace
}  // namespace blsm::btree
