#include "btree/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "io/mem_env.h"
#include "util/random.h"

namespace blsm::btree {
namespace {

std::string PaddedKey(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

class BTreeTest : public ::testing::Test {
 protected:
  void Open(size_t pool_pages = 4096) {
    tree_.reset();
    BTreeOptions options;
    options.env = &mem_env_;
    options.buffer_pool_pages = pool_pages;
    ASSERT_TRUE(BTree::Open(options, "tree.db", &tree_).ok());
  }

  MemEnv mem_env_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyGet) {
  Open();
  std::string value;
  EXPECT_TRUE(tree_->Get("missing", &value).IsNotFound());
}

TEST_F(BTreeTest, InsertGet) {
  Open();
  ASSERT_TRUE(tree_->Insert("k", "v").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(tree_->num_entries(), 1u);
}

TEST_F(BTreeTest, UpdateInPlace) {
  Open();
  ASSERT_TRUE(tree_->Insert("k", "v1").ok());
  ASSERT_TRUE(tree_->Insert("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(tree_->num_entries(), 1u) << "upsert must not duplicate";
}

TEST_F(BTreeTest, InsertIfNotExists) {
  Open();
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "first").ok());
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "second").IsKeyExists());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "first");
}

TEST_F(BTreeTest, Delete) {
  Open();
  ASSERT_TRUE(tree_->Insert("k", "v").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(tree_->Get("k", &value).IsNotFound());
  EXPECT_TRUE(tree_->Delete("k").IsNotFound());
  EXPECT_EQ(tree_->num_entries(), 0u);
}

TEST_F(BTreeTest, ManyInsertsWithSplits) {
  Open();
  const uint64_t kN = 20000;  // ~2.3 MB of records: forces multi-level tree
  Random rnd(3);
  std::map<std::string, std::string> model;
  for (uint64_t i = 0; i < kN; i++) {
    uint64_t k = rnd.Uniform(1000000);
    std::string key = PaddedKey(k);
    std::string value = "value-" + std::to_string(i);
    ASSERT_TRUE(tree_->Insert(key, value).ok()) << i;
    model[key] = value;
  }
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_EQ(tree_->num_entries(), model.size());
  int checked = 0;
  for (const auto& [k, v] : model) {
    if (checked++ % 17 != 0) continue;
    std::string value;
    ASSERT_TRUE(tree_->Get(k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

TEST_F(BTreeTest, SortedInsertThenScan) {
  Open();
  for (uint64_t i = 0; i < 5000; i++) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), std::string(100, 'v')).ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(1000), 500, &rows).ok());
  ASSERT_EQ(rows.size(), 500u);
  for (uint64_t i = 0; i < 500; i++) {
    EXPECT_EQ(rows[i].first, PaddedKey(1000 + i));
  }
}

TEST_F(BTreeTest, ScanFromMissingKeyStartsAtSuccessor) {
  Open();
  for (uint64_t i = 0; i < 100; i += 2) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(11), 3, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, PaddedKey(12));
}

TEST_F(BTreeTest, ScanAcrossLeafBoundaries) {
  Open();
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), std::string(500, 'x')).ok());
  }
  // ~7 entries per leaf: a 100-row scan crosses many leaves.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(0), 2000, &rows).ok());
  ASSERT_EQ(rows.size(), 2000u);
  for (uint64_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
}

TEST_F(BTreeTest, ReadModifyWrite) {
  Open();
  ASSERT_TRUE(tree_->Insert("k", "a").ok());
  ASSERT_TRUE(tree_->ReadModifyWrite("k", [](const std::string& old,
                                             bool absent) {
                  EXPECT_FALSE(absent);
                  return old + "b";
                }).ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "ab");
}

TEST_F(BTreeTest, PersistenceAcrossReopen) {
  Open();
  for (uint64_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree_->Checkpoint().ok());
  Open();  // reopen same file
  EXPECT_EQ(tree_->num_entries(), 3000u);
  for (uint64_t i = 0; i < 3000; i += 71) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_F(BTreeTest, RejectsOversizedRecords) {
  Open();
  EXPECT_TRUE(
      tree_->Insert("k", std::string(5000, 'x')).IsInvalidArgument());
}

TEST_F(BTreeTest, UncachedUpdateCostsReadAndWriteback) {
  // §2.2: with a pool much smaller than the data, an update performs one
  // random read (fault the leaf) and one random write (evict it dirty).
  Open(/*pool_pages=*/64);  // 256 KiB pool
  const uint64_t kN = 20000;  // ~5 MB of leaves: pool is ~5% of data
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), std::string(200, 'x')).ok());
  }
  ASSERT_TRUE(tree_->Checkpoint().ok());

  Random rnd(5);
  auto before = mem_env_.io_counters()->snapshot();
  const int kUpdates = 500;
  for (int i = 0; i < kUpdates; i++) {
    ASSERT_TRUE(
        tree_->Insert(PaddedKey(rnd.Uniform(kN)), std::string(200, 'y')).ok());
  }
  ASSERT_TRUE(tree_->Checkpoint().ok());
  auto diff = mem_env_.io_counters()->snapshot() - before;
  double reads_per_update = static_cast<double>(diff.read_seeks) / kUpdates;
  double writes_per_update = static_cast<double>(diff.write_seeks) / kUpdates;
  EXPECT_GT(reads_per_update, 0.5) << "uncached updates must fault leaves";
  EXPECT_GT(writes_per_update, 0.5) << "dirty evictions must write back";
}

TEST_F(BTreeTest, EmptyTreeScan) {
  Open();
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan("anything", 10, &rows).ok());
  EXPECT_TRUE(rows.empty());
}

TEST_F(BTreeTest, BinaryKeysAndValues) {
  Open();
  std::string key("\x00\x01\xff", 3);
  std::string value("\xde\x00\xad", 3);
  ASSERT_TRUE(tree_->Insert(key, value).ok());
  std::string got;
  ASSERT_TRUE(tree_->Get(key, &got).ok());
  EXPECT_EQ(got, value);
}

TEST_F(BTreeTest, ReverseOrderInsert) {
  Open();
  for (uint64_t i = 3000; i-- > 0;) {
    ASSERT_TRUE(tree_->Insert(PaddedKey(i), "v").ok());
  }
  EXPECT_EQ(tree_->num_entries(), 3000u);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(0), 3000, &rows).ok());
  EXPECT_EQ(rows.size(), 3000u);
}

}  // namespace
}  // namespace blsm::btree
