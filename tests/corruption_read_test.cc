// Read paths against a corrupt block: MultiGet, Get, and ScanIterator must
// surface Corruption (naming the damaged component) for affected keys — and
// never crash, hang, or silently return wrong data. Paranoid open must
// refuse the database outright.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"

namespace blsm {
namespace {

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(i));
  return buf;
}

// Flips one bit early in `fname` (inside the first data block).
void FlipByte(MemEnv* env, const std::string& fname, uint64_t offset) {
  std::unique_ptr<RandomRWFile> rw;
  ASSERT_TRUE(env->NewRandomRWFile(fname, &rw).ok());
  Slice byte;
  char scratch;
  ASSERT_TRUE(rw->Read(offset, 1, &byte, &scratch).ok());
  char flipped = static_cast<char>(byte[0] ^ 0x01);
  ASSERT_TRUE(rw->Write(offset, Slice(&flipped, 1)).ok());
  ASSERT_TRUE(rw->Sync().ok());
}

std::string FindFileWithSuffix(MemEnv* env, const std::string& dir,
                               const std::string& suffix) {
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return "";
  for (const auto& name : children) {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      return dir + "/" + name;
    }
  }
  return "";
}

constexpr uint64_t kNumKeys = 2000;

class CorruptionReadTest : public ::testing::Test {
 protected:
  // Builds a bLSM db with one on-disk component, then flips a byte in it.
  void BuildAndCorruptBlsm(std::unique_ptr<BlsmTree>* tree) {
    options_.env = &env_;
    options_.c0_target_bytes = 1 << 20;  // keep merges out of the way
    options_.block_cache_bytes = 0;      // cache hits would skip the checksum
    options_.durability = DurabilityMode::kNone;

    ASSERT_TRUE(BlsmTree::Open(options_, "db", tree).ok());
    for (uint64_t i = 0; i < kNumKeys; i++) {
      ASSERT_TRUE(
          (*tree)->Put(KeyFor(i), "value-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*tree)->Flush().ok());
    (*tree)->WaitIdle();

    tree_file_ = FindFileWithSuffix(&env_, "db", ".tree");
    ASSERT_FALSE(tree_file_.empty());
    FlipByte(&env_, tree_file_, 100);
  }

  MemEnv env_;
  BlsmOptions options_;
  std::string tree_file_;
};

TEST_F(CorruptionReadTest, MultiGetSurfacesCorruptionPerKey) {
  std::unique_ptr<BlsmTree> tree;
  BuildAndCorruptBlsm(&tree);

  std::vector<std::string> key_storage;
  key_storage.reserve(kNumKeys);
  for (uint64_t i = 0; i < kNumKeys; i++) key_storage.push_back(KeyFor(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());

  std::vector<std::string> values;
  std::vector<Status> statuses = tree->MultiGet(keys, &values);
  ASSERT_EQ(statuses.size(), keys.size());

  size_t corrupt = 0, ok = 0;
  for (size_t i = 0; i < statuses.size(); i++) {
    if (statuses[i].ok()) {
      // An OK result must still be the right value — never silent garbage.
      EXPECT_EQ(values[i], "value-" + std::to_string(i));
      ok++;
    } else {
      ASSERT_TRUE(statuses[i].IsCorruption()) << statuses[i].ToString();
      EXPECT_NE(statuses[i].ToString().find(".tree"), std::string::npos)
          << "corruption must name the damaged component: "
          << statuses[i].ToString();
      corrupt++;
    }
  }
  EXPECT_GT(corrupt, 0u) << "some keys live in the damaged block";
  EXPECT_GT(ok, 0u) << "keys in other blocks still read fine";
}

TEST_F(CorruptionReadTest, ScanIteratorStopsWithCorruption) {
  std::unique_ptr<BlsmTree> tree;
  BuildAndCorruptBlsm(&tree);

  auto it = tree->NewScanIterator();
  size_t seen = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen++;
    ASSERT_LE(seen, kNumKeys) << "iterator must terminate";
  }
  EXPECT_FALSE(it->status().ok()) << "scan over a corrupt block must fail";
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  EXPECT_NE(it->status().ToString().find(".tree"), std::string::npos);
}

TEST_F(CorruptionReadTest, ParanoidOpenRefusesCorruptDb) {
  std::unique_ptr<BlsmTree> tree;
  BuildAndCorruptBlsm(&tree);
  tree.reset();

  // Default open succeeds (the damage is latent) ...
  ASSERT_TRUE(BlsmTree::Open(options_, "db", &tree).ok());
  tree.reset();

  // ... paranoid open walks every block and refuses, naming the file.
  options_.background.paranoid_checks = true;
  Status s = BlsmTree::Open(options_, "db", &tree);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(".tree"), std::string::npos) << s.ToString();
}

TEST(MultilevelCorruptionTest, GetAndScanSurfaceCorruption) {
  MemEnv env;
  multilevel::MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 1 << 20;
  options.block_cache_bytes = 0;
  options.durability = DurabilityMode::kNone;

  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
  for (uint64_t i = 0; i < kNumKeys; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->CompactAll().ok());

  std::string run_file = FindFileWithSuffix(&env, "ml", ".run");
  ASSERT_FALSE(run_file.empty());
  FlipByte(&env, run_file, 100);

  size_t corrupt = 0;
  for (uint64_t i = 0; i < kNumKeys; i++) {
    std::string value;
    Status s = tree->Get(KeyFor(i), &value);
    if (s.ok()) {
      EXPECT_EQ(value, "value-" + std::to_string(i));
    } else {
      ASSERT_TRUE(s.IsCorruption()) << s.ToString();
      corrupt++;
    }
  }
  EXPECT_GT(corrupt, 0u);

  std::vector<std::pair<std::string, std::string>> rows;
  Status s = tree->Scan("", kNumKeys, &rows);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Paranoid reopen refuses the damaged run.
  tree.reset();
  options.background.paranoid_checks = true;
  s = multilevel::MultilevelTree::Open(options, "ml", &tree);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(".run"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace blsm
