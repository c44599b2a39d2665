#include "multilevel/multilevel_tree.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "io/mem_env.h"
#include "multilevel/version.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace blsm::multilevel {
namespace {

std::string PaddedKey(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

class MultilevelTest : public ::testing::Test {
 protected:
  MultilevelOptions SmallOptions() {
    MultilevelOptions options;
    options.env = &mem_env_;
    options.memtable_bytes = 64 << 10;
    options.file_bytes = 32 << 10;
    options.base_level_bytes = 128 << 10;
    options.durability = DurabilityMode::kSync;
    return options;
  }

  void Open(MultilevelOptions options) {
    tree_.reset();
    ASSERT_TRUE(MultilevelTree::Open(options, "db", &tree_).ok());
  }

  MemEnv mem_env_;
  std::unique_ptr<MultilevelTree> tree_;
};

TEST_F(MultilevelTest, PutGetDelete) {
  Open(SmallOptions());
  ASSERT_TRUE(tree_->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(tree_->Delete("k").ok());
  EXPECT_TRUE(tree_->Get("k", &value).IsNotFound());
}

TEST_F(MultilevelTest, InsertIfNotExists) {
  Open(SmallOptions());
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "first").ok());
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "second").IsKeyExists());
}

TEST_F(MultilevelTest, LoadSpillsToMultipleLevels) {
  Open(SmallOptions());
  const uint64_t kN = 20000;
  Random rnd(9);
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(rnd.Uniform(1000000)), std::string(100, 'x'))
            .ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->BackgroundError().ok());
  // Data volume (~2.2MB) exceeds L1's 128KB target: deeper levels must hold
  // files.
  int deep_files = 0;
  for (int level = 2; level < kNumLevels; level++) {
    deep_files += tree_->NumFilesAtLevel(level);
  }
  EXPECT_GT(deep_files, 0);
  EXPECT_GT(tree_->stats().compactions.load(), 0u);
}

TEST_F(MultilevelTest, AllKeysReadableAfterCompactions) {
  Open(SmallOptions());
  const uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  for (uint64_t i = 0; i < kN; i += 13) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_F(MultilevelTest, NewestVersionWinsAcrossLevels) {
  Open(SmallOptions());
  ASSERT_TRUE(tree_->Put("k", "old").ok());
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->Put("k", "new").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_F(MultilevelTest, TombstonesDropAtBottom) {
  Open(SmallOptions());
  ASSERT_TRUE(tree_->Put("doomed", "v").ok());
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->Delete("doomed").ok());
  std::string value;
  EXPECT_TRUE(tree_->Get("doomed", &value).IsNotFound());
  ASSERT_TRUE(tree_->CompactAll().ok());
  EXPECT_TRUE(tree_->Get("doomed", &value).IsNotFound());
}

TEST_F(MultilevelTest, DeltasApply) {
  Open(SmallOptions());
  ASSERT_TRUE(tree_->Put("k", "base").ok());
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->WriteDelta("k", "+d").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "base+d");
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "base+d");
}

TEST_F(MultilevelTest, ScanMergedAcrossLevels) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "even").ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  for (uint64_t i = 1; i < 300; i += 2) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "odd").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(0), 1000, &rows).ok());
  ASSERT_EQ(rows.size(), 300u);
  for (uint64_t i = 0; i < 300; i++) {
    EXPECT_EQ(rows[i].first, PaddedKey(i));
    EXPECT_EQ(rows[i].second, i % 2 == 0 ? "even" : "odd");
  }
}

TEST_F(MultilevelTest, RecoveryAfterCrash) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "pre").ok());
  }
  tree_->WaitIdle();
  tree_.reset();
  mem_env_.DropUnsynced();
  Open(SmallOptions());
  for (uint64_t i = 0; i < 3000; i += 37) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "pre");
  }
}

TEST_F(MultilevelTest, ReadsCostMultipleSeeksWithoutBloom) {
  // The paper's Table 1: LevelDB point lookups are O(log n) seeks because
  // every L0 run and one file per level must be probed, with no filters.
  // The tree shape is built deterministically: every write batch fits the
  // memtable, so the only flushes are the serialized ones CompactAll
  // performs and the shape is a function of the data, not of background
  // flush timing.
  auto options = SmallOptions();
  options.block_cache_bytes = 0;  // cold cache
  Open(options);
  const uint64_t kN = 10000;
  const uint64_t kBatch = 400;  // ~46KB of entries, under the 64KB memtable
  for (uint64_t base = 0; base < kN; base += kBatch) {
    for (uint64_t i = base; i < base + kBatch; i++) {
      ASSERT_TRUE(tree_->Put(PaddedKey(i), std::string(100, 'x')).ok());
    }
    ASSERT_TRUE(tree_->CompactAll().ok());
  }
  // Drain L0: each pass adds one run, and at the compaction trigger the
  // policy takes every L0 run at once, leaving the level empty.
  for (int i = 0; i < 8 && tree_->NumFilesAtLevel(0) != 0; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(0), std::string(100, 'x')).ok());
    ASSERT_TRUE(tree_->CompactAll().ok());
  }
  ASSERT_EQ(tree_->NumFilesAtLevel(0), 0);
  // Overlay a full-range update run in L0, below the compaction trigger so
  // it survives CompactAll: probes now pay L0 plus one file per deeper
  // level that must be searched before the key is found.
  for (uint64_t i = 0; i < kN; i += 25) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), std::string(100, 'y')).ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_GE(tree_->NumFilesAtLevel(0), 1);

  auto before = mem_env_.io_counters()->snapshot();
  const int kProbes = 200;
  Random probe_rnd(13);
  for (int i = 0; i < kProbes; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(probe_rnd.Uniform(kN)), &value).ok());
  }
  auto diff = mem_env_.io_counters()->snapshot() - before;
  double seeks_per_read = static_cast<double>(diff.read_seeks) / kProbes;
  EXPECT_GT(seeks_per_read, 1.5)
      << "multilevel reads without bloom filters must cost several seeks";
}

TEST_F(MultilevelTest, BloomOptionReducesProbes) {
  auto with = SmallOptions();
  with.use_bloom = true;
  with.block_cache_bytes = 0;
  Open(with);
  for (uint64_t i = 0; i < 5000; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), std::string(100, 'x')).ok());
  }
  tree_->WaitIdle();
  auto before = mem_env_.io_counters()->snapshot();
  for (uint64_t i = 0; i < 500; i++) {
    std::string value;
    EXPECT_TRUE(tree_->Get("absent-" + std::to_string(i), &value).IsNotFound());
  }
  auto diff = mem_env_.io_counters()->snapshot() - before;
  // With the Riak bloom patch, negative lookups are nearly free.
  EXPECT_LT(diff.read_seeks, 100u);
}

TEST_F(MultilevelTest, SaturatingWritesStall) {
  // Figure 7 (right): saturating load piles up L0 runs and triggers the
  // slowdown/stop machinery.
  auto options = SmallOptions();
  options.durability = DurabilityMode::kNone;
  options.memtable_bytes = 16 << 10;
  options.l0_compaction_trigger = 2;
  options.l0_slowdown_trigger = 3;
  options.l0_stop_trigger = 4;
  Open(options);
  Random rnd(17);
  for (uint64_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(rnd.Uniform(100000)), std::string(500, 'x')).ok());
  }
  tree_->WaitIdle();
  ASSERT_TRUE(tree_->BackgroundError().ok());
  EXPECT_GT(tree_->stats().slowdown_writes.load() +
                tree_->stats().stopped_writes.load(),
            0u)
      << "saturating writes should have hit the L0 triggers";
}

TEST_F(MultilevelTest, OpenRejectsInvalidOptions) {
  std::unique_ptr<MultilevelTree> tree;
  auto expect_invalid = [&](MultilevelOptions options, const char* what) {
    Status s = MultilevelTree::Open(options, "bad", &tree);
    EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s.ToString();
  };

  auto o = SmallOptions();
  o.l0_compaction_trigger = 0;
  expect_invalid(o, "l0_compaction_trigger = 0");

  o = SmallOptions();
  o.l0_compaction_trigger = 9;
  o.l0_slowdown_trigger = 8;
  expect_invalid(o, "compaction trigger above slowdown");

  o = SmallOptions();
  o.l0_slowdown_trigger = 13;
  o.l0_stop_trigger = 12;
  expect_invalid(o, "slowdown trigger above stop");

  o = SmallOptions();
  o.level_ratio = 1;
  expect_invalid(o, "level_ratio < 2");

  o = SmallOptions();
  o.file_bytes = 0;
  expect_invalid(o, "file_bytes = 0");

  o = SmallOptions();
  o.base_level_bytes = 0;
  expect_invalid(o, "base_level_bytes = 0");

  // Equal triggers are the boundary and are legal.
  o = SmallOptions();
  o.l0_compaction_trigger = 4;
  o.l0_slowdown_trigger = 4;
  o.l0_stop_trigger = 4;
  EXPECT_TRUE(MultilevelTree::Open(o, "ok", &tree).ok());
}

// Load each policy until deep levels hold data, then check the layout
// invariant each one promises.
TEST_F(MultilevelTest, TieringStacksOverlappingRuns) {
  auto options = SmallOptions();
  options.compaction.layout = engine::CompactionLayout::kTiering;
  options.compaction.granularity = engine::CompactionGranularity::kWholeLevel;
  options.compaction.tier_runs = 3;
  Open(options);
  Random rnd(21);
  for (uint64_t i = 0; i < 20000; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(rnd.Uniform(1000000)), std::string(100, 'x'))
            .ok());
  }
  tree_->WaitIdle();
  ASSERT_TRUE(tree_->BackgroundError().ok());
  EXPECT_EQ(tree_->CompactionPolicyName(), "tiering@3");

  // Tiering never merges into a level, so some level past L0 must have
  // accumulated more than one run (up to tier_runs) at some point; verify
  // the final shape respects the cap and every key still reads back.
  for (int level = 1; level < kNumLevels - 1; level++) {
    EXPECT_LE(tree_->NumFilesAtLevel(level), 3) << "level " << level;
  }
  Random re_rnd(21);
  for (uint64_t i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(re_rnd.Uniform(1000000)), &value).ok());
    EXPECT_EQ(value.size(), 100u);
  }
}

TEST_F(MultilevelTest, LazyLevelingKeepsLastLevelSingleSorted) {
  auto options = SmallOptions();
  options.compaction.layout = engine::CompactionLayout::kLazyLeveling;
  options.compaction.granularity = engine::CompactionGranularity::kWholeLevel;
  options.compaction.tier_runs = 3;
  Open(options);
  Random rnd(23);
  for (uint64_t i = 0; i < 20000; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(rnd.Uniform(1000000)), std::string(100, 'x'))
            .ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  ASSERT_TRUE(tree_->BackgroundError().ok());

  // Once quiesced, the deepest data-bearing level is the leveled frontier:
  // its runs are sorted and non-overlapping (file count tracks bytes, not
  // tier fill).
  int last = -1;
  for (int level = kNumLevels - 1; level >= 1; level--) {
    if (tree_->NumFilesAtLevel(level) > 0) {
      last = level;
      break;
    }
  }
  ASSERT_GT(last, 0) << "load should have spilled past L0";
  // Upper tiered levels respect the run cap.
  for (int level = 1; level < last; level++) {
    EXPECT_LE(tree_->NumFilesAtLevel(level), 3) << "level " << level;
  }
  Random re_rnd(23);
  for (uint64_t i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(re_rnd.Uniform(1000000)), &value).ok());
  }
}

// Tiered shapes must round-trip recovery: the manifest records the
// overlapping-level bitmask, so a reopened tree keeps probing every run of
// a tiered level instead of assuming sortedness.
TEST_F(MultilevelTest, TieredShapeSurvivesReopen) {
  auto options = SmallOptions();
  options.compaction.layout = engine::CompactionLayout::kTiering;
  options.compaction.tier_runs = 4;
  Open(options);
  Random rnd(29);
  for (uint64_t i = 0; i < 12000; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(rnd.Uniform(500000)), std::string(100, 'y'))
            .ok());
  }
  tree_->WaitIdle();
  ASSERT_TRUE(tree_->BackgroundError().ok());
  std::vector<int> shape(kNumLevels);
  for (int l = 0; l < kNumLevels; l++) shape[l] = tree_->NumFilesAtLevel(l);

  Open(options);  // clean reopen (kSync: everything acknowledged is durable)
  for (int l = 0; l < kNumLevels; l++) {
    EXPECT_EQ(tree_->NumFilesAtLevel(l), shape[l]) << "level " << l;
  }
  Random re_rnd(29);
  for (uint64_t i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(re_rnd.Uniform(500000)), &value).ok());
  }
}

// A manifest whose checksum matches but whose file count exceeds what its
// body can hold is corrupt, not a request for a huge allocation.
TEST(ManifestDecodeTest, ForgedFileCountRejected) {
  ManifestData data;
  std::string blob = EncodeManifest(data);
  // Drop the checksum and the trailing zero count, then forge the count and
  // re-checksum so only the count is wrong.
  std::string body = blob.substr(0, blob.size() - 5);
  PutVarint32(&body, 0xffffffffu);
  PutFixed32(&body, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  ManifestData out;
  EXPECT_TRUE(DecodeManifest(body, &out).IsCorruption());
}

}  // namespace
}  // namespace blsm::multilevel
