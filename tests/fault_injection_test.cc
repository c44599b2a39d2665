// Failure-injection tests: when the device starts failing, the engines must
// surface errors (not crash, hang, or silently lose acknowledged data), and
// once the device heals plus the tree is reopened, recovery must restore a
// consistent state.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"
#include "util/random.h"

namespace blsm {
namespace {

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(i));
  return buf;
}

class FaultInjectionTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  MemEnv base_;
};

TEST_P(FaultInjectionTest, EnvFailsCleanly) {
  FaultInjectionEnv env(&base_);
  env.TripAfter(0);
  std::unique_ptr<WritableFile> f;
  EXPECT_TRUE(env.NewWritableFile("x", &f).IsIOError());
  env.Heal();
  EXPECT_TRUE(env.NewWritableFile("x", &f).ok());
  EXPECT_TRUE(f->Append("works").ok());
  env.TripAfter(0);
  EXPECT_TRUE(f->Append("fails").IsIOError());
  EXPECT_GT(env.faults_injected(), 0u);
}

TEST_P(FaultInjectionTest, BlsmSurfacesBackgroundErrorsAndRecovers) {
  FaultInjectionEnv env(&base_);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;
  options.durability = DurabilityMode::kSync;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  // Phase 1: healthy writes, flushed to disk.
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "stable" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());

  // Phase 2: the device dies partway through continued load. Writes must
  // start failing (either at the log append or via the surfaced background
  // error) rather than disappearing.
  env.TripAfter(GetParam());
  bool saw_failure = false;
  for (uint64_t i = 200; i < 2000; i++) {
    Status s = tree->Put(KeyFor(i), "doomed");
    if (!s.ok()) {
      saw_failure = true;
      break;
    }
  }
  // Give background merges a moment to hit the fault too.
  for (int i = 0; i < 50 && !saw_failure; i++) {
    env.SleepForMicroseconds(1000);
    saw_failure = !tree->BackgroundError().ok();
  }
  EXPECT_TRUE(saw_failure) << "a dead device must surface somewhere";

  // Phase 3: heal, reopen, verify phase-1 data survived intact.
  tree.reset();
  env.Heal();
  base_.DropUnsynced();
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  for (uint64_t i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(tree->Get(KeyFor(i), &value).ok()) << i;
    ASSERT_EQ(value, "stable" + std::to_string(i));
  }
  // And the tree is writable again.
  ASSERT_TRUE(tree->Put("fresh", "ok").ok());
  ASSERT_TRUE(tree->Flush().ok());
}

TEST_P(FaultInjectionTest, MultilevelSurfacesErrorsAndRecovers) {
  FaultInjectionEnv env(&base_);
  multilevel::MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 16 << 10;
  options.file_bytes = 8 << 10;
  options.durability = DurabilityMode::kSync;

  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
  for (uint64_t i = 0; i < 150; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "stable").ok());
  }
  ASSERT_TRUE(tree->CompactAll().ok());

  env.TripAfter(GetParam());
  bool saw_failure = false;
  for (uint64_t i = 150; i < 2000 && !saw_failure; i++) {
    saw_failure = !tree->Put(KeyFor(i), "doomed").ok();
  }
  for (int i = 0; i < 50 && !saw_failure; i++) {
    env.SleepForMicroseconds(1000);
    saw_failure = !tree->BackgroundError().ok();
  }
  EXPECT_TRUE(saw_failure);

  tree.reset();
  env.Heal();
  base_.DropUnsynced();
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
  for (uint64_t i = 0; i < 150; i++) {
    std::string value;
    ASSERT_TRUE(tree->Get(KeyFor(i), &value).ok()) << i;
  }
  ASSERT_TRUE(tree->Put("fresh", "ok").ok());
}

size_t CountRunFiles(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  size_t n = 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".run") == 0) n++;
  }
  return n;
}

// A partitioned L0->L1 merge cuts many output files. When the device dies
// partway through, the outputs already finished are dropped along with the
// partial one: after Heal() and a reopen, every key is readable and the
// directory holds exactly the runs the manifest references. The trip point
// sweeps through the open and the whole merge, so some trips must land
// after at least one output file was finished.
TEST(FaultCleanupTest, FailedMultiFileCompactionLeavesNothingBehind) {
  multilevel::MultilevelOptions options;
  options.memtable_bytes = 16 << 10;
  options.file_bytes = 8 << 10;
  options.durability = DurabilityMode::kSync;
  options.background.max_background_retries = 0;  // latch the first fault
  // Loading piles every memtable flush up in L0, uncompacted.
  constexpr int kLoadTrigger = 100;
  options.l0_slowdown_trigger = kLoadTrigger;
  options.l0_stop_trigger = kLoadTrigger;
  constexpr uint64_t kKeys = 600;
  auto value_for = [](uint64_t i) {
    return std::string(100, 'v') + std::to_string(i);
  };

  int failed_after_finished_output = 0;
  bool merge_completed = false;
  for (uint64_t trip = 0; trip < 2000 && !merge_completed; trip++) {
    SCOPED_TRACE("trip after " + std::to_string(trip));
    MemEnv base;
    FaultInjectionEnv env(&base);
    options.env = &env;
    options.l0_compaction_trigger = kLoadTrigger;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(tree->Put(KeyFor(i), value_for(i)).ok());
    }
    ASSERT_TRUE(tree->CompactAll().ok());
    ASSERT_GE(tree->NumFilesAtLevel(0), 4);
    tree.reset();
    const size_t runs_before = CountRunFiles(&base, "ml");

    // At the default trigger the reopened tree merges the whole L0 pile
    // into L1 on its background thread, the only IO after the open, so the
    // trip point is deterministic.
    options.l0_compaction_trigger = 4;
    env.TripAfter(trip);
    Status s = multilevel::MultilevelTree::Open(options, "ml", &tree);
    if (s.ok()) s = tree->CompactAll();
    if (s.ok()) {
      merge_completed = true;
    } else if (CountRunFiles(&base, "ml") >= runs_before + 2) {
      // A finished output plus the partial one were on disk at the fault.
      failed_after_finished_output++;
    }
    tree.reset();
    env.Heal();

    options.l0_compaction_trigger = kLoadTrigger;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
    size_t live = 0;
    for (int l = 0; l < multilevel::kNumLevels; l++) {
      live += static_cast<size_t>(tree->NumFilesAtLevel(l));
    }
    EXPECT_EQ(CountRunFiles(&base, "ml"), live);
    for (uint64_t i = 0; i < kKeys; i++) {
      std::string value;
      ASSERT_TRUE(tree->Get(KeyFor(i), &value).ok()) << i;
      ASSERT_EQ(value, value_for(i));
    }
  }
  EXPECT_TRUE(merge_completed);
  EXPECT_GT(failed_after_finished_output, 0);
}

INSTANTIATE_TEST_SUITE_P(TripPoints, FaultInjectionTest,
                         ::testing::Values(0, 3, 17, 60, 250),
                         [](const auto& info) {
                           return "After" + std::to_string(info.param);
                         });

// The metadata path must respect the fault state too: a tripped device that
// silently no-ops unlink would leak orphans, and a mkdir that "succeeds"
// would let recovery proceed against a directory that does not exist.
TEST(FaultInjectionMetadataTest, TrippedDeviceRefusesRemoveAndCreateDir) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.CreateDir("d").ok());
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("d/x", &f).ok());
  ASSERT_TRUE(f->Append("payload").ok());
  ASSERT_TRUE(f->Close().ok());

  env.TripAfter(0);
  EXPECT_TRUE(env.RemoveFile("d/x").IsIOError());
  EXPECT_TRUE(env.CreateDir("d2").IsIOError());
  EXPECT_TRUE(env.RenameFile("d/x", "d/y").IsIOError());
  EXPECT_TRUE(base.FileExists("d/x")) << "failed unlink must not unlink";

  env.Heal();
  EXPECT_TRUE(env.RemoveFile("d/x").ok());
  EXPECT_FALSE(base.FileExists("d/x"));
  EXPECT_TRUE(env.CreateDir("d2").ok());
}

// Probabilistic metadata faults flow through the same check.
TEST(FaultInjectionMetadataTest, PolicyFailsMetadataOps) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  FaultPolicy policy;
  policy.seed = 42;
  policy.metadata_error_prob = 1.0;
  env.SetPolicy(policy);
  EXPECT_TRUE(env.CreateDir("d").IsIOError());
  EXPECT_TRUE(env.RemoveFile("nope").IsIOError());
  env.Heal();
  EXPECT_TRUE(env.CreateDir("d").ok());
}

// Faults land per fragment of a gathered append: FaultWritableFile keeps
// the base-class AppendV (an Append loop), so each part rolls on its own
// and a trip mid-call leaves exactly the parts before it on disk.
TEST(FaultInjectionGranularityTest, AppendVFaultsPerFragment) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", &f).ok());
  env.TripAfter(1);
  const Slice parts[] = {"first-", "second-", "third"};
  EXPECT_TRUE(f->AppendV(parts, 3).IsIOError());
  env.Heal();
  ASSERT_TRUE(f->Close().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&base, "f", &data).ok());
  EXPECT_EQ(data, "first-");
}

// Recursive removal is a walk of individually faulted RemoveFile/RemoveDir
// calls, not one forwarded call: a device that dies mid-walk fails it and
// leaves the entries it had not reached yet.
TEST(FaultInjectionGranularityTest, RemoveDirRecursiveFailsOnMidWalkTrip) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.CreateDir("d").ok());
  for (const char* name : {"d/a", "d/b", "d/c"}) {
    ASSERT_TRUE(WriteStringToFile(&env, "x", name, false).ok());
  }
  env.TripAfter(1);
  EXPECT_TRUE(env.RemoveDirRecursive("d").IsIOError());
  EXPECT_FALSE(base.FileExists("d/a"));
  EXPECT_TRUE(base.FileExists("d/b"));
  EXPECT_TRUE(base.FileExists("d/c"));

  env.Heal();
  EXPECT_TRUE(env.RemoveDirRecursive("d").ok());
  EXPECT_FALSE(base.FileExists("d/b"));
  EXPECT_FALSE(base.FileExists("d/c"));
}

// A transient device outage during a merge must not poison the tree: the
// merge retries with backoff, and once the device heals the pass completes
// with no background error and no reopen.
TEST(FaultRetryTest, BlsmTransientMergeErrorRetriesAndHeals) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;
  options.durability = DurabilityMode::kNone;  // writes never touch the env
  options.background.max_background_retries = 1000000;  // outlast the outage
  options.background.retry_backoff_base_micros = 100;
  options.background.retry_backoff_max_micros = 1000;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  for (uint64_t i = 0; i < 300; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "v" + std::to_string(i)).ok());
  }

  env.TripAfter(0);
  std::thread flusher([&] {
    Status s = tree->Flush();
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  // Wait until the merge has actually hit the dead device (and retried).
  for (int i = 0; i < 10000 && env.faults_injected() == 0; i++) {
    base.SleepForMicroseconds(100);
  }
  EXPECT_GT(env.faults_injected(), 0u);
  env.Heal();
  flusher.join();

  EXPECT_TRUE(tree->BackgroundError().ok());
  EXPECT_GT(tree->stats().merge_retries.load(), 0u);
  // The tree is healthy without a reopen.
  std::string value;
  ASSERT_TRUE(tree->Get(KeyFor(7), &value).ok());
  EXPECT_EQ(value, "v7");
  ASSERT_TRUE(tree->Put("after-heal", "yes").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Get("after-heal", &value).ok());
}

TEST(FaultRetryTest, MultilevelTransientErrorRetriesAndHeals) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  multilevel::MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 16 << 10;
  options.file_bytes = 8 << 10;
  options.durability = DurabilityMode::kNone;
  options.background.max_background_retries = 1000000;
  options.background.retry_backoff_base_micros = 100;
  options.background.retry_backoff_max_micros = 1000;

  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
  for (uint64_t i = 0; i < 300; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "v").ok());
  }

  env.TripAfter(0);
  std::thread compactor([&] {
    Status s = tree->CompactAll();
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  for (int i = 0; i < 10000 && env.faults_injected() == 0; i++) {
    base.SleepForMicroseconds(100);
  }
  EXPECT_GT(env.faults_injected(), 0u);
  env.Heal();
  compactor.join();

  EXPECT_TRUE(tree->BackgroundError().ok());
  EXPECT_GT(tree->stats().compaction_retries.load(), 0u);
  std::string value;
  ASSERT_TRUE(tree->Get(KeyFor(7), &value).ok());
  ASSERT_TRUE(tree->Put("after-heal", "yes").ok());
}

// Permanent damage (a corrupt block) must latch immediately: retrying a
// checksum mismatch returns the same answer, so the error surfaces with the
// component's identity instead of burning the retry budget.
TEST(FaultRetryTest, BlsmPermanentErrorLatchesWithoutRetry) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;
  options.block_cache_bytes = 0;  // cached blocks would skip the checksum
  options.durability = DurabilityMode::kNone;
  options.background.retry_backoff_base_micros = 100;
  options.background.retry_backoff_max_micros = 1000;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(KeyFor(i), "payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());

  // Flip one byte early in the C1 file (a data block), behind the
  // injector's back.
  std::vector<std::string> children;
  ASSERT_TRUE(base.GetChildren("db", &children).ok());
  std::string tree_file;
  for (const auto& name : children) {
    if (name.size() > 5 && name.substr(name.size() - 5) == ".tree") {
      tree_file = "db/" + name;
    }
  }
  ASSERT_FALSE(tree_file.empty());
  {
    std::unique_ptr<RandomRWFile> rw;
    ASSERT_TRUE(base.NewRandomRWFile(tree_file, &rw).ok());
    Slice byte;
    char scratch;
    ASSERT_TRUE(rw->Read(100, 1, &byte, &scratch).ok());
    char flipped = static_cast<char>(byte[0] ^ 0x40);
    ASSERT_TRUE(rw->Write(100, Slice(&flipped, 1)).ok());
    ASSERT_TRUE(rw->Sync().ok());
  }

  // The next merge reads C1 sequentially, hits the bad checksum, and must
  // latch Corruption (naming the file) without spending retries on it.
  for (uint64_t i = 0; i < 200; i++) {
    tree->Put(KeyFor(i), "fresh").IgnoreError(
        "later puts may observe the latched background error; the "
        "explicit Flush below asserts it");
  }
  Status s = tree->Flush();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(".tree"), std::string::npos) << s.ToString();
  EXPECT_TRUE(tree->BackgroundError().IsCorruption());
  EXPECT_EQ(tree->stats().merge_retries.load(), 0u);
}

}  // namespace
}  // namespace blsm
