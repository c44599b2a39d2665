// Crash-recovery properties, exercised with MemEnv's power-failure
// simulation (DropUnsynced discards every byte written after the last
// fsync).
//
// Invariants:
//  * kSync mode: every acknowledged write survives any crash.
//  * any mode: recovery always succeeds and yields a consistent tree (no
//    partial merges, no references to missing files), and the recovered
//    state is a prefix-consistent view (never contains writes that were
//    never made).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

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

class RecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryPropertyTest, SyncedWritesSurviveCrashes) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;
  options.durability = DurabilityMode::kSync;

  Random rnd(GetParam());
  std::map<std::string, std::string> model;

  // Several crash epochs: random ops, crash at a random point, recover,
  // verify the complete state, continue.
  for (int epoch = 0; epoch < 4; epoch++) {
    std::unique_ptr<BlsmTree> tree;
    ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

    // Everything from previous epochs must be present.
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(tree->Get(k, &value).ok())
          << "lost " << k << " in epoch " << epoch;
      ASSERT_EQ(value, v) << k;
    }

    int ops = 200 + static_cast<int>(rnd.Uniform(600));
    for (int i = 0; i < ops; i++) {
      std::string key = KeyFor(rnd.Uniform(300));
      switch (rnd.Uniform(4)) {
        case 0: {
          ASSERT_TRUE(tree->Delete(key).ok());
          model.erase(key);
          break;
        }
        case 1:
          if (rnd.OneIn(20)) {
            ASSERT_TRUE(tree->Flush().ok());
            break;
          }
          [[fallthrough]];
        default: {
          std::string value =
              "e" + std::to_string(epoch) + ":" + std::to_string(i);
          ASSERT_TRUE(tree->Put(key, value).ok());
          model[key] = value;
          break;
        }
      }
    }
    // Give background merges a random amount of runway, then pull the plug
    // without any orderly shutdown.
    if (rnd.OneIn(2)) tree->WaitIdle();
    tree.reset();  // joins threads; does NOT sync anything extra in kSync
    env.DropUnsynced();
  }

  // Final full verification including scans.
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", 1000, &all).ok());
  std::vector<std::pair<std::string, std::string>> expected(model.begin(),
                                                            model.end());
  ASSERT_EQ(all, expected);
}

TEST_P(RecoveryPropertyTest, AsyncCrashYieldsConsistentPrefix) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;
  options.durability = DurabilityMode::kAsync;

  Random rnd(GetParam() * 31 + 7);
  // Record what was written; after the crash, any surviving value must be
  // one we actually wrote (never garbage), though recent ones may be gone.
  std::map<std::string, std::vector<std::string>> history;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  for (int i = 0; i < 2000; i++) {
    std::string key = KeyFor(rnd.Uniform(100));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(tree->Put(key, value).ok());
    history[key].push_back(value);
    if (rnd.OneIn(500)) ASSERT_TRUE(tree->Flush().ok());
  }
  tree.reset();
  env.DropUnsynced();

  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", 1000, &all).ok());
  for (const auto& [k, v] : all) {
    auto it = history.find(k);
    ASSERT_NE(it, history.end()) << "recovered a key never written: " << k;
    bool known = false;
    for (const auto& written : it->second) {
      if (written == v) known = true;
    }
    ASSERT_TRUE(known) << "recovered a value never written for " << k;
  }
  // And the tree must be fully writable after degraded recovery.
  ASSERT_TRUE(tree->Put("post-crash", "ok").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("post-crash", &value).ok());
}

TEST_P(RecoveryPropertyTest, MultilevelSyncedWritesSurviveCrashes) {
  MemEnv env;
  multilevel::MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 32 << 10;
  options.file_bytes = 16 << 10;
  options.base_level_bytes = 64 << 10;
  options.durability = DurabilityMode::kSync;

  Random rnd(GetParam() * 131);
  std::map<std::string, std::string> model;
  for (int epoch = 0; epoch < 3; epoch++) {
    std::unique_ptr<multilevel::MultilevelTree> tree;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(tree->Get(k, &value).ok()) << k << " epoch " << epoch;
      ASSERT_EQ(value, v);
    }
    int ops = 200 + static_cast<int>(rnd.Uniform(400));
    for (int i = 0; i < ops; i++) {
      std::string key = KeyFor(rnd.Uniform(200));
      std::string value = "e" + std::to_string(epoch) + ":" +
                          std::to_string(i) + std::string(50, 'p');
      ASSERT_TRUE(tree->Put(key, value).ok());
      model[key] = value;
    }
    if (rnd.OneIn(2)) tree->WaitIdle();
    tree.reset();
    env.DropUnsynced();
  }
  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_TRUE(tree->Get(k, &value).ok()) << k;
    ASSERT_EQ(value, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest,
                         ::testing::Values(11, 22, 33, 44),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace blsm
