#include <gtest/gtest.h>

#include <set>

#include "engine/kv.h"
#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"
#include "ycsb/driver.h"
#include "ycsb/generator.h"
#include "ycsb/workload.h"

namespace blsm::ycsb {
namespace {

TEST(FormatKeyTest, StableAndDistinct) {
  EXPECT_EQ(FormatKey(1, false), FormatKey(1, false));
  EXPECT_NE(FormatKey(1, false), FormatKey(2, false));
  EXPECT_NE(FormatKey(1, true), FormatKey(2, true));
  EXPECT_TRUE(FormatKey(7, true).starts_with("user"));
}

TEST(FormatKeyTest, UnhashedKeysSortById) {
  for (uint64_t i = 1; i < 1000; i++) {
    EXPECT_LT(FormatKey(i - 1, false), FormatKey(i, false));
  }
}

TEST(FormatKeyTest, HashedKeysAreScattered) {
  // Hashed keys must not be in id order (that's the point: unordered load).
  int inversions = 0;
  for (uint64_t i = 1; i < 1000; i++) {
    if (FormatKey(i, true) < FormatKey(i - 1, true)) inversions++;
  }
  EXPECT_GT(inversions, 300);
}

TEST(KeyChooserTest, UniformCoversSpace) {
  std::atomic<uint64_t> inserts{0};
  KeyChooser chooser(Distribution::kUniform, 100, &inserts, 1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; i++) {
    uint64_t id = chooser.Next();
    ASSERT_LT(id, 100u);
    seen.insert(id);
  }
  EXPECT_GT(seen.size(), 95u);
}

TEST(KeyChooserTest, GrowsWithInserts) {
  std::atomic<uint64_t> inserts{0};
  KeyChooser chooser(Distribution::kUniform, 10, &inserts, 1);
  inserts.store(90);
  bool saw_new = false;
  for (int i = 0; i < 1000; i++) {
    if (chooser.Next() >= 10) saw_new = true;
  }
  EXPECT_TRUE(saw_new);
}

TEST(KeyChooserTest, ZipfianSkews) {
  std::atomic<uint64_t> inserts{0};
  KeyChooser chooser(Distribution::kZipfian, 10000, &inserts, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; i++) counts[chooser.Next()]++;
  int max_count = 0;
  for (auto& [id, c] : counts) max_count = std::max(max_count, c);
  // Hottest key draws far more than the uniform share (5).
  EXPECT_GT(max_count, 500);
}

TEST(ValueGeneratorTest, SizeAndHeader) {
  ValueGenerator gen(1);
  std::string v = gen.Next(42, 1000);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v.substr(0, 4), "r42:");
}

TEST(ValueGeneratorTest, ValueDependsOnlyOnSeedAndId) {
  // A verifier rebuilds the generator and regenerates what a load wrote,
  // whatever else the loading generator produced first.
  const std::string expected = ValueGenerator(1).Next(42, 1000);
  ValueGenerator gen(1);
  for (uint64_t id = 0; id < 100; id++) gen.Next(id + 1000, 500);
  EXPECT_EQ(gen.Next(42, 1000), expected);
  EXPECT_EQ(gen.Next(42, 1000), expected);
  EXPECT_NE(ValueGenerator(2).Next(42, 1000), expected);
}

TEST(WorkloadSpecTest, StandardMixes) {
  auto a = WorkloadA(1000);
  EXPECT_DOUBLE_EQ(a.read_proportion + a.update_proportion, 1.0);
  auto e = WorkloadE(1000);
  EXPECT_GT(e.scan_proportion, 0.9);
  auto mix = WorkloadSpec::ReadWriteMix(40, true, 1000, Distribution::kUniform);
  EXPECT_DOUBLE_EQ(mix.update_proportion, 0.4);
  EXPECT_DOUBLE_EQ(mix.read_proportion, 0.6);
  auto rmw = WorkloadSpec::ReadWriteMix(40, false, 1000, Distribution::kUniform);
  EXPECT_DOUBLE_EQ(rmw.rmw_proportion, 0.4);
}

// End-to-end: load + run each engine through the driver, verify counts.
class DriverTest : public ::testing::Test {
 protected:
  MemEnv env_;
};

TEST_F(DriverTest, BlsmLoadAndMixedWorkload) {
  BlsmOptions options;
  options.env = &env_;
  options.c0_target_bytes = 256 << 10;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  WorkloadSpec spec = WorkloadA(2000);
  spec.value_size = 100;
  DriverOptions dopts;
  dopts.threads = 4;
  dopts.operations = 3000;
  // Narrow buckets so the run spans several, ending in a partial one.
  dopts.bucket_seconds = 0.001;
  auto load = RunLoad(tree.get(), spec, dopts, false, false);
  EXPECT_EQ(load.ops, 2000u);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_GT(load.OpsPerSecond(), 0.0);

  auto run = RunWorkload(tree.get(), spec, dopts);
  EXPECT_EQ(run.ops, 3000u);
  EXPECT_EQ(run.errors, 0u);
  EXPECT_EQ(run.latency_us.count(), 3000u);

  // Each bucket carries its own width: full buckets are bucket_seconds
  // wide, the last ends with the run, so ops / seconds is a true rate and
  // the widths tile the run exactly.
  for (const RunResult* r : {&load, &run}) {
    ASSERT_FALSE(r->timeseries.empty());
    uint64_t ts_ops = 0;
    double width_sum = 0;
    for (const auto& b : r->timeseries) {
      ts_ops += b.ops;
      width_sum += b.seconds;
      EXPECT_GE(b.seconds, 0.0);
      EXPECT_LE(b.seconds, dopts.bucket_seconds + 1e-9);
      EXPECT_NEAR(b.start_seconds, width_sum - b.seconds, 1e-9);
    }
    EXPECT_EQ(ts_ops, r->ops);
    EXPECT_NEAR(width_sum, r->elapsed_seconds, 1e-6);
  }
}

TEST_F(DriverTest, BTreeAdapter) {
  kv::CommonOptions options;
  options.env = &env_;
  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open("btree", options, "bt", &engine).ok());

  WorkloadSpec spec = WorkloadB(1000);
  spec.value_size = 100;
  DriverOptions dopts;
  dopts.threads = 2;
  dopts.operations = 1000;
  auto load = RunLoad(engine.get(), spec, dopts, true, true);
  EXPECT_EQ(load.errors, 0u);
  auto run = RunWorkload(engine.get(), spec, dopts);
  EXPECT_EQ(run.errors, 0u);
}

TEST_F(DriverTest, MultilevelLoadAndWorkload) {
  multilevel::MultilevelOptions options;
  options.env = &env_;
  options.memtable_bytes = 64 << 10;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "ml", &tree).ok());

  WorkloadSpec spec = WorkloadF(1000);
  spec.value_size = 100;
  DriverOptions dopts;
  dopts.threads = 2;
  dopts.operations = 2000;
  auto load = RunLoad(tree.get(), spec, dopts, false, false);
  EXPECT_EQ(load.errors, 0u);
  auto run = RunWorkload(tree.get(), spec, dopts);
  EXPECT_EQ(run.errors, 0u);
  tree->WaitIdle();
  ASSERT_TRUE(tree->BackgroundError().ok());
}

TEST_F(DriverTest, ScanWorkload) {
  BlsmOptions options;
  options.env = &env_;
  options.c0_target_bytes = 256 << 10;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db2", &tree).ok());

  WorkloadSpec spec = WorkloadE(1000);
  spec.value_size = 100;
  DriverOptions dopts;
  dopts.threads = 2;
  dopts.operations = 500;
  RunLoad(tree.get(), spec, dopts, false, false);
  auto run = RunWorkload(tree.get(), spec, dopts);
  EXPECT_EQ(run.errors, 0u);
}

}  // namespace
}  // namespace blsm::ycsb
