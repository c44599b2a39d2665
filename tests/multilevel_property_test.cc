// Property-based test for the multilevel (LevelDB stand-in) tree: a
// std::map oracle under random operations, with tiny memtables/files so
// flushes and partition compactions churn constantly, plus reopen.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "io/mem_env.h"
#include "multilevel/multilevel_tree.h"
#include "util/random.h"

namespace blsm::multilevel {
namespace {

class MultilevelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST_P(MultilevelPropertyTest, MatchesModelUnderRandomOps) {
  MemEnv env;
  MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 16 << 10;
  options.file_bytes = 8 << 10;
  options.base_level_bytes = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.durability = DurabilityMode::kSync;
  options.use_bloom = GetParam() % 2 == 0;  // alternate the Riak patch

  std::unique_ptr<MultilevelTree> tree;
  ASSERT_TRUE(MultilevelTree::Open(options, "ml", &tree).ok());
  std::map<std::string, std::string> model;
  Random rnd(GetParam());

  const uint64_t kKeySpace = 300;
  for (int op = 0; op < 5000; op++) {
    std::string key = KeyFor(rnd.Uniform(kKeySpace));
    switch (rnd.Uniform(8)) {
      case 0: {
        ASSERT_TRUE(tree->Delete(key).ok());
        model.erase(key);
        break;
      }
      case 1: {  // delta (append semantics)
        std::string d = "+" + std::to_string(op % 13);
        ASSERT_TRUE(tree->WriteDelta(key, d).ok());
        auto it = model.find(key);
        if (it == model.end()) {
          model[key] = d;
        } else {
          it->second += d;
        }
        break;
      }
      case 2: {
        std::string value;
        Status s = tree->Get(key, &value);
        auto it = model.find(key);
        if (it != model.end()) {
          ASSERT_TRUE(s.ok()) << key << " op " << op << ": " << s.ToString();
          ASSERT_EQ(value, it->second) << key << " op " << op;
        } else {
          ASSERT_TRUE(s.IsNotFound()) << key << " op " << op;
        }
        break;
      }
      case 3: {
        size_t n = 1 + rnd.Uniform(15);
        std::vector<std::pair<std::string, std::string>> rows;
        ASSERT_TRUE(tree->Scan(key, n, &rows).ok());
        std::vector<std::pair<std::string, std::string>> expected;
        for (auto it = model.lower_bound(key);
             it != model.end() && expected.size() < n; ++it) {
          expected.push_back(*it);
        }
        ASSERT_EQ(rows, expected) << "scan at " << key << " op " << op;
        break;
      }
      case 4: {
        if (rnd.OneIn(20)) ASSERT_TRUE(tree->CompactAll().ok());
        break;
      }
      default: {
        std::string value =
            "v" + std::to_string(op) + std::string(rnd.Uniform(150), 'm');
        ASSERT_TRUE(tree->Put(key, value).ok());
        model[key] = value;
        break;
      }
    }
  }

  tree->WaitIdle();
  ASSERT_TRUE(tree->BackgroundError().ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  std::vector<std::pair<std::string, std::string>> expected(model.begin(),
                                                            model.end());
  ASSERT_EQ(all, expected);

  // Compactions actually happened (the point of the tiny geometry).
  EXPECT_GT(tree->stats().compactions.load() +
                tree->stats().memtable_flushes.load(),
            5u);

  // Reopen and recheck.
  tree.reset();
  ASSERT_TRUE(MultilevelTree::Open(options, "ml", &tree).ok());
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  ASSERT_EQ(all, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultilevelPropertyTest,
                         ::testing::Values(101, 202, 303, 404),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace blsm::multilevel
