// Property-based test: BlsmTree must behave exactly like an in-memory model
// (std::map with append-delta semantics) under arbitrary operation
// sequences, across every scheduler/snowshovel/bloom configuration, with
// merges, flushes, compactions, and reopens interleaved at random.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "util/random.h"

namespace blsm {
namespace {

// Oracle with the same semantics as the tree + AppendMergeOperator.
class Model {
 public:
  void Put(const std::string& k, const std::string& v) { map_[k] = v; }
  void Delete(const std::string& k) { map_.erase(k); }
  void Delta(const std::string& k, const std::string& d) {
    auto it = map_.find(k);
    if (it == map_.end()) {
      map_[k] = d;  // delta against a missing base defines the value
    } else {
      it->second += d;
    }
  }
  std::optional<std::string> Get(const std::string& k) const {
    auto it = map_.find(k);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool Exists(const std::string& k) const { return map_.count(k) > 0; }

  std::vector<std::pair<std::string, std::string>> Scan(const std::string& s,
                                                        size_t n) const {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = map_.lower_bound(s); it != map_.end() && out.size() < n;
         ++it) {
      out.push_back(*it);
    }
    return out;
  }

  const std::map<std::string, std::string>& map() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

struct PropertyConfig {
  SchedulerKind scheduler;
  bool snowshovel;
  bool use_bloom;
  bool early_termination;
  uint64_t seed;
};

class BlsmPropertyTest : public ::testing::TestWithParam<PropertyConfig> {};

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST_P(BlsmPropertyTest, MatchesModelUnderRandomOps) {
  const PropertyConfig& config = GetParam();
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 32 << 10;  // tiny: constant merge churn
  options.scheduler = config.scheduler;
  options.snowshovel = config.snowshovel;
  options.use_bloom = config.use_bloom;
  options.early_read_termination = config.early_termination;
  options.durability = DurabilityMode::kSync;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  Model model;
  Random rnd(config.seed);

  const uint64_t kKeySpace = 400;
  const int kOps = 6000;
  for (int op = 0; op < kOps; op++) {
    uint64_t k = rnd.Uniform(kKeySpace);
    std::string key = KeyFor(k);
    switch (rnd.Uniform(10)) {
      case 0:
      case 1:
      case 2: {  // put
        std::string value = "v" + std::to_string(op) + ":" +
                            std::string(rnd.Uniform(120), 'x');
        ASSERT_TRUE(tree->Put(key, value).ok());
        model.Put(key, value);
        break;
      }
      case 3: {  // delete
        ASSERT_TRUE(tree->Delete(key).ok());
        model.Delete(key);
        break;
      }
      case 4: {  // delta
        std::string delta = "+d" + std::to_string(op % 97);
        ASSERT_TRUE(tree->WriteDelta(key, delta).ok());
        model.Delta(key, delta);
        break;
      }
      case 5: {  // insert-if-not-exists
        Status s = tree->InsertIfNotExists(key, "fresh");
        if (model.Exists(key)) {
          ASSERT_TRUE(s.IsKeyExists()) << key << " op " << op;
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          model.Put(key, "fresh");
        }
        break;
      }
      case 6: {  // point read
        std::string value;
        Status s = tree->Get(key, &value);
        auto expected = model.Get(key);
        if (expected.has_value()) {
          ASSERT_TRUE(s.ok()) << key << " op " << op << ": " << s.ToString();
          ASSERT_EQ(value, *expected) << key << " op " << op;
        } else {
          ASSERT_TRUE(s.IsNotFound()) << key << " op " << op;
        }
        break;
      }
      case 7: {  // scan
        size_t n = 1 + rnd.Uniform(20);
        std::vector<std::pair<std::string, std::string>> rows;
        ASSERT_TRUE(tree->Scan(key, n, &rows).ok());
        auto expected = model.Scan(key, n);
        ASSERT_EQ(rows, expected) << "scan at " << key << " op " << op;
        break;
      }
      case 8: {  // structural events
        switch (rnd.Uniform(8)) {
          case 0:
            ASSERT_TRUE(tree->Flush().ok());
            break;
          case 1:
            ASSERT_TRUE(tree->CompactToBottom().ok());
            break;
          default:
            break;  // usually do nothing: let background merges race
        }
        break;
      }
      case 9: {  // read-modify-write
        std::string tag = ":rmw" + std::to_string(op % 31);
        ASSERT_TRUE(tree->ReadModifyWrite(
                            key,
                            [&](const std::string& old, bool absent) {
                              return absent ? tag : old + tag;
                            })
                        .ok());
        auto old = model.Get(key);
        model.Put(key, old.has_value() ? *old + tag : tag);
        break;
      }
    }
  }

  // Full-state equivalence via a complete scan.
  tree->WaitIdle();
  ASSERT_TRUE(tree->BackgroundError().ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  std::vector<std::pair<std::string, std::string>> expected(
      model.map().begin(), model.map().end());
  ASSERT_EQ(all, expected);

  // Survives a clean reopen.
  tree.reset();
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  ASSERT_EQ(all, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BlsmPropertyTest,
    ::testing::Values(
        PropertyConfig{SchedulerKind::kSpringGear, true, true, true, 1},
        PropertyConfig{SchedulerKind::kSpringGear, true, true, true, 2},
        PropertyConfig{SchedulerKind::kSpringGear, false, true, true, 3},
        PropertyConfig{SchedulerKind::kGear, false, true, true, 4},
        PropertyConfig{SchedulerKind::kNaive, true, true, true, 5},
        PropertyConfig{SchedulerKind::kSpringGear, true, false, true, 6},
        PropertyConfig{SchedulerKind::kSpringGear, true, true, false, 7},
        PropertyConfig{SchedulerKind::kNaive, false, false, false, 8}),
    [](const auto& info) {
      const PropertyConfig& c = info.param;
      std::string name;
      switch (c.scheduler) {
        case SchedulerKind::kNaive: name = "Naive"; break;
        case SchedulerKind::kGear: name = "Gear"; break;
        case SchedulerKind::kSpringGear: name = "SpringGear"; break;
      }
      name += c.snowshovel ? "Snow" : "Part";
      name += c.use_bloom ? "Bloom" : "NoBloom";
      name += c.early_termination ? "Early" : "Exhaustive";
      name += "Seed" + std::to_string(c.seed);
      return name;
    });

}  // namespace
}  // namespace blsm
