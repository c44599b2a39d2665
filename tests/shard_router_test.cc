// ShardRouter's Stats() aggregation, checked exactly against shards whose
// counters are fixed: most keys are totals and sum, but a per-shard maximum
// must stay a maximum and the compaction policy must pass through.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "engine/kv.h"
#include "engine/shard_router.h"
#include "io/mem_env.h"

namespace blsm {
namespace {

// A stats-only engine: shard-00 and shard-01 report different fixed
// counters; every data operation is refused.
class FixedStatsEngine final : public kv::Engine {
 public:
  explicit FixedStatsEngine(bool first) : first_(first) {}

  std::string Name() const override { return "fixed-stats"; }
  Status Put(const Slice&, const Slice&) override { return Refuse(); }
  Status Write(const kv::WriteBatch&) override { return Refuse(); }
  Status Get(const Slice&, std::string*) override { return Refuse(); }
  Status Delete(const Slice&) override { return Refuse(); }
  Status InsertIfNotExists(const Slice&, const Slice&) override {
    return Refuse();
  }
  Status ReadModifyWrite(
      const Slice&,
      const std::function<std::string(const std::string&, bool)>&) override {
    return Refuse();
  }
  Status Scan(const kv::ReadOptions&, const Slice&, size_t,
              std::vector<std::pair<std::string, std::string>>*) override {
    return Refuse();
  }
  Status Flush() override { return Status::OK(); }
  void WaitIdle() override {}
  Status BackgroundError() const override { return Status::OK(); }

  std::map<std::string, uint64_t> Stats() const override {
    return {
        {"puts", first_ ? 10u : 32u},
        {"write.stalls", first_ ? 2u : 3u},
        {"write.max_stall_micros", first_ ? 700u : 300u},
        {"compaction.policy", 2},
    };
  }

 private:
  static Status Refuse() { return Status::NotSupported("stats only"); }

  bool first_;
};

TEST(ShardRouterTest, StatsSumTotalsAndKeepMaxima) {
  kv::RegisterEngine(
      "fixed-stats",
      [](const kv::CommonOptions&, const std::string& dir,
         std::unique_ptr<kv::Engine>* out) {
        bool first = dir.ends_with("shard-00");
        *out = std::make_unique<FixedStatsEngine>(first);
        return Status::OK();
      });
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  std::unique_ptr<engine::ShardRouter> router;
  ASSERT_TRUE(
      engine::ShardRouter::Open(options, "fixed-stats", "db", 2, &router).ok());

  std::map<std::string, uint64_t> stats = router->Stats();
  EXPECT_EQ(stats["puts"], 42u);
  EXPECT_EQ(stats["write.stalls"], 5u);
  EXPECT_EQ(stats["write.max_stall_micros"], 700u);  // the longest stall
  EXPECT_EQ(stats["compaction.policy"], 2u);
  EXPECT_EQ(stats["shards"], 2u);
}

}  // namespace
}  // namespace blsm
