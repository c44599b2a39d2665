// Concurrency stress: writers, readers, scanners, a deleter, and foreground
// compactions all race while the background merges churn, across a sweep of
// tree geometries (tiny C0s force constant merging; small blocks force deep
// indexes). Verifies linearizable-enough behaviour for this API: each key is
// owned by one writer that writes strictly increasing versions, so any read
// must observe a version no older than the last acknowledged write at the
// time it started, and the final state must be exactly the last version.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "util/random.h"

namespace blsm {
namespace {

struct StressParams {
  size_t c0_bytes;
  size_t block_size;
  bool snowshovel;
};

class BlsmStressTest : public ::testing::TestWithParam<StressParams> {};

std::string KeyFor(int writer, uint64_t k) {
  char buf[32];
  snprintf(buf, sizeof(buf), "w%02d-%06llu", writer,
           static_cast<unsigned long long>(k));
  return buf;
}

TEST_P(BlsmStressTest, ConcurrentMixedLoadStaysConsistent) {
  const StressParams& p = GetParam();
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = p.c0_bytes;
  options.block_size = p.block_size;
  options.snowshovel = p.snowshovel;
  options.durability = DurabilityMode::kNone;  // stress structure, not log

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  constexpr int kWriters = 4;
  constexpr uint64_t kKeysPerWriter = 100;
  constexpr int kRounds = 40;
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  // last_acked[w][k] = newest version number acknowledged for that key.
  std::vector<std::vector<std::atomic<uint64_t>>> last_acked(kWriters);
  for (auto& row : last_acked) {
    row = std::vector<std::atomic<uint64_t>>(kKeysPerWriter);
  }

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      Random rnd(1000 + w);
      for (int round = 1; round <= kRounds && !failed; round++) {
        for (uint64_t k = 0; k < kKeysPerWriter; k++) {
          std::string value = "v" + std::to_string(round) + ":" +
                              std::string(rnd.Uniform(100), 'x');
          if (!tree->Put(KeyFor(w, k), value).ok()) {
            failed = true;
            return;
          }
          last_acked[w][k].store(static_cast<uint64_t>(round),
                                 std::memory_order_release);
        }
      }
    });
  }

  // Readers: every observed version must be >= the acked version read
  // BEFORE the Get started (monotonic reads per key).
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r] {
      Random rnd(2000 + r);
      while (!done && !failed) {
        int w = static_cast<int>(rnd.Uniform(kWriters));
        uint64_t k = rnd.Uniform(kKeysPerWriter);
        uint64_t floor_version =
            last_acked[w][k].load(std::memory_order_acquire);
        std::string value;
        Status s = tree->Get(KeyFor(w, k), &value);
        if (s.IsNotFound()) {
          if (floor_version > 0) {
            ADD_FAILURE() << "lost " << KeyFor(w, k);
            failed = true;
          }
          continue;
        }
        if (!s.ok()) {
          ADD_FAILURE() << s.ToString();
          failed = true;
          continue;
        }
        uint64_t got = strtoull(value.c_str() + 1, nullptr, 10);
        if (got < floor_version) {
          ADD_FAILURE() << KeyFor(w, k) << ": observed v" << got
                        << " after v" << floor_version << " was acked";
          failed = true;
        }
      }
    });
  }

  // Scanner: results must always be sorted and unique.
  threads.emplace_back([&] {
    Random rnd(3000);
    std::vector<std::pair<std::string, std::string>> rows;
    while (!done && !failed) {
      int w = static_cast<int>(rnd.Uniform(kWriters));
      if (!tree->Scan(KeyFor(w, 0), 50, &rows).ok()) continue;
      for (size_t i = 1; i < rows.size(); i++) {
        if (rows[i - 1].first >= rows[i].first) {
          ADD_FAILURE() << "scan out of order at " << rows[i].first;
          failed = true;
        }
      }
    }
  });

  // Compactor: foreground structural churn.
  threads.emplace_back([&] {
    Random rnd(4000);
    while (!done && !failed) {
      if (rnd.OneIn(3)) {
        tree->CompactToBottom().IgnoreError(
            "races the writer threads; Busy losses are part of the churn");
      } else {
        tree->Flush().IgnoreError(
            "races the writer threads; Busy losses are part of the churn");
      }
      env.SleepForMicroseconds(2000);
    }
  });

  for (int w = 0; w < kWriters; w++) threads[w].join();
  done = true;
  for (size_t i = kWriters; i < threads.size(); i++) threads[i].join();
  ASSERT_FALSE(failed.load());

  // Final state: the last round everywhere.
  tree->WaitIdle();
  ASSERT_TRUE(tree->BackgroundError().ok());
  for (int w = 0; w < kWriters; w++) {
    for (uint64_t k = 0; k < kKeysPerWriter; k += 7) {
      std::string value;
      ASSERT_TRUE(tree->Get(KeyFor(w, k), &value).ok()) << KeyFor(w, k);
      EXPECT_EQ(strtoull(value.c_str() + 1, nullptr, 10),
                static_cast<uint64_t>(kRounds))
          << KeyFor(w, k);
    }
  }
  // And a full scan sees exactly kWriters * kKeysPerWriter keys.
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", kWriters * kKeysPerWriter + 10, &all).ok());
  EXPECT_EQ(all.size(), kWriters * kKeysPerWriter);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BlsmStressTest,
    ::testing::Values(StressParams{16 << 10, 4096, true},
                      StressParams{64 << 10, 4096, true},
                      StressParams{64 << 10, 512, true},
                      StressParams{256 << 10, 4096, false},
                      StressParams{16 << 10, 1024, false}),
    [](const auto& info) {
      const StressParams& p = info.param;
      return "C0x" + std::to_string(p.c0_bytes / 1024) + "KBlk" +
             std::to_string(p.block_size) +
             (p.snowshovel ? "Snow" : "Part");
    });

}  // namespace
}  // namespace blsm
