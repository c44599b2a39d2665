#include "lsm/merge_scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "multilevel/multilevel_tree.h"

namespace blsm {
namespace {

SchedulerState MakeState(double c0_fill) {
  SchedulerState s;
  s.c0_target_bytes = 1000000;
  s.c0_live_bytes = static_cast<uint64_t>(c0_fill * 1000000);
  return s;
}

// --- Naive ---------------------------------------------------------------

TEST(NaiveSchedulerTest, NoDelayUntilFull) {
  NaiveScheduler sched;
  EXPECT_EQ(sched.WriteDelayMicros(MakeState(0.5)), 0u);
  EXPECT_FALSE(sched.WriteBlocked(MakeState(0.0)));
  EXPECT_FALSE(sched.WriteBlocked(MakeState(0.5)));
  EXPECT_FALSE(sched.WriteBlocked(MakeState(0.99)));
}

TEST(NaiveSchedulerTest, HardBlockWhenFull) {
  NaiveScheduler sched;
  EXPECT_TRUE(sched.WriteBlocked(MakeState(1.0)));
  EXPECT_TRUE(sched.WriteBlocked(MakeState(1.5)));
}

TEST(NaiveSchedulerTest, NeverPausesMerges) {
  NaiveScheduler sched;
  SchedulerState s = MakeState(0.5);
  s.merge1_active = true;
  s.merge2_active = true;
  s.merge1_outprogress = 1.0;
  s.merge2_inprogress = 0.0;
  EXPECT_FALSE(sched.PauseMerge1(s));
  EXPECT_FALSE(sched.PauseMerge2(s));
}

// --- Gear ------------------------------------------------------------------

TEST(GearSchedulerTest, WriterPacesAgainstMerge1) {
  GearScheduler sched;
  SchedulerState s = MakeState(0.5);
  s.merge1_active = true;
  s.merge1_inprogress = 0.2;  // writers ahead of the merge
  EXPECT_TRUE(sched.WriteBlocked(s));
  s.merge1_inprogress = 0.6;  // merge ahead of writers
  EXPECT_FALSE(sched.WriteBlocked(s));
}

TEST(GearSchedulerTest, WriterFreeWhenMergeInactive) {
  GearScheduler sched;
  SchedulerState s = MakeState(0.9);
  s.merge1_active = false;
  EXPECT_FALSE(sched.WriteBlocked(s));
}

TEST(GearSchedulerTest, WriterBlockedAtFull) {
  GearScheduler sched;
  SchedulerState s = MakeState(1.0);
  s.merge1_active = true;
  s.merge1_inprogress = 0.99;
  EXPECT_TRUE(sched.WriteBlocked(s));
}

TEST(GearSchedulerTest, Merge1PausesWhenAheadOfMerge2) {
  GearScheduler sched;
  SchedulerState s = MakeState(0.5);
  s.merge1_active = true;
  s.merge2_active = true;
  s.merge1_outprogress = 0.8;
  s.merge2_inprogress = 0.3;
  EXPECT_TRUE(sched.PauseMerge1(s));
  s.merge2_inprogress = 0.85;
  EXPECT_FALSE(sched.PauseMerge1(s));
}

TEST(GearSchedulerTest, Merge1PausesAtHandoffWhenC1PrimePending) {
  GearScheduler sched;
  SchedulerState s = MakeState(0.5);
  s.merge1_active = true;
  s.merge2_active = false;
  s.c1_prime_exists = true;
  s.merge1_outprogress = 0.99;
  EXPECT_TRUE(sched.PauseMerge1(s));
  s.merge1_outprogress = 0.5;
  EXPECT_FALSE(sched.PauseMerge1(s));
}

TEST(GearSchedulerTest, Merge2ShutsDownWhenAheadOfUpstream) {
  GearScheduler sched;
  SchedulerState s = MakeState(0.5);
  s.merge2_active = true;
  s.merge2_inprogress = 0.9;
  s.merge1_outprogress = 0.2;
  EXPECT_TRUE(sched.PauseMerge2(s));
  s.merge1_outprogress = 0.88;
  EXPECT_FALSE(sched.PauseMerge2(s));
}

TEST(GearSchedulerTest, PauseRulesCannotDeadlock) {
  // The two pause conditions are mutually exclusive for any state: merge1
  // pauses when outprogress1 > inprogress2 + slack, merge2 pauses when
  // inprogress2 > outprogress1 + slack.
  GearScheduler sched;
  for (double op1 = 0; op1 <= 1.0; op1 += 0.05) {
    for (double ip2 = 0; ip2 <= 1.0; ip2 += 0.05) {
      SchedulerState s = MakeState(0.5);
      s.merge1_active = true;
      s.merge2_active = true;
      s.merge1_outprogress = op1;
      s.merge2_inprogress = ip2;
      EXPECT_FALSE(sched.PauseMerge1(s) && sched.PauseMerge2(s))
          << "op1=" << op1 << " ip2=" << ip2;
    }
  }
}

// --- Spring and gear ----------------------------------------------------------

TEST(SpringGearSchedulerTest, NoBackpressureBelowLowWatermark) {
  SpringGearScheduler sched;
  EXPECT_EQ(sched.WriteDelayMicros(MakeState(0.0)), 0u);
  EXPECT_EQ(sched.WriteDelayMicros(MakeState(0.49)), 0u);
}

TEST(SpringGearSchedulerTest, ProportionalBackpressureBetweenWatermarks) {
  SpringGearScheduler sched;
  uint64_t d_low = sched.WriteDelayMicros(MakeState(0.55));
  uint64_t d_mid = sched.WriteDelayMicros(MakeState(0.75));
  uint64_t d_high = sched.WriteDelayMicros(MakeState(0.94));
  EXPECT_GT(d_low, 0u);
  EXPECT_GT(d_mid, d_low);
  EXPECT_GT(d_high, d_mid);
  EXPECT_LE(d_high, 2000u);
}

TEST(SpringGearSchedulerTest, DelaySaturatesAtHighWatermark) {
  SpringGearScheduler sched;
  EXPECT_EQ(sched.WriteDelayMicros(MakeState(0.96)), 2000u);
  EXPECT_EQ(sched.WriteDelayMicros(MakeState(0.99)), 2000u);
}

TEST(SpringGearSchedulerTest, BoundedDelayIsKeyProperty) {
  // The paper's claim: spring-and-gear bounds write latency. Except for the
  // (rare) completely-full case, the delay never exceeds the 2 ms cap and
  // writers are never hard-blocked.
  SpringGearScheduler sched;
  for (double fill = 0; fill < 0.999; fill += 0.001) {
    EXPECT_LE(sched.WriteDelayMicros(MakeState(fill)), 2000u) << fill;
    EXPECT_FALSE(sched.WriteBlocked(MakeState(fill))) << fill;
  }
  EXPECT_TRUE(sched.WriteBlocked(MakeState(1.0)));
}

TEST(SpringGearSchedulerTest, Merge1PausesWhenC0Drains) {
  SpringGearScheduler sched;
  SchedulerState s = MakeState(0.3);  // below the low watermark
  s.merge1_active = true;
  EXPECT_TRUE(sched.PauseMerge1(s));
  s = MakeState(0.7);
  s.merge1_active = true;
  EXPECT_FALSE(sched.PauseMerge1(s));
}

TEST(SpringGearSchedulerTest, DownstreamGearPacingRetained) {
  SpringGearScheduler sched;
  SchedulerState s = MakeState(0.7);
  s.merge1_active = true;
  s.merge2_active = true;
  s.merge1_outprogress = 0.9;
  s.merge2_inprogress = 0.2;
  EXPECT_TRUE(sched.PauseMerge1(s));
  s.merge2_inprogress = 0.95;
  EXPECT_FALSE(sched.PauseMerge1(s));
  s.merge1_outprogress = 0.1;
  EXPECT_TRUE(sched.PauseMerge2(s));
}

TEST(SchedulerStateTest, C0Fill) {
  SchedulerState s;
  s.c0_target_bytes = 100;
  s.c0_live_bytes = 25;
  EXPECT_DOUBLE_EQ(s.c0_fill(), 0.25);
}

TEST(MakeSchedulerTest, CreatesAllKinds) {
  EXPECT_EQ(MakeScheduler(SchedulerKind::kNaive)->Name(), "naive");
  EXPECT_EQ(MakeScheduler(SchedulerKind::kGear)->Name(), "gear");
  EXPECT_EQ(MakeScheduler(SchedulerKind::kSpringGear)->Name(), "spring-gear");
}

// --- Bounded stall escape ---------------------------------------------------

// Writers hard-stalled behind background work must observe a latched
// background error within a bounded delay — an error during a stall turns
// into a returned Status, never a hang (the robustness contract behind the
// CondVar-based stall paths).

TEST(StallEscapeTest, MultilevelWriterEscapesOnLatchedError) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  multilevel::MultilevelOptions options;
  options.env = &env;
  options.memtable_bytes = 16 << 10;
  // No WAL: foreground writes touch no I/O, so only flush/compaction sees
  // the injected faults — the error must reach the writer via the latch,
  // not via its own log append.
  options.durability = DurabilityMode::kNone;
  options.background.max_background_retries = 3;
  options.background.retry_backoff_base_micros = 50 * 1000;

  std::unique_ptr<multilevel::MultilevelTree> tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(options, "db", &tree).ok());
  env.TripAfter(0);

  std::string value(1024, 'v');
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_error = false;
  uint64_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto op_start = std::chrono::steady_clock::now();
    Status s = tree->Put("k" + std::to_string(i++), value);
    auto op_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - op_start)
                     .count();
    EXPECT_LT(op_ms, 5000) << "a single Put stalled unboundedly";
    if (!s.ok()) {
      saw_error = true;
      break;
    }
  }
  EXPECT_TRUE(saw_error) << "latched background error never reached a writer";
  EXPECT_FALSE(tree->BackgroundError().ok());
  env.Heal();
}

TEST(StallEscapeTest, BlsmWriterEscapesOnLatchedError) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 16 << 10;
  // The naive scheduler hard-blocks at a full C0 — exactly the stall the
  // escape has to break out of.
  options.scheduler = SchedulerKind::kNaive;
  options.durability = DurabilityMode::kNone;
  options.background.max_background_retries = 3;
  options.background.retry_backoff_base_micros = 50 * 1000;

  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  env.TripAfter(0);

  std::string value(1024, 'v');
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_error = false;
  uint64_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto op_start = std::chrono::steady_clock::now();
    Status s = tree->Put("k" + std::to_string(i++), value);
    auto op_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - op_start)
                     .count();
    EXPECT_LT(op_ms, 5000) << "a single Put stalled unboundedly";
    if (!s.ok()) {
      saw_error = true;
      break;
    }
  }
  EXPECT_TRUE(saw_error) << "latched background error never reached a writer";
  EXPECT_FALSE(tree->BackgroundError().ok());
  env.Heal();
}

// --- Two engines on one Env -------------------------------------------------

TEST(SharedEnvTest, TwoEnginesBothMakeProgress) {
  // A bLSM tree and a multilevel tree written concurrently on one MemEnv:
  // both must keep making merge progress without a background error.
  MemEnv env;

  BlsmOptions bopts;
  bopts.env = &env;
  bopts.c0_target_bytes = 64 << 10;
  bopts.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> blsm_tree;
  ASSERT_TRUE(BlsmTree::Open(bopts, "blsm_db", &blsm_tree).ok());

  multilevel::MultilevelOptions mopts;
  mopts.env = &env;
  mopts.memtable_bytes = 32 << 10;
  mopts.durability = DurabilityMode::kNone;
  std::unique_ptr<multilevel::MultilevelTree> ml_tree;
  ASSERT_TRUE(multilevel::MultilevelTree::Open(mopts, "ml_db", &ml_tree).ok());

  std::string value(512, 'v');
  std::thread blsm_writer([&] {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(blsm_tree->Put("b" + std::to_string(i), value).ok());
    }
  });
  std::thread ml_writer([&] {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(ml_tree->Put("m" + std::to_string(i), value).ok());
    }
  });
  blsm_writer.join();
  ml_writer.join();
  blsm_tree->WaitIdle();
  ml_tree->WaitIdle();

  EXPECT_TRUE(blsm_tree->BackgroundError().ok());
  EXPECT_TRUE(ml_tree->BackgroundError().ok());
  EXPECT_GT(blsm_tree->stats().merge1_passes.load(), 0u);
  EXPECT_GT(ml_tree->stats().memtable_flushes.load(), 0u);
}

}  // namespace
}  // namespace blsm
