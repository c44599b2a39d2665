#ifndef BLSM_LSM_MERGE_SCHEDULER_H_
#define BLSM_LSM_MERGE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>

namespace blsm {

// The spring's low water mark (§4.3), as a fraction of C0's target size:
// below it writers feel no backpressure and merge 1 pauses to let C0
// refill. The snowshoveling tree also starts merge 1 once C0 reaches it.
inline constexpr double kSpringLowWatermark = 0.50;

// Inputs to a level scheduler (§4): the progress estimators defined in §4.1.
//
// For merge i (1 = C0:C1, 2 = C1':C2):
//   inprogress_i  = bytes read by merge_i / (|C'_{i-1}| + |C_i|)     -- [0,1]
//   outprogress_1 = (inprogress_1 + floor(|C1| / |C0_target|)) / ceil(R)
//
// inprogress is "smooth": any merge activity increases it, and equal
// increments cost a bounded amount of I/O — the property §4.1 identifies as
// essential (estimators based only on large-tree I/O get "stuck" and stall).
struct SchedulerState {
  // Spring (C0) state.
  uint64_t c0_live_bytes = 0;
  uint64_t c0_target_bytes = 1;

  // Merge 1 (C0 -> C1).
  bool merge1_active = false;
  double merge1_inprogress = 0;
  double merge1_outprogress = 0;

  // Merge 2 (C1' -> C2).
  bool merge2_active = false;
  double merge2_inprogress = 0;
  bool c1_prime_exists = false;

  double c0_fill() const {
    return static_cast<double>(c0_live_bytes) /
           static_cast<double>(c0_target_bytes);
  }
};

// A level scheduler (§4: the paper's primary contribution class) decides,
// from the progress estimators, (a) how long an application write must stall
// and (b) whether each merge thread should pause between batches. Stateless:
// pure functions of SchedulerState, which makes them directly unit-testable.
class MergeScheduler {
 public:
  virtual ~MergeScheduler() = default;

  virtual std::string Name() const = 0;

  // One-shot delay applied to a write before it proceeds (the "spring"):
  // the writer sleeps this long once, then writes. Not a block condition.
  virtual uint64_t WriteDelayMicros(const SchedulerState& s) const = 0;

  // Hard stall: the writer must wait (re-polling) while this returns true.
  // All schedulers block when C0 is completely full; the gear scheduler
  // additionally blocks writers that outrun merge 1.
  virtual bool WriteBlocked(const SchedulerState& s) const = 0;

  // True if the C0:C1 merge should pause between batches.
  virtual bool PauseMerge1(const SchedulerState& s) const = 0;
  // True if the C1':C2 merge should pause between batches.
  virtual bool PauseMerge2(const SchedulerState& s) const = 0;
};

// Block-when-full baseline (§3.2's "most obvious solution"): writes proceed
// at full speed until C0 fills, then stall completely until the merge frees
// space. Reproduces the unbounded write pauses of naive LSM-trees.
class NaiveScheduler final : public MergeScheduler {
 public:
  std::string Name() const override { return "naive"; }
  uint64_t WriteDelayMicros(const SchedulerState&) const override {
    return 0;
  }
  bool WriteBlocked(const SchedulerState& s) const override {
    return s.c0_fill() >= 1.0;
  }
  bool PauseMerge1(const SchedulerState&) const override { return false; }
  bool PauseMerge2(const SchedulerState&) const override { return false; }
};

// Gear scheduler (§4.1): merge completions are synchronized like clock
// hands. Writers pace C0's fill fraction against merge 1's inprogress;
// merge 1 paces its outprogress against merge 2's inprogress; merge 2 shuts
// down if it runs ahead of upstream. Requires the C0/C0' partition (no
// snowshoveling, §4.3).
class GearScheduler final : public MergeScheduler {
 public:
  std::string Name() const override { return "gear"; }
  uint64_t WriteDelayMicros(const SchedulerState&) const override {
    return 0;
  }
  bool WriteBlocked(const SchedulerState& s) const override;
  bool PauseMerge1(const SchedulerState& s) const override;
  bool PauseMerge2(const SchedulerState& s) const override;
};

// Spring and gear scheduler (§4.3): C0 is a spring kept between a low
// (kSpringLowWatermark) and a high (95%) water mark. Writers feel
// backpressure proportional to how far C0 has filled past the low mark, up
// to 2 ms at the high mark (hard stall only at 100%); merge 1 pauses when
// C0 drains below the low mark (so snowshoveling always has data to work
// with); the downstream gear pacing is unchanged.
class SpringGearScheduler final : public MergeScheduler {
 public:
  std::string Name() const override { return "spring-gear"; }
  uint64_t WriteDelayMicros(const SchedulerState& s) const override;
  bool WriteBlocked(const SchedulerState& s) const override {
    return s.c0_fill() >= 1.0;  // spring fully compressed
  }
  bool PauseMerge1(const SchedulerState& s) const override;
  bool PauseMerge2(const SchedulerState& s) const override;
};

enum class SchedulerKind { kNaive, kGear, kSpringGear };

std::unique_ptr<MergeScheduler> MakeScheduler(SchedulerKind kind);

}  // namespace blsm

#endif  // BLSM_LSM_MERGE_SCHEDULER_H_
