#include "lsm/merge_scheduler.h"

#include <algorithm>

namespace blsm {

namespace {
// How far one gear may run ahead of the gear it is paced against.
constexpr double kSlack = 0.05;
// The spring's high water mark (fraction of C0's target) and the write delay
// it saturates at.
constexpr double kSpringHighWatermark = 0.95;
constexpr uint64_t kSpringMaxDelayMicros = 2000;
}  // namespace

// --- Gear ---------------------------------------------------------------------

bool GearScheduler::WriteBlocked(const SchedulerState& s) const {
  double fill = s.c0_fill();
  if (fill >= 1.0) return true;
  // Writers fill C0 in lockstep with merge 1 draining C0': the clock-hand
  // analogy says C0 must become full exactly when the merge completes, so a
  // writer that outruns the merge waits for it to catch up.
  return s.merge1_active && fill > s.merge1_inprogress + kSlack;
}

bool GearScheduler::PauseMerge1(const SchedulerState& s) const {
  // Merge 1 fills C1; C1 must not become ready (outprogress -> 1) before
  // merge 2 has freed C1'. Pause while we are ahead of merge 2.
  if (s.merge2_active) {
    return s.merge1_outprogress > s.merge2_inprogress + kSlack;
  }
  // If a frozen C1' exists but its merge has not begun, we are at the
  // hand-off point; merge 1 must not lap it.
  if (s.c1_prime_exists) {
    return s.merge1_outprogress >= 1.0 - kSlack;
  }
  return false;
}

bool GearScheduler::PauseMerge2(const SchedulerState& s) const {
  // Downstream shuts down if it runs ahead of the upstream fill (§4.1:
  // shrinking upstream trees "cause the downstream mergers to shut down
  // until the current tree increases in size").
  return s.merge2_active &&
         s.merge2_inprogress > s.merge1_outprogress + kSlack;
}

// --- Spring and gear ----------------------------------------------------------

uint64_t SpringGearScheduler::WriteDelayMicros(const SchedulerState& s) const {
  double fill = s.c0_fill();
  if (fill <= kSpringLowWatermark) return 0;  // spring relaxed: no backpressure
  // Proportional backpressure between the watermarks; saturates at the high
  // mark so latency stays bounded while throughput matches merge speed.
  double x = std::min((fill - kSpringLowWatermark) /
                          (kSpringHighWatermark - kSpringLowWatermark),
                      1.0);
  return static_cast<uint64_t>(x * static_cast<double>(kSpringMaxDelayMicros));
}

bool SpringGearScheduler::PauseMerge1(const SchedulerState& s) const {
  // Let C0 refill when it drains below the low mark: snowshoveling and
  // partition selection need a pool of buffered writes to be effective.
  if (s.c0_fill() < kSpringLowWatermark) return true;
  if (s.merge2_active) {
    return s.merge1_outprogress > s.merge2_inprogress + kSlack;
  }
  if (s.c1_prime_exists) {
    return s.merge1_outprogress >= 1.0 - kSlack;
  }
  return false;
}

bool SpringGearScheduler::PauseMerge2(const SchedulerState& s) const {
  return s.merge2_active &&
         s.merge2_inprogress > s.merge1_outprogress + kSlack;
}

std::unique_ptr<MergeScheduler> MakeScheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNaive:
      return std::make_unique<NaiveScheduler>();
    case SchedulerKind::kGear:
      return std::make_unique<GearScheduler>();
    case SchedulerKind::kSpringGear:
      return std::make_unique<SpringGearScheduler>();
  }
  return nullptr;
}

}  // namespace blsm
