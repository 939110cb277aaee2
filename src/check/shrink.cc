#include "check/shrink.h"

#include <algorithm>

namespace consensus40::check {

FaultSchedule ShrinkSchedule(FaultSchedule schedule, const FaultBounds& bounds,
                             const ScheduleTestFn& still_violates,
                             int max_runs, ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats* st = stats != nullptr ? stats : &local;
  *st = ShrinkStats{};

  // Idempotent on generator output; repairs hand-built inputs up front so
  // the invariant "current schedule is closed-world" holds from run one.
  schedule = RestoreScheduleTail(std::move(schedule), bounds);

  size_t chunk = std::max<size_t>(1, schedule.actions.size() / 2);
  while (!schedule.actions.empty() && st->runs < max_runs) {
    bool removed_any = false;
    for (size_t start = 0;
         start < schedule.actions.size() && st->runs < max_runs;) {
      const size_t end = std::min(start + chunk, schedule.actions.size());
      FaultSchedule c = schedule;
      c.actions.erase(c.actions.begin() + start, c.actions.begin() + end);
      c = RestoreScheduleTail(std::move(c), bounds);
      ++st->runs;
      // A deletion the repair fully re-appends (e.g. removing the tail
      // heal) cannot shrink the schedule; skip the replay.
      if (c.actions.size() < schedule.actions.size() && still_violates(c)) {
        // Net of anything the tail repair re-appended.
        st->removed +=
            static_cast<int>(schedule.actions.size() - c.actions.size());
        schedule = std::move(c);
        removed_any = true;
        continue;  // Do not advance: the next chunk slid into `start`.
      }
      start = end;
    }
    if (!removed_any) {
      if (chunk == 1) break;
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  return schedule;
}

FaultSchedule CanonicalizeSchedule(FaultSchedule schedule,
                                   const FaultBounds& bounds,
                                   const ScheduleTestFn& still_violates,
                                   ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats* st = stats != nullptr ? stats : &local;

  // Rejects (without a replay) any edit that breaks the closed-world
  // tail — snapping could otherwise move a heal ahead of its partition.
  auto well_formed = [&bounds](const FaultSchedule& c) {
    return RestoreScheduleTail(c, bounds).actions.size() == c.actions.size();
  };

  // Coarsest-first time grains: a repro that survives snapping to 100 ms
  // reads (and diffs) better than one snapped to 1 ms.
  static constexpr sim::Duration kGrains[] = {
      100 * sim::kMillisecond, 50 * sim::kMillisecond, 20 * sim::kMillisecond,
      10 * sim::kMillisecond,  5 * sim::kMillisecond,  1 * sim::kMillisecond};

  for (size_t i = 0; i < schedule.actions.size(); ++i) {
    if (schedule.actions[i].aux != 0) {
      FaultSchedule c = schedule;
      c.actions[i].aux = 0;
      ++st->runs;
      if (still_violates(c)) {
        schedule = std::move(c);
        ++st->snapped;
      }
    }
    for (sim::Duration g : kGrains) {
      const sim::Time at = schedule.actions[i].at;
      if (at % g == 0) break;  // Already round at this (or a coarser) grain.
      const sim::Time snapped = (at + g / 2) / g * g;
      FaultSchedule c = schedule;
      c.actions[i].at = snapped;
      if (!well_formed(c)) continue;  // Try the next, finer grain.
      ++st->runs;
      if (still_violates(c)) {
        schedule = std::move(c);
        ++st->snapped;
        break;
      }
    }
    // Byzantine windows snap like times: the window is a duration, so the
    // same grains apply and a canonical repro reads e.g. "(1,300ms)".
    for (sim::Duration g : kGrains) {
      const sim::Duration w = schedule.actions[i].window;
      if (w % g == 0) break;
      const sim::Duration snapped = (w + g / 2) / g * g;
      FaultSchedule c = schedule;
      c.actions[i].window = snapped;
      ++st->runs;
      if (still_violates(c)) {
        schedule = std::move(c);
        ++st->snapped;
        break;
      }
    }
  }
  return schedule;
}

}  // namespace consensus40::check
