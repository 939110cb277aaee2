/// \file
/// Greedy delta-debugging shrinker for fault schedules. Given a schedule
/// that triggers a violation, finds a (locally) minimal sub-schedule that
/// still triggers one, so the repro recipe printed to the user is a
/// handful of actions instead of a wall of them. A post-shrink
/// canonicalization pass then snaps the surviving action times to round
/// numbers and zeroes unused generator randomness, so repro lines stay
/// byte-stable across schedule-generator refactors.

#ifndef CONSENSUS40_CHECK_SHRINK_H_
#define CONSENSUS40_CHECK_SHRINK_H_

#include <functional>

#include "check/fault_schedule.h"

namespace consensus40::check {

/// Returns true if the candidate schedule still exhibits the violation.
/// Must be deterministic (re-running the same candidate gives the same
/// answer) — which the simulator guarantees as long as the test replays
/// with the same seed.
using ScheduleTestFn = std::function<bool(const FaultSchedule&)>;

struct ShrinkStats {
  int runs = 0;     ///< Candidate schedules evaluated.
  int removed = 0;  ///< Actions shrunk away.
  int snapped = 0;  ///< Canonicalization edits accepted.
};

/// ddmin-style greedy minimization: repeatedly tries to delete chunks of
/// actions (halving the chunk size down to 1) and keeps any deletion that
/// preserves the violation, until a fixed point or `max_runs` candidate
/// evaluations. `schedule` must already violate; the result is 1-minimal
/// w.r.t. single-action removal when the budget was not exhausted.
///
/// Every candidate is repaired with RestoreScheduleTail(bounds) before it
/// is replayed, so the shrinker only ever proposes schedules the
/// generator could have emitted. Deleting the tail heal of a partition
/// would otherwise "preserve" any liveness violation trivially — the
/// cluster can never finish behind a permanent partition — and the
/// printed repro would mask the real bug. A deletion whose repair merely
/// re-appends what was deleted is rejected without a replay (it cannot
/// shrink the schedule), but still counts against `max_runs`.
FaultSchedule ShrinkSchedule(FaultSchedule schedule, const FaultBounds& bounds,
                             const ScheduleTestFn& still_violates,
                             int max_runs = 400, ShrinkStats* stats = nullptr);

/// Canonicalization pass, run after ddmin: for each surviving action,
/// zero its generator-drawn `aux` randomness and snap its time to the
/// coarsest round granularity (100/50/20/10/5/1 ms, nearest multiple)
/// that still violates. Each trial costs one `still_violates` run,
/// accumulated into `stats` (which is NOT reset — pass the same struct
/// as ShrinkSchedule to get a combined budget picture). Candidates that
/// break the closed-world tail (e.g. a heal snapped before its partition)
/// are rejected outright, same rule as ShrinkSchedule.
FaultSchedule CanonicalizeSchedule(FaultSchedule schedule,
                                   const FaultBounds& bounds,
                                   const ScheduleTestFn& still_violates,
                                   ShrinkStats* stats = nullptr);

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_SHRINK_H_
