/// \file
/// Parallel fault-schedule sweep engine. Runs every (adapter factory,
/// seed) pair of a roster on a plain parallel-for
/// (common/parallel_for.h), each in its own Simulation, and merges the
/// per-seed outcomes into a deterministic, seed-ordered report.
///
/// Determinism contract: the merged SweepReport — including its exact
/// ToString() rendering — is a pure function of (roster, seeds). It is
/// byte-identical whether the sweep ran on 1 worker or N, because every
/// pair writes into a pre-sized per-seed slot and the merge walks the
/// slots in roster-then-seed order; nothing observable depends on
/// execution order. This only holds because nothing in the simulator or
/// checker path shares mutable state across Simulation instances (RNG,
/// string interner, slab queues, key registries, and USIG counters are
/// all per-instance) — the TSan preset runs the sweep tests to keep that
/// audit enforced.
///
/// Concurrency contract for adapters: a roster factory may be invoked
/// from several threads at once (one invocation per in-flight seed), so
/// factories must be stateless or internally synchronized. Every factory
/// in check/adapters.h is a lambda over immutable captures; the adapter
/// instances they return are used by exactly one thread.

#ifndef CONSENSUS40_CHECK_PARALLEL_SWEEP_H_
#define CONSENSUS40_CHECK_PARALLEL_SWEEP_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/shrink.h"

namespace consensus40::check {

/// One seed checked the way a sweep checks it.
struct SeedCheck {
  FaultSchedule schedule;  ///< Generated from the seed and the bounds.
  RunResult result;        ///< The run under `schedule`.
  /// The rest is filled only when the run violated: `schedule` ddmin-shrunk
  /// and canonicalized (shrink.h), what that cost, and the report line
  ///   "seed 7: agreement: ... | schedule --seed=7: [ ... ]".
  FaultSchedule repro;
  ShrinkStats shrink;
  std::string repro_line;
};

/// Runs `seed`'s generated schedule and, if any invariant broke, shrinks
/// and canonicalizes it into a minimal, stable repro. Deterministic in
/// (factory behaviour, seed); safe to call from several threads at once.
SeedCheck CheckSeed(const AdapterFactory& factory, uint64_t seed);

/// Per-protocol slice of a sweep, merged in seed order.
struct ProtocolSweepResult {
  std::string protocol;
  uint64_t schedules = 0;        ///< Seeds run.
  uint64_t actions = 0;          ///< Fault actions across all schedules.
  uint64_t violations = 0;       ///< Seeds with >= 1 violation.
  uint64_t incomplete = 0;       ///< Seeds whose workload missed Done().
  /// Violation count per invariant family — the text before the first
  /// ':' of each violation line ("agreement", "prefix", "liveness", ...).
  std::map<std::string, uint64_t> by_invariant;
  /// SeedCheck::repro_line of each violating seed, in seed order.
  std::vector<std::string> repros;
};

struct SweepReport {
  std::vector<ProtocolSweepResult> protocols;  ///< Roster order.

  uint64_t total_schedules() const;
  uint64_t total_violations() const;

  /// Deterministic rendering: protocol table plus every repro line.
  /// Byte-identical across worker counts for the same (roster, seeds).
  std::string ToString() const;
};

/// Runs CheckSeed for every factory of the roster and seeds [1, seeds]
/// on `workers` threads; `workers` <= 1 is the serial loop the
/// equivalence tests compare against.
SweepReport RunSweep(
    const std::vector<std::pair<const char*, AdapterFactory>>& roster,
    uint64_t seeds, int workers);

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_PARALLEL_SWEEP_H_
