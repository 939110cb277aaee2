/// \file
/// Parallel fault-schedule sweep engine. Shards (adapter factory, seed)
/// pairs across a work-stealing thread pool (common/thread_pool.h), runs
/// each pair in its own Simulation on whichever worker picks it up, and
/// merges the per-seed outcomes into a deterministic, seed-ordered report.
///
/// Determinism contract: the merged SweepReport — including its exact
/// ToString() rendering — is a pure function of (roster, SweepOptions).
/// It is byte-identical whether the sweep ran on 1 worker or N, because
/// every task writes into a pre-sized per-seed slot and the merge walks
/// the slots in roster-then-seed order; nothing observable depends on
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
/// instances they return are used by exactly one worker.

#ifndef CONSENSUS40_CHECK_PARALLEL_SWEEP_H_
#define CONSENSUS40_CHECK_PARALLEL_SWEEP_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "common/thread_pool.h"

namespace consensus40::check {

struct SweepOptions {
  /// Seeds swept per protocol: [1, seeds].
  uint64_t seeds = 200;
};

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
  /// One line per violating seed, in seed order:
  ///   "seed 7: agreement: ... | schedule --seed=7: [ ... ]"
  /// The schedule is ddmin-shrunk and canonicalized (shrink.h), so the
  /// report carries a minimal, stable repro.
  std::vector<std::string> repros;
};

struct SweepReport {
  std::vector<ProtocolSweepResult> protocols;  ///< Roster order.

  uint64_t total_schedules() const;
  uint64_t total_violations() const;

  /// Deterministic rendering: protocol table plus every repro line.
  /// Byte-identical across worker counts for the same (roster, options).
  std::string ToString() const;
};

/// Sweeps every (factory, seed) pair of the roster. `pool` may be null
/// (or single-worker), which runs the identical code path inline — the
/// serial reference the equivalence tests compare against.
SweepReport RunSweep(
    const std::vector<std::pair<const char*, AdapterFactory>>& roster,
    const SweepOptions& options, ThreadPool* pool = nullptr);

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_PARALLEL_SWEEP_H_
