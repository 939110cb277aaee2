/// \file
/// Cross-protocol safety checker. Each protocol implements ProtocolAdapter
/// to expose its safety-relevant observables in one normal form; the
/// checker then runs the protocol under a seeded fault schedule
/// (fault_schedule.h) and evaluates pluggable invariants:
///
///   - Agreement: per consensus instance, no two nodes decide differently.
///   - Validity: every decided value was actually proposed.
///   - Integrity: a node never changes a value it already decided
///     (probed repeatedly during the run, not just at the end).
///   - Prefix consistency: committed SMR logs are prefixes of one another.
///   - Atomicity: no transaction is committed at one node and aborted at
///     another (2PC / 3PC).
///
/// Self-reported violations (protocols' own `violations()` counters) are
/// folded in as well, so checker sweeps subsume the ad-hoc per-protocol
/// assertions.

#ifndef CONSENSUS40_CHECK_CHECKER_H_
#define CONSENSUS40_CHECK_CHECKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_schedule.h"
#include "sim/simulation.h"

namespace consensus40::check {

/// A snapshot of everything safety-relevant a protocol can say about
/// itself. Empty containers mean "this protocol has no such observable"
/// and the corresponding invariant vacuously holds.
struct Observation {
  /// instance label -> (node id -> decided value). Single-decree
  /// protocols use one instance ("0"); leader-election observables can
  /// use labels like "term/3". Crashed nodes may legitimately appear:
  /// a decision made before crashing still binds the protocol.
  std::map<std::string, std::map<sim::NodeId, std::string>> decided;

  /// If non-empty: the universe of proposed values; every decided value
  /// must be one of them (Validity).
  std::vector<std::string> allowed;

  /// Committed command sequences, one per replica (SMR protocols). Any
  /// two must be prefix-compatible.
  std::vector<std::vector<std::string>> logs;

  /// tx id -> (node id -> verdict) where the verdict is one of
  /// 'C' (committed), 'A' (aborted), 'P' (prepared/in doubt),
  /// 'U' (unknown). 'C' and 'A' for the same tx is an atomicity
  /// violation; 'P'/'U' conflict with nothing.
  std::map<uint64_t, std::map<sim::NodeId, char>> verdicts;

  /// Violations the protocol detected itself; passed through verbatim.
  std::vector<std::string> self_reported;
};

/// What each protocol implements to plug into the checker. Factories live
/// next to the protocol (e.g. src/raft/raft_check.cc) and are declared in
/// check/adapters.h; the adapter owns everything the protocol needs
/// beyond the simulation (key registries, clients, adversaries).
class ProtocolAdapter {
 public:
  virtual ~ProtocolAdapter() = default;

  virtual const char* name() const = 0;

  /// The fault envelope this protocol claims safety under.
  virtual FaultBounds bounds() const = 0;

  /// Spawns the cluster and its workload into `sim` (called once, before
  /// the run starts).
  virtual void Build(sim::Simulation* sim) = 0;

  /// True once the workload has finished (all client ops done / all
  /// values decided). Used for early exit and the liveness check.
  virtual bool Done() const = 0;

  /// Whether in-bounds schedules must also terminate: after the schedule
  /// tail restores the world, Done() must become true within the quiesce
  /// budget. Off for protocols that block by design under their fault
  /// model (e.g. 2PC with a crashed coordinator).
  virtual bool ExpectTermination() const { return true; }

  /// Periodic hook during the run (the checker's probe cadence). Lets an
  /// adapter model client-side recovery — e.g. re-proposing after the
  /// original proposer crashed — without touching protocol code.
  virtual void OnProbe(sim::Simulation* sim) { (void)sim; }

  /// Snapshot of the safety observables.
  virtual Observation Observe() const = 0;

  /// Non-simulation protocols (FloodSet's lockstep rounds) bypass the
  /// event loop: they map the schedule onto their own fault model and
  /// return the final observation directly.
  virtual bool RunsDirect() const { return false; }
  virtual Observation RunDirect(const FaultSchedule& schedule) {
    (void)schedule;
    return {};
  }
};

using AdapterFactory =
    std::function<std::unique_ptr<ProtocolAdapter>(uint64_t seed)>;

/// Evaluates all end-state invariants over one observation. Returns
/// human-readable violation descriptions (empty = all invariants hold).
std::vector<std::string> CheckInvariants(const Observation& o);

struct RunResult {
  std::vector<std::string> violations;
  /// Whether the workload finished within horizon + quiesce.
  bool completed = false;

  bool violated() const { return !violations.empty(); }
};

/// How one run ended, before the end-state invariants are evaluated.
struct RunEnd {
  /// The adapter's Observe() once the run stopped.
  Observation observation;
  /// Integrity-probe findings: decisions that changed mid-run.
  std::vector<std::string> integrity;
  /// Done() at the end, and whether the adapter requires it.
  bool completed = false;
  bool expect_termination = true;
  /// The run stopped at the latest here (horizon + quiesce).
  sim::Time deadline = 0;
  /// Admitted sends (zero for adapters that run direct).
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
};

/// Runs one protocol instance under one fault schedule until its workload
/// is done or the deadline passes, probing Integrity (decisions must never
/// change once made) throughout. Deterministic in (factory behaviour,
/// seed, schedule).
RunEnd RunToEnd(const AdapterFactory& factory, uint64_t seed,
                const FaultSchedule& schedule);

/// RunToEnd plus every invariant over its end: CheckInvariants, the
/// Integrity findings and, where the adapter expects termination,
/// liveness.
RunResult RunSchedule(const AdapterFactory& factory, uint64_t seed,
                      const FaultSchedule& schedule);

/// Convenience: generate the schedule for `seed` from the adapter's own
/// bounds, run it, and return both.
RunResult RunSeed(const AdapterFactory& factory, uint64_t seed,
                  FaultSchedule* schedule_out = nullptr);

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_CHECKER_H_
