// The benchmark's workloads and the system each one runs on.
//
// Every workload drives the full stack: the sim engine, Raft or
// Multi-Paxos replicas, the consensus layer's ReplicaGroup/GroupClient,
// the shard layer's TxCoordinator/TxManagers, and the shard workload
// driver. The common shape is 4 shard groups x 3 replicas plus a
// 3-replica decision group, the tuned hot path (client window 16, batch
// 16, 1 ms linger, checkpoint every 1024 entries), a closed loop of 64
// outstanding ops, and a uniform 1-5 ms network with no loss and
// infinite bandwidth. The workloads differ in protocol, mix, key spaces
// and faults; bench/e2e/README.md records why each one was chosen.

#ifndef CONSENSUS40_BENCH_E2E_WORKLOADS_H_
#define CONSENSUS40_BENCH_E2E_WORKLOADS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "shard/shard.h"
#include "shard/workload.h"
#include "sim/simulation.h"

namespace consensus40::e2e {

struct Workload {
  const char* name;
  const char* protocol;
  double read_fraction;
  double cross_fraction;
  double snapshot_fraction;  ///< Share of reads issued as 2-key snapshots.
  double txn_read_fraction;  ///< Share of write txns leading with a GET.
  int key_space;             ///< Reads draw from [0, key_space).
  int write_space;           ///< Writes draw from [0, write_space).
  bool reason_retry;
  bool failover;
  int ops;        ///< Ops per round.
  /// Rounds whose virtual-time results are reported. A run has at least
  /// this many, so a seed fixes those numbers exactly; further rounds,
  /// while --seconds last, only refine the wall-clock figures.
  int rounds;
  int smoke_ops;  ///< Ops of the one --smoke round.
};

// name, protocol, read, cross, snapshot, txn-read, key space, write
// space, retry, failover, ops per round, reported rounds, smoke ops.
// Smoke rounds are about 1/50 of a round, except failover's, which must
// still span the crash and the restart.
inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"kv-mixed", "raft", 0.5, 0.3, 0.1, 0, 1000000, 250000, false, false,
       50000, 6, 1000},
      {"kv-readheavy-paxos", "multi_paxos", 0.8, 0.1, 0.1, 0, 1000000, 250000,
       false, false, 80000, 6, 1600},
      {"txn-contended", "raft", 0.3, 0.6, 0.5, 0.5, 20000, 2000, true, false,
       25000, 6, 500},
      {"failover", "raft", 0.5, 0.3, 0.1, 0, 1000000, 250000, false, true,
       20000, 24, 9000},
  };
  return kWorkloads;
}

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

constexpr int kShards = 4;
constexpr int kConcurrency = 64;
constexpr sim::Duration kWarmup = 500 * sim::kMillisecond;
constexpr sim::Duration kProbeEvery = 100 * sim::kMillisecond;
/// Failover schedule, relative to the start of the measured phase: the
/// first crash after 1 s, then one every 6 s (a failover round is short
/// enough to see one); each crashed leader restarts 1.5 s later.
/// Fault-free workloads use the same instants as nominal crash times, so
/// `unavail_ms` means the same thing everywhere.
constexpr sim::Duration kFirstCrash = 1 * sim::kSecond;
constexpr sim::Duration kCrashEvery = 6 * sim::kSecond;
constexpr sim::Duration kDowntime = 1500 * sim::kMillisecond;
constexpr sim::Duration kUnavailWindow = 2 * sim::kSecond;

inline shard::ShardOptions ShardOptionsFor(const Workload& w) {
  shard::ShardOptions o;
  o.shards = kShards;
  o.replicas_per_shard = 3;
  o.decision_replicas = 3;
  o.protocol = w.protocol;
  o.client_window = 16;
  o.batch_size = 16;
  o.batch_delay = 1 * sim::kMillisecond;
  o.snapshot_threshold = 1024;
  return o;
}

inline shard::WorkloadOptions DriverOptionsFor(const Workload& w, int ops) {
  shard::WorkloadOptions o;
  o.ops = ops;
  o.concurrency = kConcurrency;
  o.read_fraction = w.read_fraction;
  o.cross_shard_fraction = w.cross_fraction;
  o.snapshot_fraction = w.snapshot_fraction;
  o.txn_read_fraction = w.txn_read_fraction;
  o.key_space = w.key_space;
  o.write_space = w.write_space;
  o.reason_aware_retry = w.reason_retry;
  return o;
}

/// One assembled system. The simulation holds raw pointers into the
/// state machine, so the simulation is declared last and destroyed first.
struct System {
  std::unique_ptr<shard::ShardedStateMachine> ssm;
  std::unique_ptr<sim::Simulation> sim;
  shard::WorkloadDriver* driver = nullptr;

  std::vector<const consensus::ReplicaGroup*> Groups() const {
    std::vector<const consensus::ReplicaGroup*> groups;
    for (int s = 0; s < ssm->total_groups(); ++s) {
      groups.push_back(ssm->shard_group(s));
    }
    groups.push_back(ssm->decision_group());
    return groups;
  }
};

/// Builds the system and runs the warm-up (leader elections), probing
/// every kProbeEvery, then spawns the workload driver so the first op
/// is issued at the start of the measured phase. `bind` runs right
/// after the groups exist and before any event fires, so a trace hook
/// can learn the node layout before the first delivery.
template <typename BindFn>
System BuildSystem(const Workload& w, uint64_t seed, int ops,
                   sim::Simulation::TraceFn trace, BindFn bind) {
  System s;
  s.ssm = std::make_unique<shard::ShardedStateMachine>(ShardOptionsFor(w));
  sim::Simulation::Builder builder(seed);
  builder.Delay(1 * sim::kMillisecond, 5 * sim::kMillisecond)
      .Setup([&](sim::Simulation& sim) { s.ssm->Build(&sim); });
  if (trace) builder.Trace(std::move(trace));
  s.sim = builder.Build();
  bind(s);
  for (sim::Duration t = 0; t < kWarmup; t += kProbeEvery) {
    s.sim->RunFor(kProbeEvery);
    s.ssm->Probe();
  }
  s.driver = shard::SpawnWorkload(s.sim.get(), s.ssm.get(),
                                  DriverOptionsFor(w, ops));
  s.sim->Start();
  return s;
}

/// Crash and restart instants of one failover round.
struct FaultLog {
  std::vector<sim::Time> crashes;
  std::vector<sim::Time> restarts;
};

/// Failover: at `at`, crash the current leader of every shard group and
/// of the decision group, restart each of them 1.5 s later, and re-arm
/// kCrashEvery later until the driver is done. `log` must outlive the
/// simulation's run.
inline void ScheduleFailover(sim::Simulation* sim,
                             std::vector<const consensus::ReplicaGroup*> groups,
                             const shard::WorkloadDriver* driver, sim::Time at,
                             FaultLog* log) {
  sim->ScheduleAt(at, [=] {
    if (driver->done()) return;
    log->crashes.push_back(sim->now());
    std::vector<sim::NodeId> down;
    for (const consensus::ReplicaGroup* g : groups) {
      sim::NodeId leader = g->LeaderHint();
      if (leader != sim::kInvalidNode && !sim->IsCrashed(leader)) {
        sim->Crash(leader);
        down.push_back(leader);
      }
    }
    sim->ScheduleAt(sim->now() + kDowntime, [=] {
      log->restarts.push_back(sim->now());
      for (sim::NodeId id : down) sim->Restart(id);
    });
    ScheduleFailover(sim, groups, driver, at + kCrashEvery, log);
  });
}

}  // namespace consensus40::e2e

#endif  // CONSENSUS40_BENCH_E2E_WORKLOADS_H_
