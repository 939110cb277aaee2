#ifndef CONSENSUS40_PAXOS_MULTI_PAXOS_H_
#define CONSENSUS40_PAXOS_MULTI_PAXOS_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "paxos/ballot.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/pipeline.h"
#include "smr/state_machine.h"

namespace consensus40::paxos {

/// Configuration for a Multi-Paxos replica.
struct MultiPaxosOptions {
  /// Cluster size; replicas are processes 0..n-1 unless `members` is set.
  int n = 0;

  /// Explicit member ids (e.g. one replication group of a sharded system,
  /// as in the Spanner architecture). When non-empty it overrides `n`; the
  /// first member bootstraps leadership.
  std::vector<sim::NodeId> members;

  /// Phase-1 / phase-2 quorum sizes; -1 = majority. Unequal values give
  /// Flexible (Multi-)Paxos.
  int q1 = -1;
  int q2 = -1;

  /// Leader heartbeat period (piggybacked commit-frontier broadcasts).
  sim::Duration heartbeat_interval = 20 * sim::kMillisecond;

  /// Follower patience before it suspects the leader and runs phase 1.
  /// Actual timeout is uniform in [leader_timeout, 2*leader_timeout].
  sim::Duration leader_timeout = 150 * sim::kMillisecond;

  /// The deck's optimization: "Run Phase 1 only when the leader changes."
  /// When false (the ablation), the leader re-runs phase 1 before every
  /// single command, i.e. full Basic Paxos per log entry.
  bool skip_phase1_when_stable = true;

  /// Leader-side batching (mirrors PBFT's and Raft's knobs): max client
  /// commands folded into one slot, and how long the leader lingers for a
  /// batch to fill. Defaults keep one-command-per-slot behaviour.
  int batch_size = 1;
  sim::Duration batch_delay = 0;

  /// Checkpointing: once this many applied slots accumulate past the last
  /// checkpoint, fold them into the state machine, truncate the log
  /// prefix, and drop the matching acceptor slots. Laggards that fell
  /// behind the truncation point receive a full state snapshot instead of
  /// slot-by-slot catch-up. 0 disables.
  uint64_t checkpoint_interval = 0;
};

/// A Multi-Paxos replica: a separate Basic Paxos instance per log entry
/// (Prepare/Accept carry an index), a stable leader elected via phase 1,
/// and a replicated KvStore applied in log order.
class MultiPaxosReplica : public smr::PipelineProcess {
 public:
  explicit MultiPaxosReplica(MultiPaxosOptions options);

  // --- Client-facing messages (public so clients can construct them) ---
  struct RequestMsg : smr::ClientRequestMsg {
    using smr::ClientRequestMsg::ClientRequestMsg;
    const char* TypeName() const override { return "request"; }
  };
  struct ReplyMsg : smr::ClientReplyMsg {
    using smr::ClientReplyMsg::ClientReplyMsg;
    const char* TypeName() const override { return "reply"; }
  };

  /// True if this replica currently believes it is the leader.
  bool IsLeader() const { return leader_active_; }

  /// Who this replica believes leads (pid of the highest promised ballot).
  sim::NodeId LeaderHint() const { return ballot_num_.pid; }

  const smr::ReplicatedLog& log() const { return log_; }
  const smr::KvStore& kv() const { return pipeline_.kv(); }
  const std::vector<std::string>& violations() const { return violations_; }
  int phase1_rounds() const { return phase1_rounds_; }
  /// Commands this replica executed, in order, batches' commands in place (a
  /// replica that bootstrapped from a snapshot only knows its suffix).
  const std::vector<smr::Command>& CommittedCommands() const {
    return pipeline_.executed();
  }
  /// Commands queued awaiting a batch cut, and cut but not yet applied
  /// (both dropped on deposition; the latter also drains on apply).
  size_t queued_ops() const { return pipeline_.queued_ops(); }
  size_t inflight_ops() const { return pipeline_.inflight_ops(); }
  /// Multi-command slots cut by this replica while leader.
  int batches_cut() const { return pipeline_.batches_cut(); }
  int checkpoints_taken() const { return pipeline_.checkpoints_taken(); }
  int snapshots_installed() const { return pipeline_.snapshots_installed(); }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct PrepareMsg;
  struct PromiseMsg;
  struct AcceptMsg;
  struct AcceptedMsg;
  struct CommitMsg;

  struct SlotState {
    Ballot accept_num;
    smr::Entry value;
    bool has_value = false;
    bool chosen = false;
    std::set<sim::NodeId> accepts;  ///< Leader-side accepted counters.
    sim::Time proposed_at = 0;      ///< Leader-side: last accept sent.
  };

  void StartPhase1();
  void OnLeadershipAcquired();
  /// Leadership lost to a higher ballot: drop queued/in-flight proposer
  /// state and stop leader timers (clients re-transmit elsewhere).
  void Deposed();
  void ProposeNext();
  void AcceptSlot(uint64_t index, const smr::Entry& entry);
  /// Re-sends the accepts of slots stalled below the proposal cursor to
  /// the members that have not acked them (see the definition).
  void ResendStalledAccepts();
  void Chosen(uint64_t index, const smr::Entry& entry);
  void ResetLeaderTimer();
  void SendHeartbeat();
  std::vector<sim::NodeId> Everyone() const;
  SlotState& Slot(uint64_t index);

  MultiPaxosOptions options_;
  int q1_, q2_;

  // Acceptor state.
  Ballot ballot_num_;  ///< Promised leadership ballot.
  std::map<uint64_t, SlotState> slots_;

  // Leader state.
  bool leader_active_ = false;
  bool phase1_pending_ = false;
  std::set<sim::NodeId> promisers_;
  /// Highest-ballot accepted value per index, merged from promises.
  std::map<uint64_t, std::pair<Ballot, smr::Entry>> recovered_;
  /// Slots some promiser knows are decided, with their values.
  std::map<uint64_t, smr::Entry> recovered_chosen_;
  Ballot my_ballot_;
  uint64_t next_index_ = 0;
  bool slot_in_flight_ = false;  ///< Used when re-preparing per command.

  // Learner / execution state.
  smr::ReplicatedLog log_;
  smr::LeaderPipeline pipeline_;

  uint64_t leader_timer_ = 0;
  uint64_t heartbeat_timer_ = 0;
  int phase1_rounds_ = 0;
  std::vector<std::string> violations_;
};

/// A closed-loop client: sends the next command after the previous reply,
/// retrying (and following leader hints) on timeout. Issues `ops`
/// commands of the form "INC key"; n = cluster size (replicas at process
/// ids 0..n-1).
class MultiPaxosClient
    : public smr::ClosedLoopClient<MultiPaxosReplica::RequestMsg,
                                   MultiPaxosReplica::ReplyMsg> {
 public:
  MultiPaxosClient(int n, int ops, std::string key = "x",
                   sim::Duration retry = 200 * sim::kMillisecond)
      : ClosedLoopClient(n, 1, 0, ops, std::move(key), retry) {}
};

}  // namespace consensus40::paxos

#endif  // CONSENSUS40_PAXOS_MULTI_PAXOS_H_
