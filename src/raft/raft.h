#ifndef CONSENSUS40_RAFT_RAFT_H_
#define CONSENSUS40_RAFT_RAFT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/pipeline.h"
#include "smr/state_machine.h"

namespace consensus40::raft {

/// Configuration for a Raft replica.
struct RaftOptions {
  /// Cluster size; replicas must be processes 0..n-1.
  int n = 0;

  /// Heartbeat (empty AppendEntries) period.
  sim::Duration heartbeat_interval = 20 * sim::kMillisecond;

  /// Election timeout base; actual timeout uniform in [base, 2*base] —
  /// Raft's randomized timeouts are what keep split votes rare.
  sim::Duration election_timeout = 150 * sim::kMillisecond;

  /// Log compaction: once this many entries are applied beyond the last
  /// snapshot, fold them into a state snapshot and truncate the log.
  /// Followers too far behind receive InstallSnapshot. 0 disables.
  uint64_t snapshot_threshold = 0;

  /// Leader-side batching (mirrors PBFT's batch_size/batch_delay): max
  /// client commands the leader folds into one log entry, and how long
  /// it lingers for a batch to fill. The defaults (1, 0) keep the
  /// one-command-per-entry behaviour bit-for-bit.
  int batch_size = 1;
  sim::Duration batch_delay = 0;

  /// Initial voting configuration; empty = processes 0..n-1.
  std::vector<sim::NodeId> initial_config;

  /// A server being added to an existing cluster starts passive: it does
  /// not campaign until it has heard from a leader (prevents a fresh,
  /// empty server from disrupting the incumbents with election storms).
  bool join_passive = false;
};

/// A Raft replica (Ongaro & Ousterhout 2014): the deck presents Raft as the
/// understandability-first equivalent of Multi-Paxos — terms instead of
/// ballots, leader-integrated log management, randomized elections.
class RaftReplica : public smr::PipelineProcess {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  explicit RaftReplica(RaftOptions options);

  struct LogEntry {
    int64_t term = 0;
    smr::Entry value;
  };

  // --- Client-facing messages ---
  struct RequestMsg : smr::ClientRequestMsg {
    using smr::ClientRequestMsg::ClientRequestMsg;
    const char* TypeName() const override { return "request"; }
  };
  struct ReplyMsg : smr::ClientReplyMsg {
    using smr::ClientReplyMsg::ClientReplyMsg;
    const char* TypeName() const override { return "reply"; }
  };
  Role role() const { return role_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  int64_t current_term() const { return current_term_; }
  /// Who this replica voted for in current_term() (kInvalidNode if nobody).
  /// Persistent: must survive Crash()/Restart(), or a node could grant two
  /// votes in one term and elect two leaders.
  sim::NodeId voted_for() const { return voted_for_; }
  sim::NodeId LeaderHint() const { return leader_hint_; }
  uint64_t commit_index() const { return commit_index_; }
  const std::vector<LogEntry>& raft_log() const { return log_; }
  const smr::KvStore& kv() const { return pipeline_.kv(); }
  int elections_started() const { return elections_started_; }
  /// Multi-command log entries cut by this replica while leader.
  int batches_cut() const { return pipeline_.batches_cut(); }
  /// Commands queued awaiting a batch cut, and cut but not yet applied.
  size_t queued_ops() const { return pipeline_.queued_ops(); }
  size_t inflight_ops() const { return pipeline_.inflight_ops(); }
  const std::vector<std::string>& violations() const { return violations_; }
  /// First global index still held in the log (compaction frontier).
  uint64_t log_start() const { return log_start_; }
  /// Entries currently held in memory (compaction shrinks this).
  size_t LogEntriesHeld() const { return log_.size(); }
  int snapshots_taken() const { return snapshots_taken_; }
  int snapshots_installed() const { return pipeline_.snapshots_installed(); }
  /// Read-index reads answered by this replica while leader.
  int reads_served() const { return reads_served_; }

  /// The client commands of the applied entries still in the log, in
  /// order (for shared checkers): the whole history until a snapshot is
  /// taken or installed.
  std::vector<smr::Command> CommittedCommands() const;
  /// Reports every applied entry to `ledger` as its member `member`.
  void ReportAppliesTo(smr::ApplyLedger* ledger, int member) {
    pipeline_.ReportAppliesTo(ledger, member);
  }

  // --- Membership reconfiguration (single-server-change rule) ---

  /// The voting configuration currently in effect (config entries take
  /// effect as soon as they are APPENDED, per the Raft dissertation).
  const std::vector<sim::NodeId>& config() const { return config_; }

  /// Leader-only: appends a configuration-change entry. Fails if this
  /// replica is not the leader or a config change is still uncommitted
  /// (changes must be applied one at a time).
  Status ChangeConfig(std::vector<sim::NodeId> new_config);

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct RequestVoteMsg;
  struct VoteReplyMsg;
  struct AppendEntriesMsg;
  struct AppendReplyMsg;
  struct InstallSnapshotMsg;

  void BecomeFollower(int64_t term);
  void StartElection();
  void BecomeLeader();
  void ResetElectionTimer();
  /// Cuts the queued client commands into log entries (one raw entry for
  /// a single command, a batch entry otherwise) and replicates them.
  void FlushBatch();
  /// Read-index machinery (read-index, no leader lease): the leader
  /// records commit_index as the read index, confirms it is still the
  /// leader with one round of AppendEntries acks, waits until the read
  /// index is applied, and answers from its state machine — no log
  /// entry, no clock assumption (Raft dissertation §6.4). Reads arrive
  /// as kind == kRead commands inside RequestMsg. A read may only be
  /// *registered* once the leader has committed an entry of its own
  /// term (or its log was fully committed at election) — before that,
  /// commit_index may trail the cluster-wide frontier and a read-index
  /// read could miss committed writes. Gated reads wait in
  /// waiting_reads_ for the barrier.
  bool ReadBarrierPassed() const;
  void HandleRead(sim::NodeId from, int32_t client, uint64_t seq,
                  const std::string& key);
  void RegisterRead(sim::NodeId from, uint64_t seq, const std::string& key);
  void MaybeServeReads();
  /// Fails every pending/gated read with a redirect (leadership lost).
  void FailPendingReads();
  /// Re-derives config_ from the snapshot config and the last CONFIG
  /// entry in the log. Appends keep config_ current themselves, so this
  /// runs only after a suffix truncation or a snapshot install.
  void RecomputeConfig();
  int Majority() const { return static_cast<int>(config_.size()) / 2 + 1; }
  bool IsVoter(sim::NodeId node) const;
  void SendAppendEntries(sim::NodeId peer);
  void BroadcastAppendEntries();
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void MaybeTakeSnapshot();
  int64_t LastLogTerm() const;
  /// Global end of the log (== number of entries ever appended).
  uint64_t LogEnd() const { return log_start_ + log_.size(); }
  /// Term of the 1-based global entry index (0 -> 0; the snapshot
  /// boundary -> the snapshot's term).
  int64_t TermOfEntry(uint64_t index) const;
  /// Entry at a 1-based global index (must be > log_start_).
  const LogEntry& EntryAt(uint64_t index) const {
    return log_[index - 1 - log_start_];
  }
  std::vector<sim::NodeId> Peers() const;

  RaftOptions options_;

  // Persistent state (survives crash/restart).
  int64_t current_term_ = 0;
  sim::NodeId voted_for_ = sim::kInvalidNode;
  std::vector<LogEntry> log_;  ///< Suffix after log_start_ global entries.
  uint64_t log_start_ = 0;     ///< Global entries folded into the snapshot.
  int64_t snapshot_term_ = 0;  ///< Term of the last compacted entry.
  /// Effective configuration: snapshot_config_, overridden by the last
  /// CONFIG entry in log_.
  std::vector<sim::NodeId> config_;
  std::vector<sim::NodeId> snapshot_config_;  ///< Config at log_start_.
  bool heard_from_leader_ = false;  ///< For join_passive servers.

  // Volatile state.
  Role role_ = Role::kFollower;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  uint64_t commit_index_ = 0;  ///< Count of committed entries.
  uint64_t last_applied_ = 0;
  std::set<sim::NodeId> votes_;

  // Leader volatile state.
  std::map<sim::NodeId, uint64_t> next_index_;
  std::map<sim::NodeId, uint64_t> match_index_;

  /// One registered read-index read awaiting leadership confirmation.
  struct PendingRead {
    uint64_t read_index = 0;  ///< commit_index at registration.
    uint64_t round = 0;       ///< AppendEntries round whose acks count.
    sim::NodeId client_node = sim::kInvalidNode;
    uint64_t client_seq = 0;
    std::string key;
    std::set<sim::NodeId> acks;
    bool confirmed = false;
  };
  /// A read received before the term-start barrier committed.
  struct WaitingRead {
    sim::NodeId client_node = sim::kInvalidNode;
    uint64_t client_seq = 0;
    std::string key;
  };
  std::vector<PendingRead> pending_reads_;
  std::vector<WaitingRead> waiting_reads_;
  /// Monotone AppendEntries round counter; bumped per broadcast and
  /// echoed in replies so a read can demand post-registration acks.
  uint64_t ae_round_ = 0;

  smr::LeaderPipeline pipeline_;

  uint64_t election_timer_ = 0;
  uint64_t heartbeat_timer_ = 0;
  int elections_started_ = 0;
  int snapshots_taken_ = 0;
  int reads_served_ = 0;
  std::vector<std::string> violations_;
};

/// Closed-loop Raft client: follows redirects to the leader, tries the
/// next replica on timeout.
class RaftClient : public smr::ClosedLoopClient<RaftReplica::RequestMsg,
                                                RaftReplica::ReplyMsg> {
 public:
  RaftClient(int n, int ops, std::string key = "x",
             sim::Duration retry = 300 * sim::kMillisecond)
      : ClosedLoopClient(n, 1, 0, ops, std::move(key), retry) {}
};

}  // namespace consensus40::raft

#endif  // CONSENSUS40_RAFT_RAFT_H_
