#ifndef CONSENSUS40_PAXOS_CROSSWORD_H_
#define CONSENSUS40_PAXOS_CROSSWORD_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "paxos/ballot.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/erasure.h"
#include "smr/pipeline.h"
#include "smr/state_machine.h"

namespace consensus40::paxos {

/// Configuration for a Crossword replica (Hu & Arpaci-Dusseau, PAPERS.md):
/// Multi-Paxos with erasure-coded accept payloads. The leader Reed–Solomon
/// codes each log entry into n shards (k = majority reconstruct) and sends
/// acceptor j the c-shard window starting at j's member position — the
/// paper's diagonal assignment. c slides between k (classic full-copy,
/// minimal latency) and 1 (RS-Paxos-like, minimal bandwidth).
///
/// Quorum-reconstruction invariant: a slot proposed at c shards per
/// acceptor commits only after q2(c) = max(n + 1 - c, majority) accepts.
/// Any s distinct c-shard windows jointly cover >= min(n, s + c - 1)
/// distinct shards, so ANY majority of the cluster intersects the
/// accepted set in servers jointly holding >= k distinct shards — a new
/// leader's majority phase-1 quorum can always reconstruct a
/// possibly-chosen entry. c = k gives q2 = majority: classic Multi-Paxos.
struct CrosswordOptions {
  /// Cluster size; replicas are processes 0..n-1 unless `members` is set.
  int n = 0;
  std::vector<sim::NodeId> members;

  sim::Duration heartbeat_interval = 20 * sim::kMillisecond;
  sim::Duration leader_timeout = 150 * sim::kMillisecond;

  /// Leader-side batching and checkpointing, as in Multi-Paxos.
  int batch_size = 1;
  sim::Duration batch_delay = 0;
  uint64_t checkpoint_interval = 0;

  /// Assignment policy. kAdaptive slides c per slot on the smoothed
  /// payload size and egress backlog; the fixed modes pin it (the
  /// bench's baselines): kFullCopy at c = k, kFixedRs at c = 1.
  enum class Mode { kAdaptive, kFullCopy, kFixedRs };
  Mode mode = Mode::kAdaptive;

  /// OUT OF BOUNDS: commit at a bare majority regardless of c. Under
  /// c < k a chosen entry may live on acceptors jointly holding fewer
  /// than k distinct shards once the leader dies — the under-replicated
  /// configuration the checker must catch.
  bool unsafe_majority_quorum = false;
};

/// A Crossword replica: Multi-Paxos control plane, erasure-coded data
/// plane. Followers ack shard subsets, reconstruct on apply by pulling
/// missing shards from peers (never the full payload from the leader),
/// and a recovering leader reassembles possibly-chosen entries from the
/// shard fragments its phase-1 promises carry.
class CrosswordReplica : public smr::PipelineProcess {
 public:
  explicit CrosswordReplica(CrosswordOptions options);

  // --- Client-facing messages (public so clients can construct them) ---
  struct RequestMsg : smr::ClientRequestMsg {
    using smr::ClientRequestMsg::ClientRequestMsg;
    const char* TypeName() const override { return "cw-request"; }
  };
  struct ReplyMsg : smr::ClientReplyMsg {
    using smr::ClientReplyMsg::ClientReplyMsg;
    const char* TypeName() const override { return "cw-reply"; }
  };

  bool IsLeader() const { return leader_active_; }
  sim::NodeId LeaderHint() const { return ballot_num_.pid; }

  const smr::ReplicatedLog& log() const { return log_; }
  const smr::KvStore& kv() const { return pipeline_.kv(); }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::vector<smr::Command>& CommittedCommands() const {
    return pipeline_.executed();
  }
  int phase1_rounds() const { return phase1_rounds_; }
  /// Slots this replica applied via shard reconstruction (vs full copy).
  int reconstructions() const { return reconstructions_; }
  /// Shard-pull requests answered for peers.
  int pulls_served() const { return pulls_served_; }
  /// Stalled slots re-proposed at c = k.
  int escalations() const { return escalations_; }
  /// The controller's current shards-per-acceptor choice.
  int current_shards() const { return c_now_; }
  int checkpoints_taken() const { return pipeline_.checkpoints_taken(); }
  int snapshots_installed() const { return pipeline_.snapshots_installed(); }
  /// Commands queued awaiting a batch cut, and cut but not yet applied.
  size_t queued_ops() const { return pipeline_.queued_ops(); }
  size_t inflight_ops() const { return pipeline_.inflight_ops(); }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct PrepareMsg;
  struct PromiseMsg;
  struct AcceptMsg;
  struct AcceptedMsg;
  struct CommitMsg;
  struct PullMsg;
  struct PullReplyMsg;

  struct SlotState {
    Ballot accept_num;
    smr::Entry value;      ///< Full value (leader / c = k) or shard set.
    bool has_value = false;
    bool chosen = false;
    Ballot chosen_ballot;  ///< Ballot the commit announced.
    // Leader-side proposal state.
    std::set<sim::NodeId> accepts;
    uint32_t round = 0;   ///< Bumped per (re-)proposal; acks echo it.
    int c = 0;            ///< Shards per acceptor this round.
    int q2 = 0;           ///< Accepts needed this round.
    sim::Time proposed_at = 0;
  };

  /// A committed slot awaiting shard reconstruction.
  struct PendingRecon {
    Ballot ballot;  ///< Chosen ballot (zero when learned via teach).
    smr::ShardAssembler assembler;
    int attempt = 0;
    uint64_t timer = 0;
  };

  void StartPhase1();
  void OnLeadershipAcquired();
  void Deposed();
  void ProposeNext();
  /// Chooses c for a payload of `payload` bytes (the adaptive controller).
  int ChooseShards(int payload);
  int Q2For(int c) const;
  int PositionOf(sim::NodeId node) const;
  /// Proposes `entry` (a full value) at `index`: leader self-accepts the
  /// full copy and ships per-acceptor shard windows (or full copies).
  void AcceptSlot(uint64_t index, const smr::Entry& entry);
  /// Starts a fresh accept round for `index` at c shards per acceptor
  /// (the slot must already hold the full value).
  void StartRound(uint64_t index, int c);
  /// Ships the slot's current round — to everyone, or only to members
  /// that have not acked it yet.
  void SendRound(uint64_t index, const SlotState& slot, bool resend_only);
  /// Commits the slot if its current round has reached q2.
  void MaybeChoose(uint64_t index);
  /// Reconstructs and learns `index` if its assembler is complete.
  void TryCompleteRecon(uint64_t index);
  /// Re-queues the client commands of our unchosen in-flight proposal at
  /// `index` after being taught the slot was already decided (as
  /// `decided`, when known).
  void DisplaceInFlight(uint64_t index, const smr::Entry* decided);
  /// Re-sends the current round to stragglers; escalates stalled sharded
  /// slots to full copies.
  void ResendInFlight();
  /// Resolves one recovered slot from promise-carried fragments; nullopt
  /// when no candidate reconstructs (provably unchosen in bounds).
  std::optional<smr::Entry> ResolveRecovered(
      const std::vector<std::pair<Ballot, smr::Entry>>& candidates) const;
  /// Records `index` as chosen at `ballot` and kicks off reconstruction
  /// or applies directly, depending on what this replica holds.
  void MarkChosen(uint64_t index, Ballot ballot);
  /// Installs the full chosen value into the log and applies.
  void LearnChosen(uint64_t index, const smr::Entry& entry);
  void SchedulePull(uint64_t index);
  void ResetLeaderTimer();
  void SendHeartbeat();
  std::vector<sim::NodeId> Everyone() const;
  SlotState& Slot(uint64_t index);
  /// First index this replica does not know to be chosen (committed,
  /// pending reconstruction, or marked chosen in acceptor state).
  uint64_t ChosenThrough() const;

  CrosswordOptions options_;
  int n_ = 0;
  int k_ = 0;   ///< Majority = data-shard count.
  int q1_ = 0;  ///< Phase-1 quorum (majority).

  // Acceptor state.
  Ballot ballot_num_;
  std::map<uint64_t, SlotState> slots_;

  // Leader state.
  bool leader_active_ = false;
  bool phase1_pending_ = false;
  std::set<sim::NodeId> promisers_;
  /// index -> every (ballot, value) any promise carried for it.
  std::map<uint64_t, std::vector<std::pair<Ballot, smr::Entry>>> recovered_;
  /// Slots some promiser knows are decided.
  std::set<uint64_t> recovered_chosen_;
  Ballot my_ballot_;
  uint64_t next_index_ = 0;

  // Learner / execution state.
  smr::ReplicatedLog log_;
  smr::LeaderPipeline pipeline_;
  std::map<uint64_t, PendingRecon> pending_recon_;
  /// (index, puller) -> time our last reply finishes serializing; repeat
  /// pulls before then are the puller's impatience, not a loss, and are
  /// dropped instead of queueing duplicate replies. Volatile by design.
  std::map<std::pair<uint64_t, sim::NodeId>, sim::Time> pull_reply_draining_;

  // Adaptive controller state.
  int c_now_ = 0;
  double payload_ewma_ = 0.0;
  double backlog_ewma_ = 0.0;

  uint64_t leader_timer_ = 0;
  uint64_t heartbeat_timer_ = 0;
  int phase1_rounds_ = 0;
  int reconstructions_ = 0;
  int pulls_served_ = 0;
  int escalations_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace consensus40::paxos

#endif  // CONSENSUS40_PAXOS_CROSSWORD_H_
