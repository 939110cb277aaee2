#ifndef CONSENSUS40_PAXOS_PAXOS_H_
#define CONSENSUS40_PAXOS_PAXOS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/quorum.h"
#include "paxos/ballot.h"
#include "sim/simulation.h"

namespace consensus40::paxos {

/// Configuration for a single-decree Paxos node.
struct PaxosOptions {
  /// Cluster size. Nodes 0..n-1 must be the first n processes spawned into
  /// the simulation.
  int n = 0;

  /// Phase-1 (leader election / prepare) quorum size. -1 = majority.
  /// Setting q1 and q2 independently turns this node into Flexible Paxos;
  /// the constructor does NOT validate q1+q2>n so tests can demonstrate
  /// what goes wrong with non-intersecting quorums.
  int q1 = -1;

  /// Phase-2 (replication / accept) quorum size. -1 = majority.
  int q2 = -1;

  /// Set-structured quorum system (e.g. core::GridQuorum). When non-null
  /// it overrides q1/q2: phase 1 completes when the promiser SET is an
  /// election quorum, phase 2 when the acceptor SET is a replication
  /// quorum. Must outlive the nodes.
  const core::QuorumSystem* quorum_system = nullptr;

  /// Delay before a preempted (nacked) proposer retries with a higher
  /// ballot. Zero = retry immediately (the livelock configuration).
  sim::Duration retry_delay = 10 * sim::kMillisecond;

  /// If true, the retry delay is multiplied by Uniform[1, 10]. The deck's
  /// livelock fix: "randomized delay before restarting".
  bool randomized_backoff = true;
};

/// Single-decree Paxos (the deck's Phase I "prepare" / Phase II "accept"
/// pseudo-code, verbatim): every node is proposer + acceptor + learner.
///
/// Acceptor state (BallotNum, AcceptNum, AcceptVal) survives crashes — it
/// models stable storage; proposer state is volatile and reset on restart.
class PaxosNode : public sim::Process {
 public:
  explicit PaxosNode(PaxosOptions options);

  /// Starts proposing `value`. May be called on any node, any time before
  /// decision; concurrent proposers duel via ballots.
  void Propose(std::string value);

  /// The decided value, if this node has learned it.
  const std::optional<std::string>& decided() const { return decided_; }

  /// Safety violations observed locally (must stay empty).
  const std::vector<std::string>& violations() const { return violations_; }

  /// Acceptor state accessors for tests.
  const Ballot& promised() const { return ballot_num_; }
  const Ballot& accept_num() const { return accept_num_; }
  const std::optional<std::string>& accept_val() const { return accept_val_; }

  /// Number of phase-1 attempts this node started (duel counter).
  int prepare_attempts() const { return prepare_attempts_; }

  void OnStart() override {}
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct PrepareMsg;
  struct PrepareAckMsg;
  struct AcceptMsg;
  struct AcceptedMsg;
  struct NackMsg;
  struct DecideMsg;
  struct LearnMsg;

  void StartPhase1();
  void MaybeFinishPhase1();
  void Decide(const std::string& value);
  void ScheduleRetry(sim::Duration base_delay);
  std::vector<sim::NodeId> Everyone() const;

  PaxosOptions options_;
  int q1_, q2_;

  // --- Acceptor state (stable storage) ---
  Ballot ballot_num_;   ///< Latest ballot joined (phase 1 promise).
  Ballot accept_num_;   ///< Latest ballot a value was accepted in.
  std::optional<std::string> accept_val_;  ///< Latest accepted value.

  // --- Proposer state (volatile) ---
  bool proposing_ = false;
  std::optional<std::string> my_value_;
  Ballot my_ballot_;
  int phase_ = 0;  ///< 0 idle, 1 awaiting promises, 2 awaiting accepts.
  /// acceptor -> (AcceptNum, AcceptVal) from its promise.
  std::map<sim::NodeId, std::pair<Ballot, std::optional<std::string>>>
      promises_;
  std::set<sim::NodeId> accepts_;
  std::string proposal_value_;
  Ballot max_seen_;  ///< Highest ballot observed anywhere.
  uint64_t retry_timer_ = 0;
  int prepare_attempts_ = 0;

  // --- Learner state ---
  std::optional<std::string> decided_;

  std::vector<std::string> violations_;
};

}  // namespace consensus40::paxos

#endif  // CONSENSUS40_PAXOS_PAXOS_H_
