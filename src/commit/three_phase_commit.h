#ifndef CONSENSUS40_COMMIT_THREE_PHASE_COMMIT_H_
#define CONSENSUS40_COMMIT_THREE_PHASE_COMMIT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "commit/types.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/state_machine.h"

namespace consensus40::commit {

/// 3PC participant. The extra pre-commit phase replicates the decision to
/// the cohorts before anyone commits (deck: "Replicate decision to cohorts
/// (like Paxos)"), which removes 2PC's blocking window: if the coordinator
/// fails, the surviving participants elect a new coordinator (lowest alive
/// id) and run the termination protocol:
///   - someone committed            -> commit everywhere
///   - someone pre-committed        -> pre-commit, then commit
///   - nobody past prepared         -> abort (provably safe: DoCommit is
///     only ever sent after *all* participants acked pre-commit)
class ThreePcParticipant : public sim::Process {
 public:
  struct Options {
    /// Enables the termination protocol (FT-3PC). Without it, a coordinator
    /// crash leaves participants stuck just like 2PC.
    bool enable_termination = true;
  };

  struct CanCommitMsg : sim::Message {
    const char* TypeName() const override { return "3pc-can-commit"; }
    int ByteSize() const override {
      return 32 + static_cast<int>(op.size()) +
             static_cast<int>(participants.size()) * 4;
    }
    uint64_t tx_id = 0;
    std::string op;
    std::vector<sim::NodeId> participants;  ///< For the termination protocol.
  };
  struct VoteMsg : sim::Message {
    const char* TypeName() const override { return "3pc-vote"; }
    int ByteSize() const override { return 24; }
    uint64_t tx_id = 0;
    bool yes = false;
  };
  struct PreCommitMsg : sim::Message {
    const char* TypeName() const override { return "3pc-pre-commit"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };
  struct PreCommitAckMsg : sim::Message {
    const char* TypeName() const override { return "3pc-pre-commit-ack"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };
  struct DoCommitMsg : sim::Message {
    const char* TypeName() const override { return "3pc-do-commit"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };
  struct AbortMsg : sim::Message {
    const char* TypeName() const override { return "3pc-abort"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };
  struct StateReqMsg : sim::Message {
    const char* TypeName() const override { return "3pc-state-req"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };
  struct StateRespMsg : sim::Message {
    const char* TypeName() const override { return "3pc-state-resp"; }
    int ByteSize() const override { return 20; }
    uint64_t tx_id = 0;
    TxState state = TxState::kUnknown;
  };

  ThreePcParticipant();
  explicit ThreePcParticipant(Options options);

  TxState state(uint64_t tx_id) const;
  const smr::KvStore& kv() const { return kv_; }
  /// Number of termination rounds this node started (new-coordinator role).
  int terminations_led() const { return terminations_led_; }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct TxInfo {
    TxState state = TxState::kUnknown;
    std::string op;
    std::vector<sim::NodeId> participants;
    uint64_t decision_timer = 0;
    // Termination-coordinator bookkeeping.
    bool leading_termination = false;
    std::map<sim::NodeId, TxState> peer_states;
    std::set<sim::NodeId> term_acks;
  };

  void Commit(uint64_t tx_id, TxInfo& info);
  void Abort(TxInfo& info);
  void ArmDecisionTimer(uint64_t tx_id);
  void StartTermination(uint64_t tx_id);
  void EvaluateTermination(uint64_t tx_id, TxInfo& info);

  Options options_;
  std::map<uint64_t, TxInfo> txs_;
  smr::KvStore kv_;
  uint64_t op_seq_ = 0;
  int terminations_led_ = 0;
};

/// 3PC coordinator: can-commit -> pre-commit -> do-commit.
class ThreePcCoordinator : public sim::Process {
 public:
  void Begin(const Transaction& tx);
  std::optional<bool> outcome(uint64_t tx_id) const;

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct TxRun {
    Transaction tx;
    std::set<sim::NodeId> yes_votes;
    std::set<sim::NodeId> pre_acks;
    std::optional<bool> decision;
    uint64_t timer = 0;
  };

  void Abort(TxRun& run);

  std::map<uint64_t, TxRun> runs_;
};

}  // namespace consensus40::commit

#endif  // CONSENSUS40_COMMIT_THREE_PHASE_COMMIT_H_
