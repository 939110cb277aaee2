#ifndef CONSENSUS40_COMMIT_TWO_PHASE_COMMIT_H_
#define CONSENSUS40_COMMIT_TWO_PHASE_COMMIT_H_

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

/// 2PC participant (cohort): votes on prepare, holds the transaction in the
/// *uncertainty window* after voting Yes, and applies/aborts on the
/// coordinator's decision. A participant that voted Yes can NEVER decide
/// unilaterally — that is 2PC's blocking property, observable through
/// state() while the coordinator is crashed.
class TwoPcParticipant : public sim::Process {
 public:
  struct PrepareMsg : sim::Message {
    const char* TypeName() const override { return "2pc-prepare"; }
    int ByteSize() const override { return 24 + static_cast<int>(op.size()); }
    uint64_t tx_id = 0;
    std::string op;
  };
  struct VoteMsg : sim::Message {
    const char* TypeName() const override { return "2pc-vote"; }
    int ByteSize() const override { return 24; }
    uint64_t tx_id = 0;
    bool yes = false;
  };
  struct DecisionMsg : sim::Message {
    const char* TypeName() const override { return "2pc-decision"; }
    int ByteSize() const override { return 24; }
    uint64_t tx_id = 0;
    bool commit = false;
  };
  struct AckMsg : sim::Message {
    const char* TypeName() const override { return "2pc-ack"; }
    int ByteSize() const override { return 16; }
    uint64_t tx_id = 0;
  };

  TxState state(uint64_t tx_id) const;
  const smr::KvStore& kv() const { return kv_; }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct TxInfo {
    TxState state = TxState::kUnknown;
    std::string op;
  };

  std::map<uint64_t, TxInfo> txs_;
  smr::KvStore kv_;
  uint64_t op_seq_ = 0;
};

/// 2PC coordinator: drives prepare -> collect votes -> decide -> ack.
/// Transactions are submitted with Begin(); outcomes are observable via
/// outcome(). Crash the coordinator between vote collection and decision
/// broadcast to reproduce the blocking window.
class TwoPcCoordinator : public sim::Process {
 public:
  /// Starts 2PC for `tx`. Participant ids are simulation node ids.
  void Begin(const Transaction& tx);

  /// Decision, when reached: true = committed.
  std::optional<bool> outcome(uint64_t tx_id) const;

  /// True once every participant acknowledged the decision.
  bool Finished(uint64_t tx_id) const;

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct TxRun {
    Transaction tx;
    std::set<sim::NodeId> yes_votes;
    std::set<sim::NodeId> acks;
    std::optional<bool> decision;
    bool decided_sent = false;
    uint64_t timer = 0;
  };

  void Decide(TxRun& run, bool commit);

  std::map<uint64_t, TxRun> runs_;
};

}  // namespace consensus40::commit

#endif  // CONSENSUS40_COMMIT_TWO_PHASE_COMMIT_H_
