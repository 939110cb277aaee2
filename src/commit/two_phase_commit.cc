#include "commit/two_phase_commit.h"

namespace consensus40::commit {

namespace {

/// Votes not received within this window abort the transaction
/// (participant failure before voting is the non-blocking direction).
constexpr sim::Duration kVoteTimeout = 100 * sim::kMillisecond;

}  // namespace

// ---------------------------------------------------------------------------
// Participant
// ---------------------------------------------------------------------------

TxState TwoPcParticipant::state(uint64_t tx_id) const {
  auto it = txs_.find(tx_id);
  return it == txs_.end() ? TxState::kUnknown : it->second.state;
}

void TwoPcParticipant::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    TxInfo& info = txs_[m->tx_id];
    info.op = m->op;
    auto vote = std::make_shared<VoteMsg>();
    vote->tx_id = m->tx_id;
    if (m->op == "FAIL") {
      // Local validation failed: vote No and abort unilaterally (allowed
      // before voting Yes).
      info.state = TxState::kAborted;
      vote->yes = false;
    } else {
      // Vote Yes: from here on we are in the uncertainty window and must
      // wait for the coordinator's decision.
      info.state = TxState::kPrepared;
      vote->yes = true;
    }
    Send(from, vote);
    return;
  }

  if (const auto* m = dynamic_cast<const DecisionMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    TxInfo& info = it->second;
    if (info.state == TxState::kPrepared || info.state == TxState::kUnknown) {
      if (m->commit) {
        info.state = TxState::kCommitted;
        kv_.Apply(smr::Command{id(), ++op_seq_, info.op});
      } else {
        info.state = TxState::kAborted;
      }
    }
    auto ack = std::make_shared<AckMsg>();
    ack->tx_id = m->tx_id;
    Send(from, ack);
    return;
  }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void TwoPcCoordinator::Begin(const Transaction& tx) {
  TxRun& run = runs_[tx.tx_id];
  run.tx = tx;
  for (const TxOp& op : tx.ops) {
    auto prepare = std::make_shared<TwoPcParticipant::PrepareMsg>();
    prepare->tx_id = tx.tx_id;
    prepare->op = op.op;
    Send(op.participant, prepare);
  }
  uint64_t tx_id = tx.tx_id;
  run.timer = SetTimer(kVoteTimeout, [this, tx_id] {
    auto it = runs_.find(tx_id);
    if (it != runs_.end() && !it->second.decision) {
      Decide(it->second, false);  // Missing votes => abort.
    }
  });
}

std::optional<bool> TwoPcCoordinator::outcome(uint64_t tx_id) const {
  auto it = runs_.find(tx_id);
  return it == runs_.end() ? std::nullopt : it->second.decision;
}

bool TwoPcCoordinator::Finished(uint64_t tx_id) const {
  auto it = runs_.find(tx_id);
  if (it == runs_.end() || !it->second.decision) return false;
  return it->second.acks.size() == it->second.tx.Participants().size();
}

void TwoPcCoordinator::Decide(TxRun& run, bool commit) {
  if (run.decision) return;
  run.decision = commit;
  CancelTimer(run.timer);
  for (int32_t p : run.tx.Participants()) {
    auto decision = std::make_shared<TwoPcParticipant::DecisionMsg>();
    decision->tx_id = run.tx.tx_id;
    decision->commit = commit;
    Send(p, decision);
  }
}

void TwoPcCoordinator::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const TwoPcParticipant::VoteMsg*>(&msg)) {
    auto it = runs_.find(m->tx_id);
    if (it == runs_.end() || it->second.decision) return;
    TxRun& run = it->second;
    if (!m->yes) {
      Decide(run, false);
      return;
    }
    run.yes_votes.insert(from);
    if (run.yes_votes.size() == run.tx.Participants().size()) {
      Decide(run, true);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const TwoPcParticipant::AckMsg*>(&msg)) {
    auto it = runs_.find(m->tx_id);
    if (it != runs_.end()) it->second.acks.insert(from);
    return;
  }
}

}  // namespace consensus40::commit
