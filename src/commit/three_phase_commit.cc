#include "commit/three_phase_commit.h"

namespace consensus40::commit {

namespace {

/// Participant patience before suspecting the coordinator.
constexpr sim::Duration kDecisionTimeout = 200 * sim::kMillisecond;
/// Coordinator patience for votes before it aborts.
constexpr sim::Duration kVoteTimeout = 100 * sim::kMillisecond;

}  // namespace

// ---------------------------------------------------------------------------
// Participant
// ---------------------------------------------------------------------------

ThreePcParticipant::ThreePcParticipant()
    : ThreePcParticipant(Options()) {}
ThreePcParticipant::ThreePcParticipant(Options options) : options_(options) {}

TxState ThreePcParticipant::state(uint64_t tx_id) const {
  auto it = txs_.find(tx_id);
  return it == txs_.end() ? TxState::kUnknown : it->second.state;
}

void ThreePcParticipant::Commit(uint64_t tx_id, TxInfo& info) {
  if (info.state == TxState::kCommitted) return;
  info.state = TxState::kCommitted;
  CancelTimer(info.decision_timer);
  kv_.Apply(smr::Command{id(), ++op_seq_, info.op});
  (void)tx_id;
}

void ThreePcParticipant::Abort(TxInfo& info) {
  if (info.state == TxState::kCommitted) return;  // Never undo a commit.
  info.state = TxState::kAborted;
  CancelTimer(info.decision_timer);
}

void ThreePcParticipant::ArmDecisionTimer(uint64_t tx_id) {
  if (!options_.enable_termination) return;
  TxInfo& info = txs_[tx_id];
  CancelTimer(info.decision_timer);
  // Stagger by id so the lowest-id survivor acts first (its timer fires
  // earliest) — a deterministic "elect the lowest alive participant".
  sim::Duration t = kDecisionTimeout +
                    id() * 10 * sim::kMillisecond +
                    static_cast<sim::Duration>(
                        rng().NextBounded(5 * sim::kMillisecond));
  info.decision_timer = SetTimer(t, [this, tx_id] { StartTermination(tx_id); });
}

void ThreePcParticipant::StartTermination(uint64_t tx_id) {
  TxInfo& info = txs_[tx_id];
  if (info.state == TxState::kCommitted || info.state == TxState::kAborted) {
    return;
  }
  // Become the new coordinator and query everyone's state.
  info.leading_termination = true;
  info.peer_states.clear();
  info.peer_states[id()] = info.state;
  ++terminations_led_;
  auto req = std::make_shared<StateReqMsg>();
  req->tx_id = tx_id;
  for (sim::NodeId p : info.participants) {
    if (p != id()) Send(p, req);
  }
  // Evaluate after a response window (crashed peers simply don't answer).
  SetTimer(100 * sim::kMillisecond, [this, tx_id] {
    auto it = txs_.find(tx_id);
    if (it != txs_.end() && it->second.leading_termination) {
      EvaluateTermination(tx_id, it->second);
    }
  });
}

void ThreePcParticipant::EvaluateTermination(uint64_t tx_id, TxInfo& info) {
  if (info.state == TxState::kCommitted || info.state == TxState::kAborted) {
    info.leading_termination = false;
    return;
  }
  bool any_committed = false;
  bool any_precommitted = false;
  bool any_aborted = false;
  for (const auto& [peer, state] : info.peer_states) {
    any_committed |= (state == TxState::kCommitted);
    any_precommitted |= (state == TxState::kPreCommitted);
    any_aborted |= (state == TxState::kAborted);
  }
  info.leading_termination = false;

  if (any_committed || any_precommitted) {
    // The decision was commit; finish it everywhere.
    auto commit = std::make_shared<DoCommitMsg>();
    commit->tx_id = tx_id;
    for (sim::NodeId p : info.participants) {
      if (p != id()) Send(p, commit);
    }
    Commit(tx_id, info);
  } else {
    // Nobody is past prepared: the old coordinator cannot have sent
    // DoCommit (it requires every pre-commit ack), so abort is safe.
    (void)any_aborted;
    auto abort = std::make_shared<AbortMsg>();
    abort->tx_id = tx_id;
    for (sim::NodeId p : info.participants) {
      if (p != id()) Send(p, abort);
    }
    Abort(info);
  }
}

void ThreePcParticipant::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const CanCommitMsg*>(&msg)) {
    TxInfo& info = txs_[m->tx_id];
    info.op = m->op;
    info.participants = m->participants;
    auto vote = std::make_shared<VoteMsg>();
    vote->tx_id = m->tx_id;
    if (m->op == "FAIL") {
      info.state = TxState::kAborted;
      vote->yes = false;
    } else {
      info.state = TxState::kPrepared;
      vote->yes = true;
      ArmDecisionTimer(m->tx_id);
    }
    Send(from, vote);
    return;
  }

  if (const auto* m = dynamic_cast<const PreCommitMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    TxInfo& info = it->second;
    if (info.state == TxState::kPrepared) {
      info.state = TxState::kPreCommitted;
      ArmDecisionTimer(m->tx_id);
    }
    auto ack = std::make_shared<PreCommitAckMsg>();
    ack->tx_id = m->tx_id;
    Send(from, ack);
    return;
  }

  if (const auto* m = dynamic_cast<const DoCommitMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    Commit(m->tx_id, it->second);
    return;
  }

  if (const auto* m = dynamic_cast<const AbortMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    Abort(it->second);
    return;
  }

  if (const auto* m = dynamic_cast<const StateReqMsg*>(&msg)) {
    auto resp = std::make_shared<StateRespMsg>();
    resp->tx_id = m->tx_id;
    resp->state = state(m->tx_id);
    Send(from, resp);
    // Someone is running termination; give them time before we try.
    auto it = txs_.find(m->tx_id);
    if (it != txs_.end() &&
        (it->second.state == TxState::kPrepared ||
         it->second.state == TxState::kPreCommitted)) {
      ArmDecisionTimer(m->tx_id);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const StateRespMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it != txs_.end() && it->second.leading_termination) {
      it->second.peer_states[from] = m->state;
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void ThreePcCoordinator::Begin(const Transaction& tx) {
  TxRun& run = runs_[tx.tx_id];
  run.tx = tx;
  std::vector<sim::NodeId> participants;
  for (int32_t p : tx.Participants()) participants.push_back(p);
  for (const TxOp& op : tx.ops) {
    auto can = std::make_shared<ThreePcParticipant::CanCommitMsg>();
    can->tx_id = tx.tx_id;
    can->op = op.op;
    can->participants = participants;
    Send(op.participant, can);
  }
  uint64_t tx_id = tx.tx_id;
  run.timer = SetTimer(kVoteTimeout, [this, tx_id] {
    auto it = runs_.find(tx_id);
    if (it != runs_.end() && !it->second.decision) Abort(it->second);
  });
}

std::optional<bool> ThreePcCoordinator::outcome(uint64_t tx_id) const {
  auto it = runs_.find(tx_id);
  return it == runs_.end() ? std::nullopt : it->second.decision;
}

void ThreePcCoordinator::Abort(TxRun& run) {
  if (run.decision) return;
  run.decision = false;
  CancelTimer(run.timer);
  for (int32_t p : run.tx.Participants()) {
    auto abort = std::make_shared<ThreePcParticipant::AbortMsg>();
    abort->tx_id = run.tx.tx_id;
    Send(p, abort);
  }
}

void ThreePcCoordinator::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const ThreePcParticipant::VoteMsg*>(&msg)) {
    auto it = runs_.find(m->tx_id);
    if (it == runs_.end() || it->second.decision) return;
    TxRun& run = it->second;
    if (!m->yes) {
      Abort(run);
      return;
    }
    run.yes_votes.insert(from);
    if (run.yes_votes.size() == run.tx.Participants().size()) {
      // Phase 2: replicate the commit decision before anyone commits.
      for (int32_t p : run.tx.Participants()) {
        auto pre = std::make_shared<ThreePcParticipant::PreCommitMsg>();
        pre->tx_id = run.tx.tx_id;
        Send(p, pre);
      }
    }
    return;
  }

  if (const auto* m =
          dynamic_cast<const ThreePcParticipant::PreCommitAckMsg*>(&msg)) {
    auto it = runs_.find(m->tx_id);
    if (it == runs_.end() || it->second.decision) return;
    TxRun& run = it->second;
    run.pre_acks.insert(from);
    if (run.pre_acks.size() == run.tx.Participants().size()) {
      run.decision = true;
      CancelTimer(run.timer);
      for (int32_t p : run.tx.Participants()) {
        auto commit = std::make_shared<ThreePcParticipant::DoCommitMsg>();
        commit->tx_id = run.tx.tx_id;
        Send(p, commit);
      }
    }
    return;
  }
}

}  // namespace consensus40::commit
