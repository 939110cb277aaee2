#include "shard/shard.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "shard/reshard.h"
#include "smr/command.h"

namespace consensus40::shard {

namespace {

/// How often a frozen TM nudges the mover (stalled-move recovery) and
/// re-announces drain completion.
constexpr sim::Duration kNudgePeriod = 500 * sim::kMillisecond;
/// Coordinator patience for votes before it decides ABORT.
constexpr sim::Duration kVoteTimeout = 250 * sim::kMillisecond;
/// Prepared-TM patience for the decision before it asks the decision
/// group itself (participant-driven termination).
constexpr sim::Duration kRecoveryTimeout = 1 * sim::kSecond;

bool InRange(uint64_t h, uint64_t lo, uint64_t hi) {
  return h >= lo && (hi == 0 || h < hi);
}

}  // namespace

std::string DecisionKey(uint64_t tx_id) {
  return "__d." + std::to_string(tx_id);
}

std::string PrepareKey(uint64_t tx_id) {
  return "__p." + std::to_string(tx_id);
}

// ---------------------------------------------------------------------------
// TxManager
// ---------------------------------------------------------------------------

TxManager::TxManager(ShardedStateMachine* owner, int shard)
    : owner_(owner), shard_(shard), table_(owner->InitialTable()) {}

bool TxManager::KeyFrozen(const std::string& key) const {
  uint64_t h = ShardedStateMachine::HashKey(key);
  for (const auto& [id, f] : frozen_) {
    if (InRange(h, f.lo, f.hi)) return true;
  }
  return false;
}

void TxManager::NoteTxGone(uint64_t tx_id) {
  for (auto& [id, f] : frozen_) {
    if (f.draining.erase(tx_id) > 0 && f.draining.empty()) {
      f.drained_sent = true;
      auto m = std::make_shared<MoveDrainedMsg>();
      m->move_id = id;
      Send(f.mover, m);
    }
  }
}

void TxManager::OnMoveFreeze(sim::NodeId from, const MoveFreezeMsg& m) {
  FrozenRange& f = frozen_[m.move_id];
  f.lo = m.lo;
  f.hi = m.hi;
  f.mover = from;
  // In-flight transactions that must drain at the old owner: anything
  // still in the table with a write in the range. New arrivals are
  // refused from now on, so this set only shrinks. Recomputed on every
  // (re-)freeze — safe, since refusals keep new range-txs out of txs_.
  f.draining.clear();
  for (const auto& [tx_id, tx] : txs_) {
    for (const TxShardOp& sop : tx.ops) {
      if (InRange(ShardedStateMachine::HashKey(sop.op.key), m.lo, m.hi)) {
        f.draining.insert(tx_id);
        break;
      }
    }
  }
  if (f.nudge_timer == 0) ArmNudge(m.move_id);
  auto ack = std::make_shared<MoveFreezeAckMsg>();
  ack->move_id = m.move_id;
  ack->drained = f.draining.empty();
  Send(from, ack);
}

void TxManager::ArmNudge(const std::string& move_id) {
  auto it = frozen_.find(move_id);
  if (it == frozen_.end()) return;
  it->second.nudge_timer = SetTimer(kNudgePeriod, [this, move_id] {
    auto f = frozen_.find(move_id);
    if (f == frozen_.end()) return;
    // The nudge doubles as retransmission of the drained signal (the
    // raw TM<->mover messages have no other retry path) and as the
    // recovery trigger for a crashed-and-restarted mover: the mover
    // re-reads the move's claim/flip records and resumes the ladder.
    auto nudge = std::make_shared<MoveNudgeMsg>();
    nudge->move_id = move_id;
    Send(f->second.mover, nudge);
    if (f->second.draining.empty()) {
      auto drained = std::make_shared<MoveDrainedMsg>();
      drained->move_id = move_id;
      Send(f->second.mover, drained);
    }
    ArmNudge(move_id);
  });
}

void TxManager::OnMoveInstall(sim::NodeId from, const MoveInstallMsg& m) {
  if (!table_.MaybeAdopt(m.table) && m.force &&
      m.table.epoch() == table_.epoch()) {
    // A mover standing down at the flip pushes the ESTABLISHED table,
    // which replaces the same-epoch table its losing pre-flip install
    // taught us (epoch-gated adoption alone would keep the loser and
    // this TM would accept writes for a range it does not own).
    table_ = m.table;
  }
  auto ack = std::make_shared<MoveInstallAckMsg>();
  ack->move_id = m.move_id;
  Send(from, ack);
}

void TxManager::OnMoveUnfreeze(sim::NodeId from, const MoveUnfreezeMsg& m) {
  table_.MaybeAdopt(m.table);
  auto it = frozen_.find(m.move_id);
  if (it != frozen_.end()) {
    if (it->second.nudge_timer != 0) CancelTimer(it->second.nudge_timer);
    frozen_.erase(it);
  }
  auto ack = std::make_shared<MoveUnfreezeAckMsg>();
  ack->move_id = m.move_id;
  Send(from, ack);
}

void TxManager::Vote(uint64_t tx_id, const Tx& tx, bool yes,
                     TxAbortReason reason) {
  auto vote = std::make_shared<TmVoteMsg>();
  vote->tx_id = tx_id;
  vote->shard = shard_;
  vote->yes = yes;
  vote->reason = reason;
  if (yes) vote->reads = tx.reads;
  Send(tx.coordinator, vote);
}

void TxManager::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const TmPrepareMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it != txs_.end()) {
      // Duplicate prepare (coordinator restarted or the vote was slow):
      // re-vote where a vote is already determined, otherwise let the
      // in-flight step answer when it lands.
      Tx& tx = it->second;
      tx.coordinator = from;
      if (tx.phase == Phase::kPrepared) Vote(m->tx_id, tx, true);
      return;
    }
    for (const TxShardOp& sop : m->ops) {
      // Routing check: a key this TM's table assigns elsewhere means the
      // coordinator routed by a stale epoch — bounce with our table so
      // it can re-split the retry at the new owner. (A TM only ever
      // knows MORE than the coordinator about its own ranges: moves in
      // and out of this shard always teach this TM before unfreezing.)
      if (table_.GroupForKey(sop.op.key) != shard_) {
        ++redirects_;
        auto redirect = std::make_shared<TmRedirectMsg>();
        redirect->tx_id = m->tx_id;
        redirect->table = table_;
        Send(from, redirect);
        return;
      }
    }
    for (const TxShardOp& sop : m->ops) {
      // Mid-migration: the range is frozen while its data moves. Vote
      // NO — the transaction retries after the flip (it is never split
      // across epochs).
      if (KeyFrozen(sop.op.key)) {
        Tx doomed;
        doomed.coordinator = from;
        Vote(m->tx_id, doomed, false, TxAbortReason::kFrozenRange);
        return;
      }
      // No-wait conflict check: writes need the key exclusive (no other
      // reader or writer), reads only refuse a foreign writer. Refused
      // transactions are not recorded; a later re-prepare re-checks.
      auto lock = lock_table_.find(sop.op.key);
      if (lock == lock_table_.end()) continue;
      const LockEntry& l = lock->second;
      bool conflict = l.exclusive != 0 && l.exclusive != m->tx_id;
      if (sop.op.IsWrite()) {
        for (uint64_t holder : l.shared) {
          if (holder != m->tx_id) conflict = true;
        }
      } else if (owner_->options().unsafe_no_read_locks) {
        conflict = false;  // OUT-OF-BOUNDS: reads ignore writers entirely.
      }
      if (conflict) {
        Tx doomed;
        doomed.coordinator = from;
        Vote(m->tx_id, doomed, false, TxAbortReason::kLockConflict);
        return;
      }
    }
    ++prepares_;
    Tx& tx = txs_[m->tx_id];
    tx.ops = m->ops;
    tx.coordinator = from;
    tx.one_phase = m->one_phase;
    for (const TxShardOp& sop : tx.ops) {
      if (sop.op.IsWrite()) {
        lock_table_[sop.op.key].exclusive = m->tx_id;
      } else if (!owner_->options().unsafe_no_read_locks) {
        lock_table_[sop.op.key].shared.insert(m->tx_id);
      }
    }
    // Ops that evaluate the stored value (GET, CAS) trigger one
    // read-index read per distinct key; the prepare continues in
    // EvaluateReads once they land. Locks are already held, so the
    // values are stable until the decision is applied. Blind-write
    // transactions skip straight ahead — no reads, no extra messages.
    std::set<std::string> read_keys;
    for (const TxShardOp& sop : tx.ops) {
      if (sop.op.NeedsRead()) read_keys.insert(sop.op.key);
    }
    if (read_keys.empty()) {
      for (const TxShardOp& sop : tx.ops) {
        tx.effects.push_back(sop.op.type == TxOp::Type::kDelete
                                 ? "DEL " + sop.op.key
                                 : "PUT " + sop.op.key + " " + sop.op.value);
      }
      Proceed(m->tx_id);
      return;
    }
    tx.reads_outstanding = static_cast<int>(read_keys.size());
    for (const std::string& key : read_keys) {
      uint64_t seq = owner_->shard_client(shard_)->Read(key);
      shard_read_seq_[seq] = {m->tx_id, key};
    }
    return;
  }

  if (const auto* m = dynamic_cast<const TmDecisionMsg*>(&msg)) {
    ApplyDecision(m->tx_id, m->commit);
    return;
  }

  if (const auto* m = dynamic_cast<const MoveFreezeMsg*>(&msg)) {
    OnMoveFreeze(from, *m);
    return;
  }
  if (const auto* m = dynamic_cast<const MoveInstallMsg*>(&msg)) {
    OnMoveInstall(from, *m);
    return;
  }
  if (const auto* m = dynamic_cast<const MoveUnfreezeMsg*>(&msg)) {
    OnMoveUnfreeze(from, *m);
    return;
  }
  (void)from;
}

void TxManager::OnShardResult(uint64_t seq, const std::string& result,
                              bool read) {
  if (crashed()) return;
  if (read) {
    // A prepare-time read landed.
    auto read_it = shard_read_seq_.find(seq);
    if (read_it == shard_read_seq_.end()) return;
    auto [read_tx, key] = read_it->second;
    shard_read_seq_.erase(read_it);
    auto tx_it = txs_.find(read_tx);
    if (tx_it == txs_.end()) return;  // Aborted while the read was in flight.
    tx_it->second.read_values[key] = result;
    if (--tx_it->second.reads_outstanding == 0) EvaluateReads(read_tx);
    return;
  }
  auto seq_it = shard_seq_tx_.find(seq);
  if (seq_it == shard_seq_tx_.end()) return;
  uint64_t tx_id = seq_it->second;
  shard_seq_tx_.erase(seq_it);
  auto it = txs_.find(tx_id);
  if (it == txs_.end()) return;  // Aborted while the op was in flight.
  Tx& tx = it->second;
  if (tx.phase == Phase::kPreparing) {
    // Prepare record committed: vote YES and start the decision clock.
    tx.phase = Phase::kPrepared;
    Vote(tx_id, tx, true);
    tx.recovery_timer =
        SetTimer(kRecoveryTimeout, [this, tx_id] {
          auto rec = txs_.find(tx_id);
          if (rec == txs_.end() || rec->second.phase != Phase::kPrepared) {
            return;
          }
          // Participant-driven termination (Gray & Lamport): a prepared
          // participant asks the decision group directly, proposing
          // ABORT. Whatever the group already holds wins.
          rec->second.phase = Phase::kRecovering;
          ++recoveries_;
          uint64_t rseq = owner_->tm_decision_client(shard_)->Submit(
              "SETNX " + DecisionKey(tx_id) + " A");
          decision_seq_tx_[rseq] = tx_id;
        });
    return;
  }
  if (tx.phase == Phase::kCommitting && --tx.writes_outstanding == 0) {
    Finish(tx_id, true);
  }
}

void TxManager::EvaluateReads(uint64_t tx_id) {
  Tx& tx = txs_.at(tx_id);
  // A read bounced off the KV's routing fence: this TM's table was
  // stale in a way the prepare-time check could not see (e.g. a
  // restart dropped its adopted tables). Refuse; the retry re-routes.
  for (const auto& [key, value] : tx.read_values) {
    if (value.rfind("MOVED ", 0) == 0) {
      Refuse(tx_id, TxAbortReason::kMoved);
      return;
    }
  }
  // Evaluate ops in list order against the stored values, overlaying
  // this transaction's own earlier writes (read-your-writes). The
  // overlay never touches the KV: effects apply only on commit.
  std::map<std::string, std::optional<std::string>> overlay;
  auto current = [&](const std::string& key) -> std::optional<std::string> {
    auto ov = overlay.find(key);
    if (ov != overlay.end()) return ov->second;
    auto rv = tx.read_values.find(key);
    if (rv == tx.read_values.end() || rv->second == "NIL") return std::nullopt;
    return rv->second;
  };
  for (const TxShardOp& sop : tx.ops) {
    const TxOp& op = sop.op;
    switch (op.type) {
      case TxOp::Type::kGet: {
        std::optional<std::string> v = current(op.key);
        TxReadResult r;
        r.op_index = sop.index;
        r.found = v.has_value();
        if (v.has_value()) r.value = *v;
        tx.reads.push_back(r);
        break;
      }
      case TxOp::Type::kPut:
        overlay[op.key] = op.value;
        tx.effects.push_back("PUT " + op.key + " " + op.value);
        break;
      case TxOp::Type::kDelete:
        overlay[op.key] = std::nullopt;
        tx.effects.push_back("DEL " + op.key);
        break;
      case TxOp::Type::kCas: {
        std::optional<std::string> v = current(op.key);
        if (!v.has_value() || *v != op.expected) {
          Refuse(tx_id, TxAbortReason::kCasMismatch);
          return;
        }
        // Validated under the exclusive lock, which is held until the
        // decision applies — nothing else can write the key in between,
        // so the commit-time effect is a plain PUT.
        overlay[op.key] = op.value;
        tx.effects.push_back("PUT " + op.key + " " + op.value);
        break;
      }
    }
  }
  Proceed(tx_id);
}

void TxManager::Proceed(uint64_t tx_id) {
  Tx& tx = txs_.at(tx_id);
  if (tx.one_phase) {
    // Sole participant: skip the prepare record and the decision key,
    // apply directly (the shard group's log is the only authority).
    tx.phase = Phase::kCommitting;
    tx.writes_outstanding = static_cast<int>(tx.effects.size());
    for (const std::string& cmd : tx.effects) {
      uint64_t seq = owner_->shard_client(shard_)->Submit(cmd);
      shard_seq_tx_[seq] = tx_id;
    }
    if (tx.writes_outstanding == 0) Finish(tx_id, true);
    return;
  }
  // Durable prepare: the vote only goes out once the prepare record is
  // committed in the shard's replicated log.
  uint64_t seq =
      owner_->shard_client(shard_)->Submit("PUT " + PrepareKey(tx_id) + " P");
  shard_seq_tx_[seq] = tx_id;
}

void TxManager::Refuse(uint64_t tx_id, TxAbortReason reason) {
  auto it = txs_.find(tx_id);
  if (it == txs_.end()) return;
  Vote(tx_id, it->second, false, reason);
  ReleaseLocks(tx_id);
  txs_.erase(it);
  NoteTxGone(tx_id);
}

void TxManager::OnDecisionResult(uint64_t seq, const std::string& result) {
  if (crashed()) return;
  auto seq_it = decision_seq_tx_.find(seq);
  if (seq_it == decision_seq_tx_.end()) return;
  uint64_t tx_id = seq_it->second;
  decision_seq_tx_.erase(seq_it);
  auto it = txs_.find(tx_id);
  if (it == txs_.end() || it->second.phase != Phase::kRecovering) return;
  // "OK" = our abort proposal won; otherwise the established decision.
  ApplyDecision(tx_id, result == "C");
}

void TxManager::ApplyDecision(uint64_t tx_id, bool commit) {
  auto it = txs_.find(tx_id);
  if (it == txs_.end()) {
    // Already finished (or never prepared): ack so the coordinator can
    // garbage-collect.
    auto ack = std::make_shared<TmAckMsg>();
    ack->tx_id = tx_id;
    ack->shard = shard_;
    Send(owner_->coordinator_id(), ack);
    return;
  }
  Tx& tx = it->second;
  if (tx.phase == Phase::kCommitting) return;  // Duplicate decision.
  CancelTimer(tx.recovery_timer);
  if (!commit) {
    Finish(tx_id, false);
    return;
  }
  tx.phase = Phase::kCommitting;
  tx.writes_outstanding = static_cast<int>(tx.effects.size());
  for (const std::string& cmd : tx.effects) {
    uint64_t seq = owner_->shard_client(shard_)->Submit(cmd);
    shard_seq_tx_[seq] = tx_id;
  }
  if (tx.writes_outstanding == 0) Finish(tx_id, true);
}

void TxManager::ReleaseLocks(uint64_t tx_id) {
  for (auto it = lock_table_.begin(); it != lock_table_.end();) {
    LockEntry& l = it->second;
    if (l.exclusive == tx_id) l.exclusive = 0;
    l.shared.erase(tx_id);
    it = (l.exclusive == 0 && l.shared.empty()) ? lock_table_.erase(it)
                                                : std::next(it);
  }
}

void TxManager::Finish(uint64_t tx_id, bool committed) {
  Tx& tx = txs_.at(tx_id);
  if (tx.one_phase) {
    // For one-phase transactions the vote doubles as the outcome.
    Vote(tx_id, tx, committed);
  } else {
    auto ack = std::make_shared<TmAckMsg>();
    ack->tx_id = tx_id;
    ack->shard = shard_;
    Send(tx.coordinator, ack);
  }
  ReleaseLocks(tx_id);
  txs_.erase(tx_id);
  NoteTxGone(tx_id);
}

// ---------------------------------------------------------------------------
// TxCoordinator
// ---------------------------------------------------------------------------

TxCoordinator::TxCoordinator(ShardedStateMachine* owner)
    : owner_(owner), table_(owner->InitialTable()) {}

void TxCoordinator::OnRestart() {
  // Everything here is volatile BY DESIGN: the decision group is the
  // only durable commit state. Clients re-submit; every step downstream
  // is idempotent. The routing cache resets to epoch 1 too — post-move
  // prepares routed by the stale table bounce off the TMs' redirects
  // and re-teach it.
  txs_.clear();
  decision_seq_tx_.clear();
  snapshot_seq_.clear();
  rt_seq_epoch_.clear();
  rt_epochs_inflight_.clear();
  parked_snapshots_.clear();
  table_ = owner_->InitialTable();
}

void TxCoordinator::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const BeginTxMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it != txs_.end()) {
      it->second.client = from;
      if (it->second.decided) {
        auto out = std::make_shared<TxOutcomeMsg>(m->tx_id, it->second.commit);
        out->reason = it->second.reason;
        out->reads = it->second.reads;
        Send(from, out);
      }
      return;  // In flight: the outcome will be sent when decided.
    }
    ++started_;
    Tx& tx = txs_[m->tx_id];
    tx.client = from;
    tx.ops = m->ops;
    // All-GET transactions take the lock-free snapshot path: no
    // participant, no lock, no prepare or decision record.
    bool all_reads = !m->ops.empty();
    for (const TxOp& op : m->ops) {
      if (op.type != TxOp::Type::kGet) all_reads = false;
    }
    if (all_reads) {
      tx.snapshot = true;
      StartSnapshot(m->tx_id);
      return;
    }
    bool has_cas = false;
    for (int i = 0; i < static_cast<int>(m->ops.size()); ++i) {
      has_cas = has_cas || m->ops[i].type == TxOp::Type::kCas;
      tx.by_shard[table_.GroupForKey(m->ops[i].key)].push_back(
          TxShardOp{i, m->ops[i]});
    }
    // One-phase is only sound for transactions whose re-execution cannot
    // flip the verdict: a re-submitted, already-committed CAS re-evaluates
    // against post-commit state (its own write included), mismatches, and
    // would report a false ABORT for an applied transaction. CAS therefore
    // always takes the decision-record path — the established "C" record
    // makes any re-run converge on the committed outcome.
    tx.one_phase = tx.by_shard.size() == 1 && !has_cas;
    for (const auto& [shard, ops] : tx.by_shard) {
      auto prep = std::make_shared<TmPrepareMsg>();
      prep->tx_id = m->tx_id;
      prep->one_phase = tx.one_phase;
      prep->ops = ops;
      Send(owner_->tm_id(shard), prep);
    }
    if (!tx.one_phase) {
      uint64_t tx_id = m->tx_id;
      tx.vote_timer = SetTimer(kVoteTimeout, [this, tx_id] {
        auto late = txs_.find(tx_id);
        if (late == txs_.end() || late->second.decided ||
            late->second.decision_pending) {
          return;
        }
        // A missing vote is a NO (presumed abort).
        Decide(tx_id, false, TxAbortReason::kDecisionTimeout);
      });
    }
    return;
  }

  if (const auto* m = dynamic_cast<const TmVoteMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;  // Forgotten (restart): client re-submits.
    Tx& tx = it->second;
    if (tx.decided || tx.decision_pending) return;
    if (tx.one_phase) {
      // The sole participant already applied (or refused) the
      // transaction; its vote IS the outcome.
      tx.decided = true;
      tx.commit = m->yes;
      tx.reason = m->reason;
      tx.reads = m->reads;
      (m->yes ? committed_ : aborted_)++;
      auto out = std::make_shared<TxOutcomeMsg>(m->tx_id, m->yes);
      out->reason = m->reason;
      out->reads = m->reads;
      Send(tx.client, out);
      txs_.erase(it);
      return;
    }
    if (!m->yes) {
      Decide(m->tx_id, false, m->reason);
      return;
    }
    if (tx.yes_votes.insert(m->shard).second) {
      // First YES from this shard: merge its read results (a re-vote
      // after a duplicate prepare must not double them).
      for (const TxReadResult& r : m->reads) tx.reads.push_back(r);
    }
    if (tx.yes_votes.size() == tx.by_shard.size()) {
      Decide(m->tx_id, true, TxAbortReason::kNone);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const TmAckMsg*>(&msg)) {
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    it->second.acked.insert(m->shard);
    FinishIfAcked(m->tx_id);
    return;
  }

  if (const auto* m = dynamic_cast<const TmRedirectMsg*>(&msg)) {
    // A TM refused a key we routed to it: adopt its (newer) table, then
    // abort the transaction — never split it across routing epochs. The
    // client's retry re-splits against the adopted table.
    table_.MaybeAdopt(m->table);
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    Tx& tx = it->second;
    if (tx.decided || tx.decision_pending) return;
    ++redirected_;
    if (tx.one_phase) {
      // The sole TM refused before recording anything: no prepare, no
      // locks, no decision record needed. Answer abort directly.
      if (tx.vote_timer != 0) CancelTimer(tx.vote_timer);
      tx.decided = true;
      tx.commit = false;
      tx.reason = TxAbortReason::kMoved;
      ++aborted_;
      auto out = std::make_shared<TxOutcomeMsg>(m->tx_id, false);
      out->reason = TxAbortReason::kMoved;
      Send(tx.client, out);
      txs_.erase(it);
      return;
    }
    Decide(m->tx_id, false, TxAbortReason::kMoved);
    return;
  }
  (void)from;
}

void TxCoordinator::Decide(uint64_t tx_id, bool commit, TxAbortReason reason) {
  Tx& tx = txs_.at(tx_id);
  CancelTimer(tx.vote_timer);
  tx.decision_pending = true;
  tx.commit = commit;
  tx.reason = reason;
  // The decision is a write-once record in the DECISION GROUP's log —
  // this is the "commit decision as consensus log entry" core of the
  // design. SETNX: first proposal wins, later proposals read it back.
  uint64_t seq = owner_->coord_decision_client()->Submit(
      "SETNX " + DecisionKey(tx_id) + (commit ? " C" : " A"));
  decision_seq_tx_[seq] = tx_id;
}

void TxCoordinator::OnDecisionResult(uint64_t seq, const std::string& result) {
  if (crashed()) return;
  auto rt_it = rt_seq_epoch_.find(seq);
  if (rt_it != rt_seq_epoch_.end()) {
    // A routing-table fetch for the snapshot path came back.
    uint64_t epoch = rt_it->second;
    rt_seq_epoch_.erase(rt_it);
    rt_epochs_inflight_.erase(epoch);
    std::optional<RoutingTable> t =
        RoutingTable::Decode(result, owner_->total_groups());
    if (t.has_value()) {
      table_.MaybeAdopt(*t);
      RestartParkedSnapshots();
      return;
    }
    if (parked_snapshots_.empty()) return;
    // The record was not readable yet (e.g. a laggard served NIL):
    // re-fetch after a beat — unless a redirect taught us a newer table
    // in the meantime, in which case the parked snapshots can just run.
    SetTimer(300 * sim::kMillisecond, [this, epoch] {
      if (parked_snapshots_.empty()) return;
      if (table_.epoch() >= epoch) {
        RestartParkedSnapshots();
      } else {
        FetchTable(epoch);
      }
    });
    return;
  }
  auto seq_it = decision_seq_tx_.find(seq);
  if (seq_it == decision_seq_tx_.end()) return;
  uint64_t tx_id = seq_it->second;
  decision_seq_tx_.erase(seq_it);
  auto it = txs_.find(tx_id);
  if (it == txs_.end()) return;
  Tx& tx = it->second;
  // "OK": our proposal was first. Anything else is the decision some
  // earlier proposer (us pre-restart, or a recovering TM) established.
  bool commit = result == "OK" ? tx.commit : result == "C";
  if (result != "OK" && commit != tx.commit) {
    // An earlier proposer's decision overrode ours; our reason is
    // fiction now. A foreign ABORT can only come from a recovering TM.
    tx.reason = commit ? TxAbortReason::kNone : TxAbortReason::kDecisionTimeout;
  }
  tx.commit = commit;
  tx.decided = true;
  tx.decision_pending = false;
  (commit ? committed_ : aborted_)++;
  for (const auto& [shard, ops] : tx.by_shard) {
    auto decision = std::make_shared<TmDecisionMsg>();
    decision->tx_id = tx_id;
    decision->commit = commit;
    Send(owner_->tm_id(shard), decision);
  }
  auto out = std::make_shared<TxOutcomeMsg>(tx_id, commit);
  if (commit && result != "OK") {
    // The decision record pre-existed (a re-run of a transaction some
    // earlier incarnation already committed). This attempt's reads were
    // re-evaluated against POST-commit state — including the
    // transaction's own writes — so they are not the committed reads.
    // Drop them; the outcome still reports the commit.
    tx.reads.clear();
  }
  if (commit) {
    std::sort(tx.reads.begin(), tx.reads.end(),
              [](const TxReadResult& a, const TxReadResult& b) {
                return a.op_index < b.op_index;
              });
    out->reads = tx.reads;
  } else {
    tx.reads.clear();  // Abort: no reads were decided.
    out->reason = tx.reason;
  }
  Send(tx.client, out);
}

void TxCoordinator::FinishIfAcked(uint64_t tx_id) {
  auto it = txs_.find(tx_id);
  if (it == txs_.end() || !it->second.decided) return;
  if (it->second.acked.size() < it->second.by_shard.size()) return;
  txs_.erase(it);
}

// --- Snapshot path -----------------------------------------------------

void TxCoordinator::StartSnapshot(uint64_t tx_id) {
  Tx& tx = txs_.at(tx_id);
  // Invalidate any reads of a previous attempt: their results must not
  // mix with the new epoch's (that mix is exactly a torn snapshot).
  for (auto it = snapshot_seq_.begin(); it != snapshot_seq_.end();) {
    it = it->second.first == tx_id ? snapshot_seq_.erase(it) : std::next(it);
  }
  parked_snapshots_.erase(tx_id);
  tx.reads.clear();
  tx.snapshot_epoch = table_.epoch();
  tx.reads_outstanding = static_cast<int>(tx.ops.size());
  for (int i = 0; i < static_cast<int>(tx.ops.size()); ++i) {
    int group = table_.GroupForKey(tx.ops[i].key);
    uint64_t seq = owner_->snapshot_client(group)->Read(tx.ops[i].key);
    snapshot_seq_[{group, seq}] = {tx_id, i};
  }
}

void TxCoordinator::OnSnapshotResult(int group, uint64_t seq,
                                     const std::string& result) {
  if (crashed()) return;
  auto it = snapshot_seq_.find({group, seq});
  if (it == snapshot_seq_.end()) return;  // Stale attempt or restarted tx.
  auto [tx_id, op_index] = it->second;
  snapshot_seq_.erase(it);
  auto tx_it = txs_.find(tx_id);
  if (tx_it == txs_.end()) return;
  Tx& tx = tx_it->second;
  if (result.rfind("MOVED ", 0) == 0) {
    OnSnapshotMoved(tx_id, std::strtoull(result.c_str() + 6, nullptr, 10));
    return;
  }
  TxReadResult r;
  r.op_index = op_index;
  r.found = result != "NIL";
  if (r.found) r.value = result;
  tx.reads.push_back(r);
  if (--tx.reads_outstanding == 0) FinishSnapshot(tx_id);
}

void TxCoordinator::OnSnapshotMoved(uint64_t tx_id, uint64_t epoch) {
  auto it = txs_.find(tx_id);
  if (it == txs_.end()) return;
  ++snapshot_restarts_;
  if (table_.epoch() >= epoch) {
    // A redirect (or an earlier fetch) already taught us a table at
    // least as new as the fence: re-split and re-read immediately.
    StartSnapshot(tx_id);
    return;
  }
  parked_snapshots_.insert(tx_id);
  FetchTable(epoch);
}

void TxCoordinator::FetchTable(uint64_t epoch) {
  if (epoch <= table_.epoch()) return;
  if (!rt_epochs_inflight_.insert(epoch).second) return;
  uint64_t seq = owner_->coord_decision_client()->Read(
      "__rt." + std::to_string(epoch));
  rt_seq_epoch_[seq] = epoch;
}

void TxCoordinator::RestartParkedSnapshots() {
  std::set<uint64_t> parked;
  parked.swap(parked_snapshots_);
  for (uint64_t tx_id : parked) {
    if (txs_.count(tx_id) > 0) StartSnapshot(tx_id);
  }
}

void TxCoordinator::FinishSnapshot(uint64_t tx_id) {
  Tx& tx = txs_.at(tx_id);
  std::sort(tx.reads.begin(), tx.reads.end(),
            [](const TxReadResult& a, const TxReadResult& b) {
              return a.op_index < b.op_index;
            });
  ++snapshots_;
  auto out = std::make_shared<TxOutcomeMsg>(tx_id, true);
  out->reads = tx.reads;
  out->snapshot_epoch = tx.snapshot_epoch;
  Send(tx.client, out);
  // Forget the tx outright: a re-submitted snapshot simply runs again
  // (read-only, so re-running is harmless).
  txs_.erase(tx_id);
}

// ---------------------------------------------------------------------------
// ShardedStateMachine
// ---------------------------------------------------------------------------

ShardedStateMachine::ShardedStateMachine(ShardOptions options)
    : options_(options),
      initial_table_(RoutingTable::Initial(options.shards)) {
  assert(options_.shards >= 1);
  assert(options_.spare_groups >= 0);
}

ShardedStateMachine::~ShardedStateMachine() = default;

uint64_t ShardedStateMachine::HashKey(const std::string& key) {
  // FNV-1a: deterministic across platforms/compilers (std::hash is not).
  return smr::KeyHash(key);
}

int ShardedStateMachine::ShardOf(const std::string& key) const {
  return initial_table_.GroupFor(HashKey(key));
}

sim::NodeId ShardedStateMachine::mover_id() const { return mover_->id(); }

std::string ShardedStateMachine::KeyForShard(int shard, int i) const {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "k" + std::to_string(n);
    if (ShardOf(key) == shard && found++ == i) return key;
  }
}

void ShardedStateMachine::Build(sim::Simulation* sim) {
  sim_ = sim;  // Kept for the lazily spawned snapshot readers.
  // Consensus nodes first, at a contiguous id range starting wherever
  // the simulation currently ends — fault bounds target this range.
  consensus::GroupTuning tuning;
  tuning.batch_size = options_.batch_size;
  tuning.batch_delay = options_.batch_delay;
  tuning.snapshot_threshold = options_.snapshot_threshold;
  for (int s = 0; s < total_groups(); ++s) {
    auto group = consensus::MakeGroup(options_.protocol);
    assert(group != nullptr && "unknown ReplicaGroup protocol");
    group->Configure(tuning);
    group->Create(sim, options_.replicas_per_shard);
    shard_groups_.push_back(std::move(group));
  }
  decision_group_ = consensus::MakeGroup(options_.protocol);
  assert(decision_group_ != nullptr);
  decision_group_->Configure(tuning);
  decision_group_->Create(sim, options_.decision_replicas);

  // Infrastructure processes, after every consensus node. Spare groups
  // get the same TM + clients as serving groups: they own ranges as
  // soon as a move flips to them.
  for (int s = 0; s < total_groups(); ++s) {
    tms_.push_back(sim->Spawn<TxManager>(this, s));
  }
  const sim::Duration client_retry = 300 * sim::kMillisecond;
  for (int s = 0; s < total_groups(); ++s) {
    consensus::GroupClient* client = sim->Spawn<consensus::GroupClient>(
        shard_groups_[s].get(), client_retry, options_.client_window);
    TxManager* tm = tms_[s];
    client->SetCallback(
        [tm](uint64_t seq, const std::string& result, bool read) {
          tm->OnShardResult(seq, result, read);
        });
    shard_clients_.push_back(client);
  }
  for (int s = 0; s < total_groups(); ++s) {
    consensus::GroupClient* client = sim->Spawn<consensus::GroupClient>(
        decision_group_.get(), client_retry, options_.client_window);
    TxManager* tm = tms_[s];
    client->SetCallback(
        [tm](uint64_t seq, const std::string& result, bool /*read*/) {
          tm->OnDecisionResult(seq, result);
        });
    tm_decision_clients_.push_back(client);
  }
  coordinator_ = sim->Spawn<TxCoordinator>(this);
  coord_decision_client_ = sim->Spawn<consensus::GroupClient>(
      decision_group_.get(), client_retry, options_.client_window);
  TxCoordinator* coordinator = coordinator_;
  coord_decision_client_->SetCallback(
      [coordinator](uint64_t seq, const std::string& result, bool /*read*/) {
        coordinator->OnDecisionResult(seq, result);
      });

  // The move coordinator, last — after the 2PC coordinator, so the
  // pre-resharding node-id layout (and the checker bounds pinned to it)
  // is unchanged. Its clients use window 1: the move ladder is strictly
  // sequential and relies on submission order.
  mover_ = sim->Spawn<ShardMover>(this);
  ShardMover* mover = mover_;
  for (int s = 0; s < total_groups(); ++s) {
    consensus::GroupClient* client = sim->Spawn<consensus::GroupClient>(
        shard_groups_[s].get(), client_retry, 1);
    int group = s;
    client->SetCallback(
        [mover, group](uint64_t seq, const std::string& result, bool) {
          mover->OnGroupResult(group, seq, result);
        });
    mover_group_clients_.push_back(client);
  }
  mover_decision_client_ = sim->Spawn<consensus::GroupClient>(
      decision_group_.get(), client_retry, 1);
  mover_decision_client_->SetCallback(
      [mover](uint64_t seq, const std::string& result, bool) {
        mover->OnDecisionResult(seq, result);
      });
}

consensus::GroupClient* ShardedStateMachine::snapshot_client(int group) {
  // Lazy spawn, first snapshot read only: Spawn forks the root rng and
  // shifts every subsequent delay draw, so eagerly spawning readers in
  // Build would perturb ALL runs — including ones that never issue a
  // read-only transaction — and break pinned fault-schedule repros.
  // GroupClient has no OnStart, so a mid-run spawn needs no start call.
  if (snapshot_clients_.empty()) {
    snapshot_clients_.resize(static_cast<size_t>(total_groups()), nullptr);
  }
  if (snapshot_clients_[group] == nullptr) {
    consensus::GroupClient* client = sim_->Spawn<consensus::GroupClient>(
        shard_groups_[group].get(), 300 * sim::kMillisecond,
        options_.client_window);
    TxCoordinator* coordinator = coordinator_;
    client->SetCallback(
        [coordinator, group](uint64_t seq, const std::string& result, bool) {
          coordinator->OnSnapshotResult(group, seq, result);
        });
    snapshot_clients_[group] = client;
  }
  return snapshot_clients_[group];
}

void ShardedStateMachine::Probe() {
  for (const auto& group : shard_groups_) group->Probe();
  if (decision_group_ != nullptr) decision_group_->Probe();
}

std::vector<std::string> ShardedStateMachine::Violations() const {
  std::vector<std::string> all;
  for (int s = 0; s < static_cast<int>(shard_groups_.size()); ++s) {
    for (const std::string& v : shard_groups_[s]->Violations()) {
      all.push_back("shard " + std::to_string(s) + ": " + v);
    }
  }
  if (decision_group_ != nullptr) {
    for (const std::string& v : decision_group_->Violations()) {
      all.push_back("decision group: " + v);
    }
  }
  return all;
}

}  // namespace consensus40::shard
