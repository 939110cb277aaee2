#include "shard/reshard.h"

#include <cstdlib>

#include "shard/shard.h"

namespace consensus40::shard {

namespace {

std::string HexU64(uint64_t v) {
  if (v == 0) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  while (v != 0) {
    out.insert(out.begin(), kDigits[v & 0xf]);
    v >>= 4;
  }
  return out;
}

/// How often the mover re-sends an unacked TM message (and a frozen TM
/// re-nudges a silent mover). Plain retransmission: every step is
/// idempotent on both sides.
constexpr sim::Duration kResendPeriod = 300 * sim::kMillisecond;

}  // namespace

const char kActiveMoveKey[] = "__mv.active";

std::string MoveId(uint64_t epoch, uint64_t lo, uint64_t hi) {
  return "e" + std::to_string(epoch) + "." + HexU64(lo) + "-" + HexU64(hi);
}

bool ParseMoveId(const std::string& id, uint64_t* epoch, uint64_t* lo,
                 uint64_t* hi) {
  if (id.empty() || id[0] != 'e') return false;
  size_t dot = id.find('.');
  size_t dash = id.find('-', dot == std::string::npos ? 0 : dot);
  if (dot == std::string::npos || dash == std::string::npos) return false;
  char* end = nullptr;
  *epoch = std::strtoull(id.c_str() + 1, &end, 10);
  if (end != id.c_str() + dot) return false;
  *lo = std::strtoull(id.c_str() + dot + 1, &end, 16);
  if (end != id.c_str() + dash) return false;
  *hi = std::strtoull(id.c_str() + dash + 1, &end, 16);
  return end == id.c_str() + id.size();
}

std::string MoveClaimKey(const std::string& move_id) {
  return "__mv." + move_id;
}

std::string MovePhaseKey(const std::string& move_id, const char* phase) {
  return "__mvp." + move_id + "." + phase;
}

ShardMover::ShardMover(ShardedStateMachine* owner)
    : owner_(owner), table_(owner->InitialTable()) {
  base_ = table_;
  new_table_ = table_;
}

void ShardMover::OnRestart() {
  // Fully volatile by design: forget the in-flight move and every
  // pending completion (stale client callbacks no longer match the
  // await seqs). Recovery is data-driven — the active-move hint in the
  // decision group, or a nudge from the frozen TM, restarts the ladder.
  step_ = Step::kIdle;
  sub_ = 0;
  max_step_ = 0;
  drained_ = false;
  resuming_ = false;
  reject_at_flip_ = false;
  decision_waiting_ = false;
  await_group_ = -1;
  resend_timer_ = 0;
  queue_.clear();
  table_ = owner_->InitialTable();
  // Ask the decision group whether a move was in progress. GET of an
  // internal "__" key is never fenced.
  sub_ = -1;  // Marks the recovery probe (handled in OnDecisionResult).
  AwaitDecision(std::string("GET ") + kActiveMoveKey);
}

bool ShardMover::StartMove(const MoveSpec& spec) {
  if (crashed()) return false;
  if (step_ != Step::kIdle) {
    queue_.push_back(spec);
    return true;
  }
  int owner = -1;
  if (spec.to < 0 || spec.to >= owner_->total_groups() ||
      !table_.SoleOwner(spec.lo, spec.hi, &owner) || owner == spec.to) {
    ++moves_rejected_;
    rejections_.push_back("invalid move spec");
    return false;
  }
  Begin(spec);
  return true;
}

void ShardMover::Begin(const MoveSpec& spec) {
  spec_ = spec;
  base_ = table_;
  int owner = -1;
  base_.SoleOwner(spec.lo, spec.hi, &owner);
  from_ = owner;
  move_id_ = MoveId(base_.epoch(), spec.lo, spec.hi);
  drained_ = false;
  resuming_ = false;
  reject_at_flip_ = false;
  max_step_ = 0;
  Enter(Step::kClaim);
  sub_ = 0;
  AwaitDecision("SETNX " + MoveClaimKey(move_id_) + " " +
                std::to_string(from_) + "," + std::to_string(spec_.to));
}

void ShardMover::Resume(const std::string& move_id) {
  if (step_ != Step::kIdle) return;  // Already driving a move.
  uint64_t epoch = 0, lo = 0, hi = 0;
  if (!ParseMoveId(move_id, &epoch, &lo, &hi)) return;
  move_id_ = move_id;
  spec_.lo = lo;
  spec_.hi = hi;
  drained_ = false;
  resuming_ = true;
  reject_at_flip_ = false;
  max_step_ = 0;
  Enter(Step::kClaim);
  if (epoch == 1) {
    base_ = owner_->InitialTable();
    sub_ = 2;  // Base known; read the claim next.
    AwaitDecision("GET " + MoveClaimKey(move_id_));
  } else {
    sub_ = 1;  // Fetch the base table for the claimed epoch first.
    AwaitDecision("GET " + RoutingTable::RtKey(epoch));
  }
}

void ShardMover::Enter(Step step) {
  step_ = step;
  sub_ = 0;
  if (static_cast<int>(step) > max_step_) max_step_ = static_cast<int>(step);
  if (resend_timer_ != 0) {
    CancelTimer(resend_timer_);
    resend_timer_ = 0;
  }
}

void ShardMover::AwaitDecision(const std::string& op) {
  decision_waiting_ = true;
  await_decision_seq_ = owner_->mover_decision_client()->Submit(op);
}

void ShardMover::AwaitGroup(int group, const std::string& op) {
  await_group_ = group;
  await_group_seq_ = owner_->mover_group_client(group)->Submit(op);
}

void ShardMover::SendStepMsg() {
  if (step_ == Step::kFreeze || step_ == Step::kDrain) {
    auto m = std::make_shared<MoveFreezeMsg>();
    m->move_id = move_id_;
    m->lo = spec_.lo;
    m->hi = spec_.hi;
    Send(owner_->tm_id(from_), m);
  } else if (step_ == Step::kInstallTm) {
    auto m = std::make_shared<MoveInstallMsg>();
    m->move_id = move_id_;
    m->table = new_table_;
    Send(owner_->tm_id(spec_.to), m);
  } else if (step_ == Step::kUnfreeze) {
    auto m = std::make_shared<MoveUnfreezeMsg>();
    m->move_id = move_id_;
    m->table = new_table_;
    Send(owner_->tm_id(from_), m);
    if (reject_at_flip_) {
      // Stand-down: the flip lost the SETNX race, so new_table_ is the
      // ESTABLISHED table at our epoch — force-feed it to the
      // destination TM, which adopted our losing table pre-flip and
      // would otherwise keep accepting writes for a range the
      // authoritative table assigns elsewhere.
      auto fix = std::make_shared<MoveInstallMsg>();
      fix->move_id = move_id_;
      fix->table = new_table_;
      fix->force = true;
      Send(owner_->tm_id(spec_.to), fix);
    }
  }
}

void ShardMover::ArmResend() {
  resend_timer_ = SetTimer(kResendPeriod, [this] {
    resend_timer_ = 0;
    if (step_ == Step::kFreeze || step_ == Step::kDrain ||
        step_ == Step::kInstallTm || step_ == Step::kUnfreeze) {
      SendStepMsg();
      ArmResend();
    }
  });
}

void ShardMover::GoFreeze() {
  Enter(Step::kFreeze);
  SendStepMsg();
  ArmResend();
}

void ShardMover::GoCopy() {
  Enter(Step::kCopy);
  sub_ = 0;
  // One atomic log entry at the source: fence + exact range snapshot.
  // The advisory fence epoch points readers at the table the flip will
  // publish (a CAS-loop re-flip may land higher; they converge by
  // re-chasing).
  AwaitGroup(from_, "MIGRATE " + std::to_string(spec_.lo) + " " +
                        std::to_string(spec_.hi) + " " +
                        std::to_string(base_.epoch() + 1));
}

void ShardMover::GoInstallTm() {
  new_table_ = base_;
  new_table_.ApplyMove(spec_.lo, spec_.hi, spec_.to);
  Enter(Step::kInstallTm);
  SendStepMsg();
  ArmResend();
}

void ShardMover::GoFlip() {
  Enter(Step::kFlip);
  sub_ = 0;
  AwaitDecision("SETNX " + RoutingTable::RtKey(new_table_.epoch()) + " " +
                new_table_.Encode());
}

void ShardMover::GoUnfreeze() {
  Enter(Step::kUnfreeze);
  SendStepMsg();
  ArmResend();
}

void ShardMover::FinishMove(bool done) {
  table_.MaybeAdopt(new_table_);
  if (done) {
    ++moves_done_;
  } else {
    ++moves_rejected_;
  }
  Enter(Step::kIdle);
  if (!queue_.empty()) {
    MoveSpec next = queue_.front();
    queue_.pop_front();
    StartMove(next);
  }
}

void ShardMover::Reject(const std::string& why) {
  rejections_.push_back(why);
  ++moves_rejected_;
  Enter(Step::kIdle);
  if (!queue_.empty()) {
    MoveSpec next = queue_.front();
    queue_.pop_front();
    StartMove(next);
  }
}

void ShardMover::OnDecisionResult(uint64_t seq, const std::string& result) {
  if (crashed()) return;
  if (!decision_waiting_ || seq != await_decision_seq_) return;
  decision_waiting_ = false;

  if (sub_ == -1) {
    // Recovery probe of the active-move hint (post-restart).
    sub_ = 0;
    if (result != "NIL" && result != "-" && !result.empty()) Resume(result);
    return;
  }

  switch (step_) {
    case Step::kClaim:
      if (sub_ == 0) {
        // SETNX claim result: "OK" = ours; an equal record = co-driving
        // the same established move; anything else = a DIFFERENT move
        // already claimed this (epoch, range) — write-once rejection.
        std::string ours =
            std::to_string(from_) + "," + std::to_string(spec_.to);
        if (result != "OK" && result != ours) {
          Reject("move record exists: " + result);
          return;
        }
        sub_ = 3;
        AwaitDecision(std::string("PUT ") + kActiveMoveKey + " " + move_id_);
        return;
      }
      if (sub_ == 1) {
        // Resume: base table for the claimed epoch.
        std::optional<RoutingTable> t =
            RoutingTable::Decode(result, owner_->total_groups());
        if (!t.has_value()) {
          Reject("resume: missing base table");
          return;
        }
        base_ = *t;
        table_.MaybeAdopt(*t);
        sub_ = 2;
        AwaitDecision("GET " + MoveClaimKey(move_id_));
        return;
      }
      if (sub_ == 2) {
        // Resume: the claim record holds "<from>,<to>".
        size_t comma = result.find(',');
        if (comma == std::string::npos) {
          // No claim: the nudge (or hint) outlived the move. Nothing to
          // recover.
          Enter(Step::kIdle);
          return;
        }
        from_ = std::atoi(result.substr(0, comma).c_str());
        spec_.to = std::atoi(result.substr(comma + 1).c_str());
        sub_ = 3;
        AwaitDecision(std::string("PUT ") + kActiveMoveKey + " " + move_id_);
        return;
      }
      // sub_ == 3: active-move hint written; check for a completed flip
      // (recovery skip-ahead: post-flip the destination may already be
      // live, so the copy MUST NOT re-run).
      Enter(Step::kCheckFlipped);
      AwaitDecision("GET " + MovePhaseKey(move_id_, "flipped"));
      return;

    case Step::kCheckFlipped: {
      std::optional<RoutingTable> t =
          RoutingTable::Decode(result, owner_->total_groups());
      if (t.has_value()) {
        new_table_ = *t;
        GoUnfreeze();
        return;
      }
      if (owner_->options().unsafe_flip_before_drain) {
        // OUT-OF-BOUNDS mode for the checker: skip freeze AND drain, so
        // the routing epoch flips while transactions are still landing
        // writes at the old owner — the lost-write bug the safe
        // protocol's drain exists to prevent.
        GoCopy();
        return;
      }
      GoFreeze();
      return;
    }

    case Step::kFreeze:
      // Marker write ("frozen") completed.
      if (drained_) {
        Enter(Step::kDrain);
        sub_ = 1;
        AwaitDecision("SETNX " + MovePhaseKey(move_id_, "drained") + " 1");
      } else {
        Enter(Step::kDrain);
        SendStepMsg();  // Keep the freeze fresh; ack carries drain state.
        ArmResend();
      }
      return;

    case Step::kDrain:
      // Marker write ("drained") completed.
      GoCopy();
      return;

    case Step::kFlip:
      if (sub_ == 0) {
        std::string enc = new_table_.Encode();
        if (result == "OK" || result == enc) {
          sub_ = 1;
          AwaitDecision("SETNX " + MovePhaseKey(move_id_, "flipped") + " " +
                        enc);
          return;
        }
        // Epoch collision: someone published this epoch first. Re-base
        // and retry — the single-mover design makes this a stale-base
        // case (e.g. a restarted mover claiming against an old table).
        std::optional<RoutingTable> t =
            RoutingTable::Decode(result, owner_->total_groups());
        if (!t.has_value()) {
          Reject("flip: unparseable table at epoch");
          return;
        }
        int owner = -1;
        if (t->SoleOwner(spec_.lo, spec_.hi, &owner) && owner == spec_.to) {
          // The established table already contains our assignment.
          new_table_ = *t;
          sub_ = 1;
          AwaitDecision("SETNX " + MovePhaseKey(move_id_, "flipped") + " " +
                        t->Encode());
          return;
        }
        if (t->SoleOwner(spec_.lo, spec_.hi, &owner) && owner == from_) {
          base_ = *t;
          GoInstallTm();  // Recompute on the newer base and re-flip.
          return;
        }
        // The range's ownership changed under us: stand down and thaw.
        reject_at_flip_ = true;
        new_table_ = *t;
        GoUnfreeze();
        return;
      }
      // sub_ == 1: flip marker written.
      GoUnfreeze();
      return;

    case Step::kUnfreeze:
      if (sub_ == 1) {
        // Active-move hint cleared; write the final done marker.
        sub_ = 2;
        AwaitDecision("SETNX " + MovePhaseKey(move_id_, "done") + " 1");
        return;
      }
      if (sub_ == 2) {
        FinishMove(!reject_at_flip_);
        return;
      }
      return;

    default:
      return;
  }
}

void ShardMover::OnGroupResult(int group, uint64_t seq,
                               const std::string& result) {
  if (crashed()) return;
  if (group != await_group_ || seq != await_group_seq_) return;
  await_group_ = -1;
  if (step_ != Step::kCopy) return;
  if (sub_ == 0) {
    // MIGRATE returned the range contents (possibly empty). INSTALL
    // carries the range and the same epoch the fence advertises, so the
    // destination's ownership record outranks any stale fence it kept
    // from an earlier move away (A->B->A).
    payload_ = result;
    sub_ = 1;
    AwaitGroup(spec_.to, "INSTALL " + std::to_string(spec_.lo) + " " +
                             std::to_string(spec_.hi) + " " +
                             std::to_string(base_.epoch() + 1) + " " +
                             payload_);
    return;
  }
  // INSTALL done at the destination.
  payload_.clear();
  GoInstallTm();
}

void ShardMover::OnMessage(sim::NodeId from, const sim::Message& msg) {
  (void)from;
  if (const auto* m = dynamic_cast<const MoveFreezeAckMsg*>(&msg)) {
    if (m->move_id != move_id_ || step_ != Step::kFreeze || sub_ != 0) return;
    drained_ = m->drained;
    sub_ = 1;
    // Record the frozen transition, then wait for (or skip) the drain.
    AwaitDecision("SETNX " + MovePhaseKey(move_id_, "frozen") + " 1");
    return;
  }
  if (const auto* m = dynamic_cast<const MoveDrainedMsg*>(&msg)) {
    if (m->move_id != move_id_) return;
    drained_ = true;
    if (step_ == Step::kDrain && sub_ == 0) {
      sub_ = 1;
      AwaitDecision("SETNX " + MovePhaseKey(move_id_, "drained") + " 1");
    }
    return;
  }
  if (const auto* m = dynamic_cast<const MoveInstallAckMsg*>(&msg)) {
    if (m->move_id != move_id_ || step_ != Step::kInstallTm) return;
    GoFlip();
    return;
  }
  if (const auto* m = dynamic_cast<const MoveUnfreezeAckMsg*>(&msg)) {
    if (m->move_id != move_id_ || step_ != Step::kUnfreeze || sub_ != 0)
      return;
    sub_ = 1;
    AwaitDecision(std::string("PUT ") + kActiveMoveKey + " -");
    return;
  }
  if (const auto* m = dynamic_cast<const MoveNudgeMsg*>(&msg)) {
    Resume(m->move_id);
    return;
  }
}

}  // namespace consensus40::shard
