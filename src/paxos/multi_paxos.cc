#include "paxos/multi_paxos.h"

#include <algorithm>
#include <cassert>

namespace consensus40::paxos {

namespace {

/// A slot of the leader's ballot still unchosen this long after its
/// accept went out gets the accept again, on the next heartbeat.
constexpr sim::Duration kStallTimeout = 60 * sim::kMillisecond;
/// At most this many stalled slots are repaired per heartbeat.
constexpr int kResendBudget = 8;

}  // namespace

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct MultiPaxosReplica::PrepareMsg : sim::Message {
  explicit PrepareMsg(Ballot b) : ballot(b) {}
  const char* TypeName() const override { return "prepare"; }
  int ByteSize() const override { return 24; }
  Ballot ballot;
};

struct MultiPaxosReplica::PromiseMsg : sim::Message {
  const char* TypeName() const override { return "promise"; }
  int ByteSize() const override {
    // Each carried slot ships its full accepted command (index + ballot
    // framing + payload), not a fixed stub — the bandwidth model divides
    // latency by these bytes, so under-counting would make recovery free.
    int size = 32;
    for (const auto& [index, entry] : accepted) {
      size += 32 + entry.second.ByteSize();
    }
    for (const auto& [index, entry] : chosen) size += 16 + entry.ByteSize();
    return size;
  }
  Ballot ballot;
  /// index -> (AcceptNum, AcceptVal) for every unchosen accepted slot.
  std::map<uint64_t, std::pair<Ballot, smr::Entry>> accepted;
  /// index -> value for every slot this replica knows is decided. A
  /// promiser that learned a decision no longer reports the slot as
  /// merely accepted, so without these a new leader that missed the
  /// decisions would see the slots as empty and propose fresh commands
  /// into them.
  std::map<uint64_t, smr::Entry> chosen;
};

struct MultiPaxosReplica::AcceptMsg : sim::Message {
  AcceptMsg(Ballot b, uint64_t i, smr::Entry e)
      : ballot(b), index(i), entry(std::move(e)) {}
  const char* TypeName() const override { return "accept"; }
  int ByteSize() const override { return 32 + entry.ByteSize(); }
  Ballot ballot;
  uint64_t index;
  smr::Entry entry;
};

struct MultiPaxosReplica::AcceptedMsg : sim::Message {
  AcceptedMsg(Ballot b, uint64_t i) : ballot(b), index(i) {}
  const char* TypeName() const override { return "accepted"; }
  int ByteSize() const override { return 32; }
  Ballot ballot;
  uint64_t index;
};

struct MultiPaxosReplica::CommitMsg : sim::Message {
  const char* TypeName() const override { return "commit"; }
  int ByteSize() const override {
    return 40 + (has_entry ? entry.ByteSize() + 8 : 0);
  }
  Ballot ballot;
  bool has_entry = false;  ///< False = pure heartbeat.
  uint64_t index = 0;
  smr::Entry entry;
  /// Leader's commit frontier: a follower that trails it asks to catch up.
  uint64_t frontier = 0;
};

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

MultiPaxosReplica::MultiPaxosReplica(MultiPaxosOptions options)
    : options_(options),
      pipeline_(
          {options.batch_size, options.batch_delay,
           options.checkpoint_interval},
          PipelineHooks<ReplyMsg>([this] { ProposeNext(); }),
          {"catchup-request", "catchup-reply", "snapshot"}) {
  if (options_.members.empty()) {
    assert(options_.n > 0);
    for (int i = 0; i < options_.n; ++i) options_.members.push_back(i);
  }
  int n = static_cast<int>(options_.members.size());
  q1_ = options_.q1 > 0 ? options_.q1 : n / 2 + 1;
  q2_ = options_.q2 > 0 ? options_.q2 : n / 2 + 1;
}

std::vector<sim::NodeId> MultiPaxosReplica::Everyone() const {
  return options_.members;
}

MultiPaxosReplica::SlotState& MultiPaxosReplica::Slot(uint64_t index) {
  return slots_[index];
}

void MultiPaxosReplica::OnStart() {
  if (id() == options_.members.front()) {
    // Bootstrap: node 0 volunteers; any later failure goes through the
    // regular timeout path.
    StartPhase1();
  } else {
    ResetLeaderTimer();
  }
}

void MultiPaxosReplica::ResetLeaderTimer() {
  CancelTimer(leader_timer_);
  sim::Duration t =
      options_.leader_timeout +
      static_cast<sim::Duration>(rng().NextBounded(options_.leader_timeout));
  leader_timer_ = SetTimer(t, [this] {
    if (!leader_active_) StartPhase1();
  });
}

void MultiPaxosReplica::StartPhase1() {
  my_ballot_ = Ballot::Successor(ballot_num_, id());
  phase1_pending_ = true;
  leader_active_ = false;
  promisers_.clear();
  recovered_.clear();
  recovered_chosen_.clear();
  ++phase1_rounds_;
  Multicast(Everyone(), std::make_shared<PrepareMsg>(my_ballot_));
  ResetLeaderTimer();  // Retry if this attempt stalls.
}

void MultiPaxosReplica::OnLeadershipAcquired() {
  phase1_pending_ = false;
  leader_active_ = true;
  CancelTimer(leader_timer_);

  // Learn the slots some promiser knows are decided before placing the
  // proposal cursor: re-proposing into them, or no-op filling them, could
  // overwrite a decided value.
  uint64_t max_idx = next_index_;
  for (const auto& [index, entry] : recovered_chosen_) {
    Chosen(index, entry);
    max_idx = std::max(max_idx, index + 1);
  }

  // Re-propose every value learned during phase 1 ("learn outcome of all
  // smaller ballots"): the value accepted in the highest ballot might have
  // been decided.
  for (const auto& [index, entry] : recovered_) {
    // Slots below our own truncation frontier are already applied (their
    // chosen value is baked into the checkpoint); re-proposing there
    // would recreate erased slot state and draw refusals.
    if (index < log_.start()) continue;
    if (!Slot(index).chosen) AcceptSlot(index, entry.second);
    if (index + 1 > max_idx) max_idx = index + 1;
  }
  next_index_ = std::max(next_index_, max_idx);
  next_index_ = std::max(next_index_, log_.commit_frontier());

  // Close every hole below the proposal cursor with a no-op (the classic
  // new-leader obligation): without this, a leader that recovered a high
  // accepted slot but not the slots beneath it can never advance its
  // commit frontier — and a laggard elected after the rest of the group
  // checkpoint-truncated would stall instead of drawing the snapshot
  // refusals that re-base it. Acceptors answer each no-op with an ack
  // (genuinely unchosen), the decided value (chosen elsewhere), or a
  // snapshot (truncated away), so one round settles the whole gap.
  for (uint64_t index = log_.commit_frontier(); index < next_index_; ++index) {
    if (recovered_.count(index) > 0) continue;  // Re-proposed above.
    if (Slot(index).chosen) continue;
    AcceptSlot(index, smr::Entry::Noop());
  }

  SendHeartbeat();  // Also self-reschedules while leader.

  if (!options_.skip_phase1_when_stable && slot_in_flight_ &&
      pipeline_.HasQueued()) {
    // Per-command phase-1 mode: this phase 1 was run for the head command;
    // now send its accept.
    uint64_t index = next_index_++;
    AcceptSlot(index, pipeline_.CutNext(index, /*single=*/true));
    return;
  }
  slot_in_flight_ = false;
  ProposeNext();
}

void MultiPaxosReplica::Deposed() {
  // Mirrors Raft's BecomeFollower: a higher ballot exists, so nothing we
  // queued will be proposed by us.
  leader_active_ = false;
  CancelTimer(heartbeat_timer_);
  pipeline_.Depose();
  slot_in_flight_ = false;
}

void MultiPaxosReplica::SendHeartbeat() {
  auto hb = std::make_shared<CommitMsg>();
  hb->ballot = my_ballot_;
  hb->frontier = log_.commit_frontier();
  Multicast(Everyone(), hb);
  if (leader_active_) {
    ResendStalledAccepts();
    CancelTimer(heartbeat_timer_);
    heartbeat_timer_ =
        SetTimer(options_.heartbeat_interval, [this] { SendHeartbeat(); });
  }
}

void MultiPaxosReplica::ProposeNext() {
  if (!leader_active_) return;
  if (options_.skip_phase1_when_stable) {
    // Steady state: cut the queue into slots (batch_size commands per
    // slot), pipelined.
    pipeline_.DisarmLinger();
    while (pipeline_.HasQueued()) {
      uint64_t index = next_index_++;
      AcceptSlot(index, pipeline_.CutNext(index));
    }
  } else {
    // Ablation: full Basic Paxos per entry — re-run phase 1 first; the
    // accept for the head command is sent from OnLeadershipAcquired.
    if (slot_in_flight_ || !pipeline_.HasQueued()) return;
    slot_in_flight_ = true;
    StartPhase1();
  }
}

void MultiPaxosReplica::AcceptSlot(uint64_t index, const smr::Entry& entry) {
  Slot(index).proposed_at = Now();
  Multicast(Everyone(), std::make_shared<AcceptMsg>(my_ballot_, index, entry));
}

// The accept of AcceptSlot goes out once, and the pipeline drops a
// client's retries of a command already in flight, so without this a
// lost accept leaves a hole at the commit frontier that nothing fills
// while the leader keeps its ballot. Crossword's stall repair, without
// the coding parts.
void MultiPaxosReplica::ResendStalledAccepts() {
  const sim::Time now = Now();
  int budget = kResendBudget;
  for (auto it = slots_.lower_bound(log_.commit_frontier());
       it != slots_.end() && it->first < next_index_ && budget > 0; ++it) {
    SlotState& slot = it->second;
    if (slot.chosen || !slot.has_value || slot.accept_num != my_ballot_) {
      continue;
    }
    if (now - slot.proposed_at <= kStallTimeout) continue;
    auto accept = std::make_shared<AcceptMsg>(my_ballot_, it->first,
                                              slot.value);
    for (sim::NodeId member : options_.members) {
      if (member != id() && slot.accepts.count(member) == 0) {
        Send(member, accept);
      }
    }
    slot.proposed_at = now;
    --budget;
  }
}

void MultiPaxosReplica::Chosen(uint64_t index, const smr::Entry& entry) {
  if (index < log_.start()) return;  // Already folded into a checkpoint.
  SlotState& slot = Slot(index);
  if (slot.chosen) {
    if (slot.has_value && !(slot.value == entry)) {
      violations_.push_back("slot " + std::to_string(index) +
                            " chosen twice with different values");
    }
    return;
  }
  slot.chosen = true;
  slot.has_value = true;
  slot.value = entry;
  log_.Set(index, entry);

  // Advance the commit frontier over the contiguous chosen prefix.
  uint64_t frontier = log_.commit_frontier();
  while (true) {
    auto it = slots_.find(frontier);
    if (it == slots_.end() || !it->second.chosen) break;
    log_.CommitThrough(frontier);
    ++frontier;
  }
  // Batch slots fan out: each client command is deduped, recorded, and
  // answered individually.
  pipeline_.ApplySlots(&log_, &slots_);
}

void MultiPaxosReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!leader_active_ && !phase1_pending_) {
      Send(from, std::make_shared<ReplyMsg>(m->cmd.client_seq,
                                            smr::kRedirect, LeaderHint()));
      return;
    }
    pipeline_.Admit(from, m->cmd, leader_active_);
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      if (m->ballot.pid != id() && leader_active_) {
        Deposed();  // A higher ballot exists.
      }
      auto promise = std::make_shared<PromiseMsg>();
      promise->ballot = m->ballot;
      for (const auto& [index, slot] : slots_) {
        if (!slot.has_value) continue;
        if (slot.chosen) {
          promise->chosen.emplace(index, slot.value);
        } else {
          promise->accepted[index] = {slot.accept_num, slot.value};
        }
      }
      Send(from, promise);
      if (m->ballot.pid != id()) ResetLeaderTimer();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PromiseMsg*>(&msg)) {
    if (!phase1_pending_ || m->ballot != my_ballot_) return;
    promisers_.insert(from);
    for (const auto& [index, entry] : m->accepted) {
      auto it = recovered_.find(index);
      if (it == recovered_.end() || entry.first > it->second.first) {
        recovered_[index] = entry;
      }
    }
    recovered_chosen_.insert(m->chosen.begin(), m->chosen.end());
    if (static_cast<int>(promisers_.size()) >= q1_) OnLeadershipAcquired();
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptMsg*>(&msg)) {
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      if (m->index < log_.start()) {
        // Checkpoint-truncated slot: a value was already chosen there and
        // folded into our checkpoint, and we can no longer compare it
        // against the proposal. Acking blind would let a laggard leader
        // "choose" a conflicting command for a decided slot — silent
        // divergence. Refuse, and ship our applied state instead so the
        // stale proposer re-bases past the truncation frontier before
        // proposing again.
        pipeline_.SendSnapshot(from, log_);
        if (m->ballot.pid != id()) ResetLeaderTimer();
        return;
      }
      SlotState& slot = Slot(m->index);
      if (!slot.chosen) {
        slot.accept_num = m->ballot;
        slot.value = m->entry;
        slot.has_value = true;
      } else if (m->entry.kind() == smr::Entry::Kind::kNoop &&
                 !(slot.value == m->entry)) {
        // A hole-filling no-op aimed at a slot we know is decided with a
        // real command: acking would help the new leader "choose" the
        // no-op over the decided value. Teach it the decision instead —
        // chosen values are final, so this is safe under any ballot.
        auto teach = std::make_shared<CommitMsg>();
        teach->ballot = m->ballot;
        teach->has_entry = true;
        teach->index = m->index;
        teach->entry = slot.value;
        teach->frontier = log_.commit_frontier();
        Send(from, teach);
        if (m->ballot.pid != id()) ResetLeaderTimer();
        return;
      }
      Send(from, std::make_shared<AcceptedMsg>(m->ballot, m->index));
      if (m->ballot.pid != id()) ResetLeaderTimer();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptedMsg*>(&msg)) {
    if (!leader_active_ || m->ballot != my_ballot_) return;
    SlotState& slot = Slot(m->index);
    slot.accepts.insert(from);
    if (!slot.chosen && static_cast<int>(slot.accepts.size()) >= q2_ &&
        slot.has_value) {
      smr::Entry entry = slot.value;
      // Propagate the decision to all, asynchronously.
      auto commit = std::make_shared<CommitMsg>();
      commit->ballot = my_ballot_;
      commit->has_entry = true;
      commit->index = m->index;
      commit->entry = entry;
      commit->frontier = log_.commit_frontier();
      Multicast(Everyone(), commit);
      Chosen(m->index, entry);
      if (!options_.skip_phase1_when_stable) {
        // Per-command phase-1 mode: prepare again for the next command.
        slot_in_flight_ = false;
        ProposeNext();
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      if (m->ballot.pid != id()) {
        if (leader_active_) Deposed();
        ResetLeaderTimer();
      }
      if (m->has_entry) Chosen(m->index, m->entry);
      if (m->frontier > log_.commit_frontier() && from != id()) {
        // We trail the leader's commit frontier (e.g. healed partition, or
        // commits we missed): pull the gap. Re-requested every heartbeat
        // until closed, so a lost reply self-heals.
        pipeline_.RequestCatchup(from, log_.commit_frontier());
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const smr::CatchupRequestMsg*>(&msg)) {
    if (leader_active_) pipeline_.ServeCatchup(from, m->from_index, log_);
    return;
  }

  if (const auto* m = dynamic_cast<const smr::CatchupReplyMsg*>(&msg)) {
    // Every entry is a chosen (committed) value, so learning it outright
    // is safe regardless of ballot.
    for (const auto& [index, entry] : m->entries) Chosen(index, entry);
    return;
  }

  if (const auto* m = dynamic_cast<const smr::SnapshotMsg*>(&msg)) {
    pipeline_.InstallSnapshot(*m, &log_, &slots_,
                              leader_active_ ? &next_index_ : nullptr);
    return;
  }
}

void MultiPaxosReplica::OnRestart() {
  // Volatile leader/proposer state is lost; acceptor + log state is stable.
  leader_active_ = false;
  phase1_pending_ = false;
  promisers_.clear();
  recovered_.clear();
  recovered_chosen_.clear();
  pipeline_.Restart();  // Clients re-transmit.
  slot_in_flight_ = false;
  ResetLeaderTimer();
}

}  // namespace consensus40::paxos
