#include "paxos/crossword.h"

#include <algorithm>
#include <cassert>

namespace consensus40::paxos {

namespace {

/// Adaptive controller: payloads below this never shard (framing
/// overhead dominates and the latency gate wants classic behaviour).
constexpr int kMinPayloadToShard = 256;
/// EWMA smoothing for payload size and egress backlog.
constexpr double kEwmaAlpha = 0.25;
/// Slide c down (more coding) when the smoothed egress backlog exceeds
/// kBacklogHigh; slide it back up when it falls below kBacklogLow.
constexpr sim::Duration kBacklogHigh = 2 * sim::kMillisecond;
constexpr sim::Duration kBacklogLow = 500 * sim::kMicrosecond;
/// A slot unchosen this long after its accept round is re-proposed at
/// c = k (full copies, majority quorum): Crossword's follower-health
/// adaptation, and what keeps sharded configs live through crashes and
/// partitions that a q2(c) > majority quorum cannot ride out.
constexpr sim::Duration kStallTimeout = 60 * sim::kMillisecond;
/// Follower-side reconstruction: base retry cadence for shard pulls.
constexpr sim::Duration kReconstructRetry = 25 * sim::kMillisecond;
/// c under Mode::kFixedRs: one shard per acceptor (k = majority >= 1).
constexpr int kFixedRsShards = 1;

}  // namespace

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct CrosswordReplica::PrepareMsg : sim::Message {
  explicit PrepareMsg(Ballot b) : ballot(b) {}
  const char* TypeName() const override { return "cw-prepare"; }
  int ByteSize() const override { return 24; }
  Ballot ballot;
};

struct CrosswordReplica::PromiseMsg : sim::Message {
  const char* TypeName() const override { return "cw-promise"; }
  int ByteSize() const override {
    int size = 40;
    for (const auto& [index, entry] : accepted) {
      size += 32 + entry.second.ByteSize();
    }
    size += static_cast<int>(chosen.size()) * 8;
    return size;
  }
  Ballot ballot;
  uint64_t frontier = 0;
  /// index -> (AcceptNum, AcceptVal): every accepted slot this replica
  /// retains, including chosen-but-unreconstructed ones (their shard
  /// fragments are exactly what a recovering leader must gather — see the
  /// safety note on PrepareMsg handling).
  std::map<uint64_t, std::pair<Ballot, smr::Entry>> accepted;
  /// Slots this replica knows are decided. A new leader must never
  /// no-op-fill or re-propose into these, even when the fragments on hand
  /// don't reconstruct the value yet.
  std::set<uint64_t> chosen;
};

struct CrosswordReplica::AcceptMsg : sim::Message {
  AcceptMsg(Ballot b, uint64_t i, uint32_t r, smr::Entry e)
      : ballot(b), index(i), round(r), entry(std::move(e)) {}
  const char* TypeName() const override { return "cw-accept"; }
  int ByteSize() const override { return 40 + entry.ByteSize(); }
  Ballot ballot;
  uint64_t index;
  /// Re-proposal counter within one ballot: a stalled sharded slot is
  /// escalated to full copies under the SAME ballot, and the leader must
  /// not count stale acks for the earlier framing toward the new round's
  /// (smaller) quorum.
  uint32_t round;
  smr::Entry entry;  ///< Full value (c = k) or this acceptor's shard set.
};

struct CrosswordReplica::AcceptedMsg : sim::Message {
  AcceptedMsg(Ballot b, uint64_t i, uint32_t r)
      : ballot(b), index(i), round(r) {}
  const char* TypeName() const override { return "cw-accepted"; }
  int ByteSize() const override { return 36; }
  Ballot ballot;
  uint64_t index;
  uint32_t round;
};

/// Deliberately payload-free: followers already hold their shard subset
/// (or the full value), so the decision notification costs O(1) bytes —
/// the asymmetry that lets Crossword's leader ship (n-1)/k payload copies
/// instead of n-1.
struct CrosswordReplica::CommitMsg : sim::Message {
  const char* TypeName() const override { return "cw-commit"; }
  int ByteSize() const override { return 48; }
  Ballot ballot;
  bool has_entry = false;  ///< False = pure heartbeat.
  uint64_t index = 0;
  uint64_t frontier = 0;
};

struct CrosswordReplica::PullMsg : sim::Message {
  explicit PullMsg(uint64_t i, bool full = false) : index(i), want_full(full) {}
  const char* TypeName() const override { return "cw-pull"; }
  int ByteSize() const override { return 17; }
  uint64_t index;
  /// Early pull attempts ask for fragments only — a full-value answer
  /// re-serializes the entire payload per puller, the egress bill coding
  /// exists to avoid. Set after repeated fragment pulls fail to assemble
  /// (mixed-ballot fragments, peers checkpointed past the slot): the
  /// repair of last resort.
  bool want_full;
};

/// Answer to a PullMsg, and the teach vehicle for proposals landing on a
/// slot the acceptor knows is decided. `entry` is either the full chosen
/// value or a validated shard-set fragment of it.
struct CrosswordReplica::PullReplyMsg : sim::Message {
  PullReplyMsg(uint64_t i, smr::Entry e) : index(i), entry(std::move(e)) {}
  const char* TypeName() const override { return "cw-pull-reply"; }
  int ByteSize() const override { return 24 + entry.ByteSize(); }
  uint64_t index;
  smr::Entry entry;
};

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

CrosswordReplica::CrosswordReplica(CrosswordOptions options)
    : options_(options),
      pipeline_(
          {options.batch_size, options.batch_delay,
           options.checkpoint_interval},
          PipelineHooks<ReplyMsg>([this] { ProposeNext(); }),
          {"cw-catchup-request", "cw-catchup-reply", "cw-snapshot"}) {
  if (options_.members.empty()) {
    assert(options_.n > 0);
    for (int i = 0; i < options_.n; ++i) options_.members.push_back(i);
  }
  n_ = static_cast<int>(options_.members.size());
  k_ = n_ / 2 + 1;
  q1_ = k_;
  c_now_ = k_;  // Start classic; the controller earns its way down.
}

std::vector<sim::NodeId> CrosswordReplica::Everyone() const {
  return options_.members;
}

CrosswordReplica::SlotState& CrosswordReplica::Slot(uint64_t index) {
  return slots_[index];
}

int CrosswordReplica::Q2For(int c) const {
  if (options_.unsafe_majority_quorum) return k_;
  return std::max(n_ + 1 - c, k_);
}

void CrosswordReplica::OnStart() {
  if (id() == options_.members.front()) {
    StartPhase1();  // Bootstrap volunteer; later failures use the timeout.
  } else {
    ResetLeaderTimer();
  }
}

void CrosswordReplica::ResetLeaderTimer() {
  CancelTimer(leader_timer_);
  sim::Duration t =
      options_.leader_timeout +
      static_cast<sim::Duration>(rng().NextBounded(options_.leader_timeout));
  leader_timer_ = SetTimer(t, [this] {
    if (!leader_active_) StartPhase1();
  });
}

void CrosswordReplica::StartPhase1() {
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

int CrosswordReplica::ChooseShards(int payload) {
  switch (options_.mode) {
    case CrosswordOptions::Mode::kFullCopy:
      return k_;
    case CrosswordOptions::Mode::kFixedRs:
      return kFixedRsShards;
    case CrosswordOptions::Mode::kAdaptive:
      break;
  }
  payload_ewma_ +=
      kEwmaAlpha * (static_cast<double>(payload) - payload_ewma_);
  // Small commands always go full-copy: shard framing would cost more
  // bytes than it saves, and commit latency must track classic Paxos.
  if (payload < kMinPayloadToShard) return k_;
  if (backlog_ewma_ > static_cast<double>(kBacklogHigh)) {
    c_now_ = std::max(1, c_now_ - 1);  // Egress is queueing: code harder.
  } else if (backlog_ewma_ < static_cast<double>(kBacklogLow)) {
    c_now_ = std::min(k_, c_now_ + 1);  // Headroom: favour latency.
  }
  return c_now_;
}

int CrosswordReplica::PositionOf(sim::NodeId node) const {
  for (size_t i = 0; i < options_.members.size(); ++i) {
    if (options_.members[i] == node) return static_cast<int>(i);
  }
  return 0;
}

void CrosswordReplica::AcceptSlot(uint64_t index, const smr::Entry& entry) {
  SlotState& slot = Slot(index);
  slot.accept_num = my_ballot_;
  slot.value = entry;  // The leader always self-accepts the FULL value.
  slot.has_value = true;
  // No-ops ship full: recovery rounds should never depend on pulls. The
  // payload the coder would code is the entry less its 16-byte header.
  const bool noop = entry.kind() == smr::Entry::Kind::kNoop;
  const int c = noop ? k_ : ChooseShards(entry.ByteSize() - 16);
  StartRound(index, c);
  if (options_.mode == CrosswordOptions::Mode::kAdaptive && !noop) {
    // Sample the egress queue AFTER this round's sends, not at propose
    // time: a closed-loop client's next request only arrives once the
    // reply — itself queued behind the round's payloads — has drained the
    // port, so a pre-send sample under-reads the backlog as ~0 at any
    // client window. The post-send residue is exactly what this round
    // left unsent, the quantity the controller should react to.
    backlog_ewma_ +=
        kEwmaAlpha *
        (static_cast<double>(sim().EgressBacklog(id())) - backlog_ewma_);
  }
}

void CrosswordReplica::StartRound(uint64_t index, int c) {
  SlotState& slot = Slot(index);
  slot.round += 1;
  slot.c = c;
  slot.q2 = Q2For(c);
  slot.accepts.clear();
  slot.accepts.insert(id());  // Self-accept of the full copy.
  slot.proposed_at = Now();
  SendRound(index, slot, /*resend_only=*/false);
  MaybeChoose(index);  // q2 may already be met (single-node cluster).
}

void CrosswordReplica::SendRound(uint64_t index, const SlotState& slot,
                                 bool resend_only) {
  if (slot.c >= k_) {
    if (resend_only) {
      for (sim::NodeId m : options_.members) {
        if (m == id() || slot.accepts.count(m) > 0) continue;
        Send(m, std::make_shared<AcceptMsg>(my_ballot_, index, slot.round,
                                            slot.value));
      }
    } else {
      std::vector<sim::NodeId> others;
      for (sim::NodeId m : options_.members) {
        if (m != id()) others.push_back(m);
      }
      if (!others.empty()) {
        Multicast(others, std::make_shared<AcceptMsg>(my_ballot_, index,
                                                      slot.round, slot.value));
      }
    }
    return;
  }
  // Diagonal assignment: the member at position p carries the c-shard
  // window starting at shard p. Any s distinct windows jointly cover
  // min(n, s + c - 1) distinct shards, which q2(c) turns into the
  // any-majority-reconstructs invariant.
  smr::ShardedCommand sc = smr::ShardCommand(slot.value, k_, n_);
  const int p0 = PositionOf(id());
  for (size_t p = 0; p < options_.members.size(); ++p) {
    sim::NodeId m = options_.members[p];
    if (m == id()) continue;
    if (resend_only && slot.accepts.count(m) > 0) continue;
    if (options_.unsafe_majority_quorum) {
      // THE FLAW UNDER TEST (RS-Paxos-style): serialize fragments only to
      // exactly enough acceptors to reach the (bare-majority) commit
      // quorum — the egress-minimal dissemination that makes coded
      // replication look free. The cluster then holds q2-1 distinct
      // fragments plus the leader's full copy, fewer than the k needed to
      // reconstruct, so the value dies with the leader.
      const int offset =
          (static_cast<int>(p) - p0 + n_) % n_;
      if (offset >= slot.q2) continue;
    }
    Send(m, std::make_shared<AcceptMsg>(my_ballot_, index, slot.round,
                                        sc.Subset(static_cast<int>(p),
                                                  slot.c)));
  }
}

void CrosswordReplica::MaybeChoose(uint64_t index) {
  if (!leader_active_) return;
  auto it = slots_.find(index);
  if (it == slots_.end()) return;
  SlotState& slot = it->second;
  if (slot.chosen || !slot.has_value) return;
  if (static_cast<int>(slot.accepts.size()) < slot.q2) return;
  slot.chosen = true;
  slot.chosen_ballot = my_ballot_;
  auto commit = std::make_shared<CommitMsg>();
  commit->ballot = my_ballot_;
  commit->has_entry = true;
  commit->index = index;
  commit->frontier = log_.commit_frontier();
  Multicast(Everyone(), commit);
  LearnChosen(index, slot.value);
}

void CrosswordReplica::ResendInFlight() {
  if (!leader_active_) return;
  // A round is not "stalled" while this port is still serializing what we
  // already queued — the unacked bytes may simply not have left the NIC.
  // Re-sending into a backed-up port is pure positive feedback: each
  // repair re-serializes the full fan-out behind the copy it duplicates,
  // and at payloads where fan-out exceeds kStallTimeout the queue (and
  // virtual latency) grows without bound. Repair only from a drained port.
  if (sim().EgressBacklog(id()) > 0) return;
  const sim::Time now = Now();
  std::vector<uint64_t> stalled;
  for (const auto& [index, slot] : slots_) {
    if (index >= next_index_) break;
    if (index < log_.commit_frontier()) continue;
    if (slot.chosen || !slot.has_value || slot.accept_num != my_ballot_) {
      continue;
    }
    if (now - slot.proposed_at < kStallTimeout) continue;
    stalled.push_back(index);
    if (stalled.size() >= 8) break;  // Per-heartbeat repair budget.
  }
  for (uint64_t index : stalled) {
    auto it = slots_.find(index);
    if (it == slots_.end() || it->second.chosen) continue;
    if (it->second.c < k_ && !options_.unsafe_majority_quorum) {
      // A sharded round needs q2(c) > majority acceptors alive and
      // reachable; this one has waited long enough that some may not be.
      // Re-propose the SAME value as full copies under the same ballot:
      // q2 drops to a bare majority and liveness matches classic Paxos.
      ++escalations_;
      StartRound(index, k_);
    } else {
      SendRound(index, it->second, /*resend_only=*/true);
      it->second.proposed_at = now;
    }
  }
}

void CrosswordReplica::OnLeadershipAcquired() {
  phase1_pending_ = false;
  leader_active_ = true;
  CancelTimer(leader_timer_);

  uint64_t max_idx = next_index_;

  // Slots some promiser knows are decided: never re-propose, assemble the
  // value from the promise-carried fragments (any majority of the accept
  // quorum jointly holds >= k distinct shards) and pull whatever is
  // missing. Without the chosen flags a quorum of promisers that all
  // learned the decision — and therefore no longer report the slot as
  // merely "accepted" — would look identical to an unchosen slot, and
  // no-op filling it would overwrite a decided value.
  for (uint64_t index : recovered_chosen_) {
    // The unsafe variant drops this safeguard along with the widened
    // quorum: it assumes whatever phase 1 surfaced is reconstructable
    // and lets unresolvable slots fall through to the resolve-or-no-op
    // loop below — the classic recovery bug the chosen-flag machinery
    // exists to prevent, left in reach of the checker.
    if (options_.unsafe_majority_quorum) break;
    if (index < log_.start()) continue;
    if (index + 1 > max_idx) max_idx = index + 1;
    if (log_.Has(index)) continue;
    SlotState& slot = Slot(index);
    slot.chosen = true;
    auto rit = recovered_.find(index);
    std::optional<smr::Entry> full;
    if (rit != recovered_.end()) full = ResolveRecovered(rit->second);
    if (full.has_value()) {
      ++reconstructions_;
      LearnChosen(index, *full);
      continue;
    }
    PendingRecon& p = pending_recon_[index];
    if (rit != recovered_.end()) {
      // Seed from the highest ballot down; incompatible frames (possible
      // only across ballots with different values) are rejected by the
      // assembler.
      std::vector<std::pair<Ballot, smr::Entry>> sorted = rit->second;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const auto& a, const auto& b) {
                         return b.first < a.first;
                       });
      for (const auto& [b, entry] : sorted) p.assembler.Add(entry);
    }
    SchedulePull(index);
  }

  // Re-propose every undecided value learned during phase 1, resolving
  // shard fragments per ballot from highest down: a reconstructable
  // candidate might have been chosen; one that no quorum's worth of
  // fragments can rebuild provably was not (its accept set never reached
  // q2(c), or the fragments would be here).
  for (const auto& [index, cands] : recovered_) {
    if (index < log_.start()) continue;
    if (index + 1 > max_idx) max_idx = index + 1;
    if (Slot(index).chosen) continue;
    std::optional<smr::Entry> resolved = ResolveRecovered(cands);
    AcceptSlot(index, resolved.value_or(smr::Entry::Noop()));
  }

  next_index_ = std::max(next_index_, max_idx);
  next_index_ = std::max(next_index_, log_.commit_frontier());

  // Close the remaining holes below the cursor with no-ops, as in
  // Multi-Paxos. Decided slots (chosen flags above, or our own state)
  // are skipped; acceptors that know better teach us via PullReply.
  for (uint64_t index = log_.commit_frontier(); index < next_index_;
       ++index) {
    if (index < log_.start()) continue;
    if (recovered_.count(index) > 0) continue;  // Re-proposed above.
    if (Slot(index).chosen) continue;
    AcceptSlot(index, smr::Entry::Noop());
  }

  SendHeartbeat();  // Also self-reschedules while leader.
  ProposeNext();
}

std::optional<smr::Entry> CrosswordReplica::ResolveRecovered(
    const std::vector<std::pair<Ballot, smr::Entry>>& candidates) const {
  std::vector<std::pair<Ballot, smr::Entry>> sorted = candidates;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return b.first < a.first; });
  for (size_t i = 0; i < sorted.size(); ++i) {
    const smr::Entry& entry = sorted[i].second;
    if (entry.shard_set() == nullptr) return entry;  // A full copy settles it.
    smr::ShardAssembler assembler;
    if (!assembler.Add(entry)) continue;
    for (size_t j = 0; j < sorted.size(); ++j) {
      if (j != i) assembler.Add(sorted[j].second);  // Compatible merge in.
    }
    if (assembler.Complete()) {
      if (std::optional<smr::Entry> full = assembler.Reconstruct()) {
        return full;
      }
    }
  }
  return std::nullopt;
}

void CrosswordReplica::Deposed() {
  leader_active_ = false;
  CancelTimer(heartbeat_timer_);
  pipeline_.Depose();
}

void CrosswordReplica::SendHeartbeat() {
  auto hb = std::make_shared<CommitMsg>();
  hb->ballot = my_ballot_;
  hb->frontier = log_.commit_frontier();
  Multicast(Everyone(), hb);
  if (leader_active_) {
    ResendInFlight();
    CancelTimer(heartbeat_timer_);
    heartbeat_timer_ =
        SetTimer(options_.heartbeat_interval, [this] { SendHeartbeat(); });
  }
}

void CrosswordReplica::ProposeNext() {
  if (!leader_active_) return;
  pipeline_.DisarmLinger();
  while (pipeline_.HasQueued()) {
    uint64_t index = next_index_++;
    AcceptSlot(index, pipeline_.CutNext(index));
  }
}

void CrosswordReplica::MarkChosen(uint64_t index, Ballot ballot) {
  if (index < log_.start()) return;
  SlotState& slot = Slot(index);
  if (log_.Has(index)) {
    slot.chosen = true;
    if (slot.chosen_ballot.IsZero()) slot.chosen_ballot = ballot;
    return;
  }
  if (slot.chosen) return;  // Reconstruction already in progress.
  slot.chosen = true;
  slot.chosen_ballot = ballot;
  if (options_.unsafe_majority_quorum) {
    // THE FLAW UNDER TEST (continued): classic RS-Paxos learners are lazy —
    // a commit notification just marks the slot chosen; nobody reassembles
    // the value until a reader (or recovery) actually needs it.  Eager
    // commit-time pulls would re-spread the full value cluster-wide within
    // milliseconds of every commit and mask the under-replication, so the
    // unsafe variant skips the reconstruction machinery below.  A validated
    // full value on hand is still applied — that requires no peer traffic.
    if (slot.has_value && slot.accept_num == ballot &&
        slot.value.shard_set() == nullptr) {
      LearnChosen(index, slot.value);
    }
    return;
  }
  if (slot.has_value && slot.accept_num == ballot) {
    if (slot.value.shard_set() == nullptr) {
      LearnChosen(index, slot.value);
      return;
    }
    // Our own shard window, validated by accept_num == chosen ballot,
    // seeds the assembler; peers supply the rest.
    PendingRecon& p = pending_recon_[index];
    p.ballot = ballot;
    p.assembler.Add(slot.value);
    TryCompleteRecon(index);
    if (pending_recon_.count(index) > 0) SchedulePull(index);
    return;
  }
  // Nothing validated on hand (e.g. our accept never arrived): pull.
  pending_recon_[index].ballot = ballot;
  SchedulePull(index);
}

void CrosswordReplica::LearnChosen(uint64_t index, const smr::Entry& entry) {
  if (index < log_.start()) return;
  if (const smr::Entry* existing = log_.Get(index)) {
    if (!(*existing == entry)) {
      violations_.push_back("slot " + std::to_string(index) +
                            " chosen twice with different values");
    }
    return;
  }
  SlotState& slot = Slot(index);
  slot.chosen = true;
  slot.has_value = true;
  slot.value = entry;  // Hold the full value: we can serve pulls from it.
  log_.Set(index, entry);
  auto pit = pending_recon_.find(index);
  if (pit != pending_recon_.end()) {
    CancelTimer(pit->second.timer);
    pending_recon_.erase(pit);
  }
  // Advance the commit frontier over the contiguous learned prefix (log
  // slots are only ever Set with chosen values here).
  uint64_t frontier = log_.commit_frontier();
  while (log_.Has(frontier)) {
    log_.CommitThrough(frontier);
    ++frontier;
  }
  pipeline_.ApplySlots(&log_, &slots_);
}

void CrosswordReplica::TryCompleteRecon(uint64_t index) {
  auto it = pending_recon_.find(index);
  if (it == pending_recon_.end() || !it->second.assembler.Complete()) return;
  std::optional<smr::Entry> full = it->second.assembler.Reconstruct();
  if (!full.has_value()) return;  // Payload did not check out; keep pulling.
  CancelTimer(it->second.timer);
  pending_recon_.erase(it);
  ++reconstructions_;
  LearnChosen(index, *full);
}

void CrosswordReplica::SchedulePull(uint64_t index) {
  auto it = pending_recon_.find(index);
  if (it == pending_recon_.end()) return;
  PendingRecon& p = it->second;
  const int selfpos = PositionOf(id());
  const sim::NodeId leader = ballot_num_.pid;
  // Two rotating peer targets per attempt. The leader is skipped on early
  // attempts: it holds the full value and would answer with the whole
  // payload, re-concentrating the egress load sharding just spread out.
  const bool want_full = p.attempt >= 4;  // Fragments failed; last resort.
  int sent = 0;
  for (int step = 1; step <= n_ && sent < 2; ++step) {
    int pos = (selfpos + p.attempt + step) % n_;
    sim::NodeId target = options_.members[static_cast<size_t>(pos)];
    if (target == id()) continue;
    if (target == leader && p.attempt < 2 && n_ > 2) continue;
    Send(target, std::make_shared<PullMsg>(index, want_full));
    ++sent;
  }
  ++p.attempt;
  CancelTimer(p.timer);
  // Exponential backoff: under finite bandwidth a shard reply can take
  // longer to serialize than the base retry interval, and a fixed-cadence
  // timer would re-request (and the peer re-send) data still sitting in
  // the peer's egress queue — every retry then ADDS to the very backlog
  // that delayed the first answer.
  const int shift = std::min(p.attempt, 6);
  p.timer = SetTimer(kReconstructRetry << shift,
                     [this, index] { SchedulePull(index); });
}

void CrosswordReplica::DisplaceInFlight(uint64_t index,
                                        const smr::Entry* decided) {
  if (!leader_active_) return;
  auto it = slots_.find(index);
  if (it == slots_.end()) return;
  const SlotState& slot = it->second;
  if (!slot.has_value || slot.chosen || slot.accept_num != my_ballot_) return;
  if (decided != nullptr && slot.value == *decided) return;
  // Our in-flight proposal lost this slot to an earlier decision we are
  // only now being taught: the client commands it carried (leaders hold
  // full values) must re-enter the queue for a fresh slot instead of
  // dying with the proposal.
  pipeline_.Requeue(slot.value);
}

uint64_t CrosswordReplica::ChosenThrough() const {
  uint64_t f = log_.commit_frontier();
  while (true) {
    if (log_.Has(f) || pending_recon_.count(f) > 0) {
      ++f;
      continue;
    }
    auto it = slots_.find(f);
    if (it != slots_.end() && it->second.chosen) {
      ++f;
      continue;
    }
    return f;
  }
}

void CrosswordReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
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
      if (m->ballot.pid != id() && leader_active_) Deposed();
      auto promise = std::make_shared<PromiseMsg>();
      promise->ballot = m->ballot;
      promise->frontier = log_.commit_frontier();
      for (const auto& [index, slot] : slots_) {
        if (index < log_.start()) continue;
        if (slot.chosen) {
          promise->chosen.insert(index);
          if (log_.Has(index)) continue;  // Value served on pull/teach.
          // Ship the fragments we hold for the decided-but-unrebuilt
          // slot: gathered pulls if any, else our accepted window.
          auto pit = pending_recon_.find(index);
          if (pit != pending_recon_.end() &&
              pit->second.assembler.distinct() > 0) {
            promise->accepted[index] = {slot.chosen_ballot,
                                        pit->second.assembler.Merged()};
          } else if (slot.has_value) {
            promise->accepted[index] = {slot.accept_num, slot.value};
          }
          continue;
        }
        if (slot.has_value) {
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
      recovered_[index].push_back(entry);  // Keep ALL fragments, not a max.
    }
    for (uint64_t index : m->chosen) recovered_chosen_.insert(index);
    if (static_cast<int>(promisers_.size()) >= q1_) OnLeadershipAcquired();
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptMsg*>(&msg)) {
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      if (m->ballot.pid != id() && leader_active_) Deposed();
      if (m->index < log_.start()) {
        // Checkpoint-truncated slot: refuse and re-base the proposer.
        pipeline_.SendSnapshot(from, log_);
        if (m->ballot.pid != id()) ResetLeaderTimer();
        return;
      }
      SlotState& slot = Slot(m->index);
      // The unsafe variant drops the whole chosen-slot defense suite —
      // acceptors behave like plain Paxos acceptors and blindly ack any
      // current-ballot proposal, as in RS-Paxos as published.
      if (slot.chosen && !options_.unsafe_majority_quorum) {
        // A proposal for a slot we know is decided. Teach the decision
        // (full value or our validated fragment) instead of acking —
        // acking would let a proposer that missed the decision count us
        // toward choosing a DIFFERENT value here.
        if (const smr::Entry* entry = log_.Get(m->index)) {
          Send(from, std::make_shared<PullReplyMsg>(m->index, *entry));
          if (m->ballot.pid != id()) ResetLeaderTimer();
          return;
        }
        auto pit = pending_recon_.find(m->index);
        if (pit != pending_recon_.end() &&
            pit->second.assembler.distinct() > 0) {
          Send(from, std::make_shared<PullReplyMsg>(
                         m->index, pit->second.assembler.Merged()));
          // The incoming framing is the same value in bounds; fold it in.
          if (m->entry.shard_set() != nullptr) {
            pit->second.assembler.Add(m->entry);
            TryCompleteRecon(m->index);
          }
          if (m->ballot.pid != id()) ResetLeaderTimer();
          return;
        }
        // Decided but we hold nothing to teach with: accept. In bounds
        // the proposal carries the decided value (a leader that learned
        // the slot is chosen never proposes into it), so this only helps
        // the round finish.
        slot.accept_num = m->ballot;
        slot.value = m->entry;
        slot.has_value = true;
        slot.round = m->round;
        if (pit != pending_recon_.end() && m->entry.shard_set() != nullptr) {
          pit->second.assembler.Add(m->entry);
          TryCompleteRecon(m->index);
        }
        Send(from, std::make_shared<AcceptedMsg>(m->ballot, m->index,
                                                 m->round));
        if (m->ballot.pid != id()) ResetLeaderTimer();
        return;
      }
      // Reordered rounds within one ballot: never regress to an earlier
      // framing of the slot.
      if (slot.has_value && slot.accept_num == m->ballot &&
          m->round < slot.round) {
        return;
      }
      slot.accept_num = m->ballot;
      slot.value = m->entry;
      slot.has_value = true;
      slot.round = m->round;
      Send(from, std::make_shared<AcceptedMsg>(m->ballot, m->index, m->round));
      if (m->ballot.pid != id()) ResetLeaderTimer();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptedMsg*>(&msg)) {
    if (!leader_active_ || m->ballot != my_ballot_) return;
    auto it = slots_.find(m->index);
    if (it == slots_.end()) return;
    if (m->round != it->second.round) return;  // Stale round's framing.
    it->second.accepts.insert(from);
    MaybeChoose(m->index);
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      if (m->ballot.pid != id()) {
        if (leader_active_) Deposed();
        ResetLeaderTimer();
      }
      if (m->has_entry) MarkChosen(m->index, m->ballot);
      // Catch up on what we don't even know to be chosen. Slots pending
      // reconstruction are NOT a gap — pulling their payloads from the
      // leader would re-create the full-copy fan-out sharding removed.
      const uint64_t known = ChosenThrough();
      if (m->frontier > known && from != id()) {
        pipeline_.RequestCatchup(from, known);
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PullMsg*>(&msg)) {
    if (m->index < log_.start()) {
      // Truncated away: the puller is far behind — re-base it.
      pipeline_.SendSnapshot(from, log_);
      ++pulls_served_;
      return;
    }
    // Retransmission suppression: if our previous answer to this exact
    // puller is still serializing at this port, a repeat pull is the
    // puller's impatience, not a loss — answering again queues a second
    // copy behind the first.
    const auto pull_key = std::make_pair(m->index, from);
    auto dit = pull_reply_draining_.find(pull_key);
    if (dit != pull_reply_draining_.end() && Now() < dit->second) return;
    auto serve = [&](smr::Entry entry) {
      Send(from, std::make_shared<PullReplyMsg>(m->index, std::move(entry)));
      pull_reply_draining_[pull_key] = Now() + sim().EgressBacklog(id());
      ++pulls_served_;
    };
    if (const smr::Entry* entry = log_.Get(m->index)) {
      if (!m->want_full && entry->kind() != smr::Entry::Kind::kNoop &&
          n_ > 1) {
        // Serve the fragment at OUR diagonal position, not the whole
        // value: pullers reassemble from k distinct positions, and a
        // full-copy answer per puller would re-pay the entire egress
        // bill the coded accept round just avoided. The full value goes
        // out only on want_full — the puller's last resort.
        smr::ShardedCommand sc = smr::ShardCommand(*entry, k_, n_);
        serve(sc.Subset(PositionOf(id()), 1));
      } else {
        serve(*entry);
      }
      return;
    }
    auto pit = pending_recon_.find(m->index);
    if (pit != pending_recon_.end() &&
        pit->second.assembler.distinct() > 0) {
      serve(pit->second.assembler.Merged());
      return;
    }
    auto sit = slots_.find(m->index);
    if (sit != slots_.end() && sit->second.chosen && sit->second.has_value &&
        sit->second.accept_num == sit->second.chosen_ballot &&
        sit->second.value.shard_set() != nullptr) {
      serve(sit->second.value);
    }
    return;  // Nothing validated to serve; the puller's retry rotates on.
  }

  if (const auto* m = dynamic_cast<const PullReplyMsg*>(&msg)) {
    if (m->index < log_.start() || log_.Has(m->index)) return;
    if (m->entry.shard_set() == nullptr) {
      // A full chosen value (pull answer or teach). If we were proposing
      // something else into this slot, rescue those commands first.
      DisplaceInFlight(m->index, &m->entry);
      Slot(m->index).chosen = true;
      LearnChosen(m->index, m->entry);
      if (leader_active_) ProposeNext();
      return;
    }
    // A fragment. Taught mid-proposal, it also marks the slot decided.
    DisplaceInFlight(m->index, nullptr);
    Slot(m->index).chosen = true;
    const bool fresh = pending_recon_.count(m->index) == 0;
    PendingRecon& p = pending_recon_[m->index];  // Ballot unknown on teach.
    p.assembler.Add(m->entry);
    TryCompleteRecon(m->index);
    if (fresh && pending_recon_.count(m->index) > 0) {
      SchedulePull(m->index);  // Existing entries already run a pull timer.
    }
    if (leader_active_) ProposeNext();
    return;
  }

  if (const auto* m = dynamic_cast<const smr::CatchupRequestMsg*>(&msg)) {
    if (leader_active_) pipeline_.ServeCatchup(from, m->from_index, log_);
    return;
  }

  if (const auto* m = dynamic_cast<const smr::CatchupReplyMsg*>(&msg)) {
    // Every entry is a chosen value; learning outright is safe.
    for (const auto& [index, entry] : m->entries) LearnChosen(index, entry);
    return;
  }

  if (const auto* m = dynamic_cast<const smr::SnapshotMsg*>(&msg)) {
    if (!pipeline_.InstallSnapshot(*m, &log_, &slots_,
                                   leader_active_ ? &next_index_ : nullptr)) {
      return;
    }
    // Reconstructions the snapshot covers are moot.
    for (auto it = pending_recon_.begin(); it != pending_recon_.end();) {
      if (it->first < m->end) {
        CancelTimer(it->second.timer);
        it = pending_recon_.erase(it);
      } else {
        ++it;
      }
    }
    return;
  }
}

void CrosswordReplica::OnRestart() {
  // Volatile leader/proposer state is lost; acceptor + log state is stable.
  leader_active_ = false;
  phase1_pending_ = false;
  promisers_.clear();
  recovered_.clear();
  recovered_chosen_.clear();
  pipeline_.Restart();
  heartbeat_timer_ = 0;
  // The adaptive controller restarts conservative (full copies).
  c_now_ = k_;
  payload_ewma_ = 0.0;
  backlog_ewma_ = 0.0;
  // Reconstruction state (assemblers, pull timers) was volatile: re-seed
  // it for every slot the durable acceptor state knows is decided but the
  // log never received.
  pending_recon_.clear();
  pull_reply_draining_.clear();
  std::vector<uint64_t> unfilled;
  for (const auto& [index, slot] : slots_) {
    if (index < log_.start() || !slot.chosen || log_.Has(index)) continue;
    unfilled.push_back(index);
  }
  for (uint64_t index : unfilled) {
    SlotState& slot = Slot(index);
    const bool validated = slot.has_value && !slot.chosen_ballot.IsZero() &&
                           slot.accept_num == slot.chosen_ballot;
    if (validated && slot.value.shard_set() == nullptr) {
      LearnChosen(index, slot.value);
      continue;
    }
    PendingRecon& p = pending_recon_[index];
    p.ballot = slot.chosen_ballot;
    if (validated) p.assembler.Add(slot.value);
    TryCompleteRecon(index);
    if (pending_recon_.count(index) > 0) SchedulePull(index);
  }
  ResetLeaderTimer();
}

}  // namespace consensus40::paxos
