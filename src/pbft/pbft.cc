#include "pbft/pbft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::pbft {

crypto::Digest PbftReplica::PrePrepareDigest(int64_t view, uint64_t seq,
                                             const crypto::Digest& digest) {
  crypto::Sha256 h;
  h.Update(&view, sizeof(view));
  h.Update(&seq, sizeof(seq));
  h.Update(digest.data(), digest.size());
  return h.Finish();
}

crypto::Digest SignedVote::SigningDigest() const {
  crypto::Sha256 h;
  h.Update(&replica, sizeof(replica));
  h.Update(&view, sizeof(view));
  h.Update(&seq, sizeof(seq));
  h.Update(digest.data(), digest.size());
  return h.Finish();
}

bool SignedVote::Verify(const crypto::KeyRegistry& registry) const {
  return sig.signer == replica && registry.Verify(sig, SigningDigest());
}

crypto::Digest PbftReplica::BatchDigest(
    const std::vector<smr::Command>& cmds) {
  crypto::Sha256 h;
  h.Update("batch", 5);
  for (const smr::Command& cmd : cmds) {
    crypto::Digest d = cmd.Hash();
    h.Update(d.data(), d.size());
  }
  return h.Finish();
}

bool PbftReplica::ValidBatch(const std::vector<smr::Command>& cmds,
                             const std::vector<crypto::Signature>& sigs,
                             const crypto::KeyRegistry& registry) {
  if (cmds.size() != sigs.size()) return false;
  for (size_t i = 0; i < cmds.size(); ++i) {
    if (!ValidRequest(cmds[i], sigs[i], registry)) return false;
  }
  return true;  // Note: the empty batch (view-change filler) is valid.
}

bool PbftReplica::PreparedProof::Verify(const crypto::KeyRegistry& registry,
                                        int n) const {
  int f = (n - 1) / 3;
  if (digest != BatchDigest(cmds)) return false;
  if (!ValidBatch(cmds, client_sigs, registry)) return false;
  // Primary's pre-prepare signature.
  if (primary_sig.signer != view % n ||
      !registry.Verify(primary_sig, PrePrepareDigest(view, seq, digest))) {
    return false;
  }
  // 2f matching prepares from distinct non-primary replicas.
  std::set<int32_t> distinct;
  for (const SignedVote& p : prepares) {
    if (p.view != view || p.seq != seq || p.digest != digest) return false;
    if (!p.Verify(registry)) return false;
    if (p.replica == view % n) continue;
    distinct.insert(p.replica);
  }
  return static_cast<int>(distinct.size()) >= 2 * f;
}

PbftReplica::PbftReplica(PbftOptions options)
    : SignedReplica(options.n), options_(options) {
  assert(options_.n >= 4 && (options_.n - 1) % 3 == 0);
  assert(options_.registry != nullptr);
  f_ = (options_.n - 1) / 3;
}

bool PbftReplica::MaybeActMaliciouslyOnRequest(const smr::Command&,
                                               const crypto::Signature&) {
  return false;
}

void PbftReplica::WatchRequest(const smr::Command& cmd) {
  if (CachedResult(cmd) != nullptr) return;
  ArmWatchdog(cmd, [this] { StartViewChange(view_ + 1); });
}

void PbftReplica::HandleRequest(sim::NodeId /*from*/, const smr::Command& cmd,
                                const crypto::Signature& client_sig) {
  if (!ValidRequest(cmd, client_sig, *options_.registry)) return;
  if (const std::string* done = CachedResult(cmd)) {
    // Already executed: re-send the reply.
    Send(cmd.client,
         std::make_shared<ReplyMsg>(view_, cmd.client_seq, id(), *done));
    return;
  }

  if (IsPrimary() && !in_view_change_) {
    if (MaybeActMaliciouslyOnRequest(cmd, client_sig)) return;
    // Already assigned a sequence number or queued? (client rebroadcast)
    for (const auto& [seq, slot] : slots_) {
      for (const smr::Command& assigned : slot.cmds) {
        if (assigned.client == cmd.client &&
            assigned.client_seq == cmd.client_seq) {
          return;
        }
      }
    }
    for (const auto& [queued, sig] : batch_queue_) {
      if (queued.client == cmd.client &&
          queued.client_seq == cmd.client_seq) {
        return;
      }
    }
    batch_queue_.push_back({cmd, client_sig});
    if (options_.batch_delay == 0 ||
        static_cast<int>(batch_queue_.size()) >= options_.batch_size) {
      FlushBatch();
    } else if (batch_queue_.size() == 1) {
      SetTimer(options_.batch_delay, [this] { FlushBatch(); });
    }
  } else if (!IsPrimary()) {
    // Forward to the primary and watch it: pre-prepare picks the order,
    // timers guard liveness.
    Send(PrimaryOf(view_), std::make_shared<RequestMsg>(cmd, client_sig));
    WatchRequest(cmd);
  }
}

void PbftReplica::FlushBatch() {
  if (!IsPrimary() || in_view_change_ || batch_queue_.empty()) return;
  while (!batch_queue_.empty()) {
    auto pp = std::make_shared<PrePrepareMsg>();
    pp->view = view_;
    pp->seq = next_seq_++;
    int take = 0;
    while (!batch_queue_.empty() && take < options_.batch_size) {
      auto& [cmd, sig] = batch_queue_.front();
      pp->cmds.push_back(std::move(cmd));
      pp->client_sigs.push_back(sig);
      batch_queue_.pop_front();
      ++take;
    }
    pp->digest = BatchDigest(pp->cmds);
    pp->sig = options_.registry->Sign(
        id(), PrePrepareDigest(pp->view, pp->seq, pp->digest));
    Multicast(Everyone(), pp);
  }
}

void PbftReplica::MaybeSendCommit(uint64_t seq) {
  Slot& slot = slots_[seq];
  if (!slot.pre_prepared || slot.sent_commit) return;
  // prepared(m,v,n): pre-prepare + 2f prepares from distinct backups,
  // all in THIS slot's view and for this digest — a slot that survived a
  // view change may still hold stale votes from the old view, and mixing
  // views would both weaken the quorum and poison the prepared proof this
  // slot contributes to the next view change.
  std::set<sim::NodeId> backups;
  for (const auto& [r, vote] : slot.prepares) {
    if (vote.view != slot.view || !(vote.digest == slot.digest)) continue;
    if (r != PrimaryOf(slot.view)) backups.insert(r);
  }
  if (static_cast<int>(backups.size()) < 2 * f_) return;
  slot.prepared = true;
  slot.sent_commit = true;
  auto commit = std::make_shared<CommitMsg>();
  commit->vote.replica = id();
  commit->vote.view = slot.view;
  commit->vote.seq = seq;
  commit->vote.digest = slot.digest;
  commit->vote.sig = options_.registry->Sign(id(), commit->vote.SigningDigest());
  Multicast(Everyone(), commit);
}

void PbftReplica::MaybeExecute() {
  while (true) {
    auto it = slots_.find(last_executed_ + 1);
    if (it == slots_.end() || !it->second.committed) break;
    Slot& slot = it->second;
    if (!slot.executed) {
      slot.executed = true;
      for (const smr::Command& cmd : slot.cmds) {
        std::string result = ApplyAndRecord(cmd);
        DisarmWatchdog(cmd);
        Send(cmd.client, std::make_shared<ReplyMsg>(view_, cmd.client_seq,
                                                    id(), std::move(result)));
      }
    }
    ++last_executed_;
    if (last_executed_ % options_.checkpoint_interval == 0) TakeCheckpoint();
  }
}

crypto::Digest PbftReplica::CheckpointDigest(uint64_t seq) const {
  crypto::Sha256 h;
  h.Update(&seq, sizeof(seq));
  crypto::Digest state = kv().StateDigest();
  h.Update(state.data(), state.size());
  return h.Finish();
}

void PbftReplica::MaybeRequestStateTransfer() {
  if (state_transfer_inflight_) return;
  state_transfer_inflight_ = true;
  state_offers_.clear();
  auto req = std::make_shared<StateRequestMsg>();
  req->have = executed_commands().size();
  for (sim::NodeId peer : Everyone()) {
    if (peer != id()) Send(peer, req);
  }
  SetTimer(kRequestTimeout, [this] {
    // Give up on this round; the next checkpoint gap re-triggers it.
    state_transfer_inflight_ = false;
    state_offers_.clear();
  });
}

void PbftReplica::TakeCheckpoint() {
  auto cp = std::make_shared<CheckpointMsg>();
  cp->vote.replica = id();
  cp->vote.view = 0;
  cp->vote.seq = last_executed_;
  cp->vote.digest = CheckpointDigest(last_executed_);
  cp->vote.sig = options_.registry->Sign(id(), cp->vote.SigningDigest());
  Multicast(Everyone(), cp);
}

void PbftReplica::GarbageCollect(uint64_t stable_seq) {
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first <= stable_seq && it->second.executed) {
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = checkpoint_votes_.begin(); it != checkpoint_votes_.end();) {
    if (it->first < stable_seq) {
      it = checkpoint_votes_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = checkpoint_proofs_.begin(); it != checkpoint_proofs_.end();) {
    if (it->first < stable_seq) {
      it = checkpoint_proofs_.erase(it);
    } else {
      ++it;
    }
  }
}

void PbftReplica::StartViewChange(int64_t new_view) {
  if (new_view <= view_ || (in_view_change_ && new_view <= pending_view_)) {
    return;
  }
  in_view_change_ = true;
  pending_view_ = new_view;
  ++view_changes_sent_;

  auto vc = std::make_shared<ViewChangeMsg>();
  vc->new_view = new_view;
  vc->replica = id();
  vc->stable_seq = stable_checkpoint_;
  auto proof = checkpoint_proofs_.find(stable_checkpoint_);
  if (proof != checkpoint_proofs_.end()) vc->checkpoint_proof = proof->second;
  for (const auto& [seq, slot] : slots_) {
    if (seq <= stable_checkpoint_ || !slot.prepared) continue;
    PreparedProof p;
    p.view = slot.view;
    p.seq = seq;
    p.digest = slot.digest;
    p.cmds = slot.cmds;
    p.client_sigs = slot.client_sigs;
    p.primary_sig = slot.primary_sig;
    // Only votes for this slot's (view, digest): slots that lived through
    // a view change can hold stale votes, and one stale vote makes the
    // whole proof fail verification downstream.
    for (const auto& [r, vote] : slot.prepares) {
      if (vote.view == slot.view && vote.digest == slot.digest) {
        p.prepares.push_back(vote);
      }
    }
    // Ship only proofs that verify: slots adopted as executed through a
    // new-view (or state transfer) carry no prepare certificate — peers
    // cover them via their own proofs or state transfer, and an invalid
    // proof would make receivers discard our whole view-change.
    if (p.Verify(*options_.registry, options_.n)) {
      vc->prepared.push_back(std::move(p));
    }
  }
  crypto::Sha256 h;
  h.Update(&vc->new_view, sizeof(vc->new_view));
  h.Update(&vc->stable_seq, sizeof(vc->stable_seq));
  vc->sig = options_.registry->Sign(id(), h.Finish());
  Multicast(Everyone(), vc);

  // If the new view stalls (its primary is also faulty), escalate. Only
  // the newest watchdog stays armed: a stale one surviving a NewView
  // install would count its patience from the wrong (older) negotiation
  // and depose a healthy primary early.
  CancelTimer(view_change_timer_);
  view_change_timer_ = SetTimer(kRequestTimeout * 2, [this, new_view] {
    if (in_view_change_ && pending_view_ == new_view) {
      StartViewChange(new_view + 1);
    }
  });
}

void PbftReplica::ProcessNewView(const NewViewMsg& msg) {
  if (msg.view < view_ || (msg.view == view_ && !in_view_change_)) return;
  // Verify 2f+1 valid view-change messages for this view.
  std::set<int32_t> distinct;
  for (const auto& vc : msg.view_changes) {
    if (vc->new_view != msg.view) return;
    crypto::Sha256 h;
    h.Update(&vc->new_view, sizeof(vc->new_view));
    h.Update(&vc->stable_seq, sizeof(vc->stable_seq));
    if (vc->sig.signer != vc->replica ||
        !options_.registry->Verify(vc->sig, h.Finish())) {
      return;
    }
    distinct.insert(vc->replica);
  }
  if (static_cast<int>(distinct.size()) < 2 * f_ + 1) return;

  // Verify the re-issued pre-prepares match the highest-view prepared
  // proofs in the view-change set (the O computation). Invalid proofs are
  // SKIPPED, not fatal — the builder skips them when computing O, so a
  // receiver that instead rejected the whole message would disagree with
  // the builder about O and discard every new-view containing one bad
  // proof: the cluster then re-campaigns forever without ever installing
  // a view. Skipping is safe because a proof that does not verify cannot
  // bind any (seq, digest), and the digest cross-check below still
  // rejects a primary that reissues against a *valid* proof incorrectly.
  std::map<uint64_t, const PreparedProof*> best;
  for (const auto& vc : msg.view_changes) {
    for (const PreparedProof& p : vc->prepared) {
      if (!p.Verify(*options_.registry, options_.n)) continue;
      auto it = best.find(p.seq);
      if (it == best.end() || p.view > it->second->view) best[p.seq] = &p;
    }
  }
  for (const auto& pp : msg.pre_prepares) {
    if (pp->view != msg.view) return;
    if (!ValidBatch(pp->cmds, pp->client_sigs, *options_.registry)) return;
    auto it = best.find(pp->seq);
    if (it != best.end() && it->second->digest != pp->digest) return;
    if (pp->sig.signer != msg.view % options_.n ||
        !options_.registry->Verify(
            pp->sig, PrePrepareDigest(pp->view, pp->seq, pp->digest))) {
      return;
    }
  }

  // Install the view.
  view_ = msg.view;
  in_view_change_ = false;
  pending_view_ = view_;
  CancelTimer(view_change_timer_);
  view_change_timer_ = 0;
  // GC all view-change bookkeeping at or below the installed view, not
  // just the winner's entry: skipped views (we negotiated v+1 but v+2
  // won) and views that lost a race would otherwise accumulate forever
  // across a view-change storm. Entries for views above the installed one
  // stay — they may be tomorrow's quorum.
  view_change_msgs_.erase(view_change_msgs_.begin(),
                          view_change_msgs_.upper_bound(view_));
  built_new_views_.erase(built_new_views_.begin(),
                         built_new_views_.upper_bound(view_));
  last_new_view_ = std::make_shared<NewViewMsg>(msg);
  // Fresh patience: stale per-request watchdogs from the previous view
  // would depose the new primary before it can re-drive the requests.
  DisarmAllWatchdogs();

  // Adopt the re-issued pre-prepares (resetting per-slot vote state).
  for (const auto& pp : msg.pre_prepares) {
    Slot& slot = slots_[pp->seq];
    bool was_executed = slot.executed;
    if (was_executed && !(BatchDigest(slot.cmds) == pp->digest)) {
      ReportViolation("new-view re-proposes different batch for executed "
                      "seq " +
                      std::to_string(pp->seq));
    }
    slot = Slot();
    slot.view = pp->view;
    slot.pre_prepared = true;
    slot.digest = pp->digest;
    slot.cmds = pp->cmds;
    slot.client_sigs = pp->client_sigs;
    slot.primary_sig = pp->sig;
    slot.executed = was_executed;
    if (was_executed) {
      slot.prepared = true;
      slot.committed = true;
    }
    if (!IsPrimary()) {
      auto prepare = std::make_shared<PrepareMsg>();
      prepare->vote.replica = id();
      prepare->vote.view = pp->view;
      prepare->vote.seq = pp->seq;
      prepare->vote.digest = pp->digest;
      prepare->vote.sig =
          options_.registry->Sign(id(), prepare->vote.SigningDigest());
      Multicast(Everyone(), prepare);
      slot.sent_prepare = true;
    }
  }
  if (IsPrimary()) {
    uint64_t max_seq = last_executed_;
    for (const auto& [seq, slot] : slots_) max_seq = std::max(max_seq, seq);
    next_seq_ = max_seq + 1;
  }
}

void PbftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    HandleRequest(from, m->cmd, m->client_sig);
    return;
  }

  if (const auto* m = dynamic_cast<const PrePrepareMsg*>(&msg)) {
    if (m->view > view_) {
      // We are behind (e.g. restarted through a view change): ask the
      // sender for the NewView proof so we can catch up safely.
      auto sync = std::make_shared<ViewSyncRequestMsg>();
      sync->have_view = view_;
      Send(from, sync);
      return;
    }
    if (m->view < view_ && last_new_view_ != nullptr) {
      Send(from, last_new_view_);  // The sender is the stale one.
      return;
    }
    if (m->view != view_ || in_view_change_) return;
    if (from != PrimaryOf(view_) && from != id()) return;
    if (!(m->digest == BatchDigest(m->cmds))) return;
    if (!ValidBatch(m->cmds, m->client_sigs, *options_.registry)) return;
    if (m->sig.signer != PrimaryOf(view_) ||
        !options_.registry->Verify(
            m->sig, PrePrepareDigest(m->view, m->seq, m->digest))) {
      return;
    }
    Slot& slot = slots_[m->seq];
    if (slot.pre_prepared && slot.view == m->view) {
      if (!(slot.digest == m->digest)) {
        // Equivocation evidence: same (view,seq), different digests. We
        // keep the first and let timeouts depose the primary.
        StartViewChange(view_ + 1);
      }
      return;
    }
    if (slot.pre_prepared && slot.view != m->view) {
      // Leftover slot from an older view that no new-view reissued: its
      // votes belong to the old view and must not count toward this one.
      const bool was_executed = slot.executed;
      slot = Slot();
      slot.executed = was_executed;
      if (was_executed) {
        slot.prepared = true;
        slot.committed = true;
      }
    }
    slot.view = m->view;
    slot.pre_prepared = true;
    slot.digest = m->digest;
    slot.cmds = m->cmds;
    slot.client_sigs = m->client_sigs;
    slot.primary_sig = m->sig;
    for (const smr::Command& cmd : m->cmds) {
      DisarmWatchdog(cmd);
      // Re-arm: from pre-prepare on, the request must commit within the
      // timeout or the primary is suspect.
      WatchRequest(cmd);
    }
    if (!IsPrimary() && !slot.sent_prepare) {
      slot.sent_prepare = true;
      auto prepare = std::make_shared<PrepareMsg>();
      prepare->vote.replica = id();
      prepare->vote.view = m->view;
      prepare->vote.seq = m->seq;
      prepare->vote.digest = m->digest;
      prepare->vote.sig =
          options_.registry->Sign(id(), prepare->vote.SigningDigest());
      Multicast(Everyone(), prepare);
    }
    MaybeSendCommit(m->seq);
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    if (m->vote.view > view_) {
      auto sync = std::make_shared<ViewSyncRequestMsg>();
      sync->have_view = view_;
      Send(from, sync);
      return;
    }
    if (m->vote.view != view_ || in_view_change_) return;
    if (!m->vote.Verify(*options_.registry) || m->vote.replica != from) return;
    Slot& slot = slots_[m->vote.seq];
    if (slot.pre_prepared && !(slot.digest == m->vote.digest)) return;
    slot.prepares[from] = m->vote;
    MaybeSendCommit(m->vote.seq);
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->vote.view != view_ || in_view_change_) return;
    if (!m->vote.Verify(*options_.registry) || m->vote.replica != from) return;
    Slot& slot = slots_[m->vote.seq];
    if (slot.pre_prepared && !(slot.digest == m->vote.digest)) return;
    slot.commits[from] = m->vote;
    // Same view/digest hygiene as the prepare quorum: stale commits from
    // a pre-view-change incarnation of this slot do not count.
    int matching = 0;
    for (const auto& [r, vote] : slot.commits) {
      if (vote.view == slot.view && vote.digest == slot.digest) ++matching;
    }
    if (slot.prepared && !slot.committed && matching >= 2 * f_ + 1) {
      slot.committed = true;
      MaybeExecute();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const CheckpointMsg*>(&msg)) {
    if (!m->vote.Verify(*options_.registry) || m->vote.replica != from) return;
    auto& votes = checkpoint_votes_[m->vote.seq];
    votes[from] = m->vote;
    // Count votes with matching digest.
    std::map<crypto::Digest, int> counts;
    for (const auto& [r, vote] : votes) ++counts[vote.digest];
    for (const auto& [digest, count] : counts) {
      if (count >= 2 * f_ + 1 && m->vote.seq > stable_checkpoint_) {
        stable_checkpoint_ = m->vote.seq;
        std::vector<SignedVote> proof;
        for (const auto& [r, vote] : votes) {
          if (vote.digest == digest) proof.push_back(vote);
        }
        checkpoint_proofs_[m->vote.seq] = std::move(proof);
        GarbageCollect(stable_checkpoint_);
        if (stable_checkpoint_ > last_executed_) {
          // The cluster checkpointed past us: agreement messages for those
          // slots may be garbage-collected already, so catch up by state
          // transfer.
          MaybeRequestStateTransfer();
        }
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const StateRequestMsg*>(&msg)) {
    const std::vector<smr::Command>& executed = executed_commands();
    if (m->have >= executed.size()) return;  // Nothing newer.
    auto reply = std::make_shared<StateReplyMsg>();
    reply->have = m->have;
    reply->last_executed = last_executed_;
    reply->cmds.assign(executed.begin() + m->have, executed.end());
    reply->state_digest = kv().StateDigest();
    Send(from, reply);
    return;
  }

  if (const auto* m = dynamic_cast<const StateReplyMsg*>(&msg)) {
    if (!state_transfer_inflight_ || m->have != executed_commands().size()) {
      return;
    }
    // Key offers by (post-state digest, frontier): f+1 agreeing peers
    // guarantee at least one is correct.
    crypto::Sha256 h;
    h.Update(m->state_digest.data(), m->state_digest.size());
    h.Update(&m->last_executed, sizeof(m->last_executed));
    size_t ncmds = m->cmds.size();
    h.Update(&ncmds, sizeof(ncmds));
    auto& offers = state_offers_[h.Finish()];
    offers[from] = std::make_shared<StateReplyMsg>(*m);
    if (static_cast<int>(offers.size()) < f_ + 1) return;

    // Adopt: replay the command suffix and jump the execution frontier.
    for (const smr::Command& cmd : m->cmds) {
      ApplyAndRecord(cmd);
      DisarmWatchdog(cmd);
    }
    if (!(kv().StateDigest() == m->state_digest)) {
      ReportViolation("state transfer digest mismatch");
    }
    last_executed_ = std::max(last_executed_, m->last_executed);
    state_transfer_inflight_ = false;
    state_offers_.clear();
    // Anything still parked in slots_ at or below the new frontier is done.
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->first <= last_executed_) {
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
    MaybeExecute();
    return;
  }

  if (const auto* m = dynamic_cast<const ViewChangeMsg*>(&msg)) {
    crypto::Sha256 h;
    h.Update(&m->new_view, sizeof(m->new_view));
    h.Update(&m->stable_seq, sizeof(m->stable_seq));
    if (m->sig.signer != m->replica || m->replica != from ||
        !options_.registry->Verify(m->sig, h.Finish())) {
      return;
    }
    if (m->new_view <= view_) return;
    auto copy = std::make_shared<ViewChangeMsg>(*m);
    view_change_msgs_[m->new_view][from] = copy;

    // Join a view change once f+1 replicas demand it (we cannot all be
    // wrong about the primary).
    if (static_cast<int>(view_change_msgs_[m->new_view].size()) >= f_ + 1 &&
        (!in_view_change_ || pending_view_ < m->new_view)) {
      StartViewChange(m->new_view);
    }

    if (PrimaryOf(m->new_view) == id() &&
        static_cast<int>(view_change_msgs_[m->new_view].size()) >=
            2 * f_ + 1 &&
        built_new_views_.insert(m->new_view).second) {
      // Build the new view.
      auto nv = std::make_shared<NewViewMsg>();
      nv->view = m->new_view;
      uint64_t min_s = 0;
      std::map<uint64_t, const PreparedProof*> best;
      for (const auto& [r, vc] : view_change_msgs_[m->new_view]) {
        nv->view_changes.push_back(vc);
        min_s = std::max(min_s, vc->stable_seq);
        for (const PreparedProof& p : vc->prepared) {
          if (!p.Verify(*options_.registry, options_.n)) continue;
          auto it = best.find(p.seq);
          if (it == best.end() || p.view > it->second->view) best[p.seq] = &p;
        }
      }
      uint64_t max_s = min_s;
      for (const auto& [seq, proof] : best) max_s = std::max(max_s, seq);
      for (uint64_t seq = min_s + 1; seq <= max_s; ++seq) {
        auto pp = std::make_shared<PrePrepareMsg>();
        pp->view = m->new_view;
        pp->seq = seq;
        auto it = best.find(seq);
        if (it != best.end()) {
          pp->cmds = it->second->cmds;
          pp->client_sigs = it->second->client_sigs;
        }
        // else: empty batch = the no-op filler.
        pp->digest = BatchDigest(pp->cmds);
        pp->sig = options_.registry->Sign(
            id(), PrePrepareDigest(pp->view, pp->seq, pp->digest));
        nv->pre_prepares.push_back(pp);
      }
      Multicast(Everyone(), nv);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const NewViewMsg*>(&msg)) {
    // Accept a relayed NewView from any replica — its validity rests on
    // the 2f+1 embedded view-change signatures, not on the relayer.
    ProcessNewView(*m);
    return;
  }

  if (const auto* m = dynamic_cast<const ViewSyncRequestMsg*>(&msg)) {
    if (last_new_view_ != nullptr && last_new_view_->view > m->have_view) {
      Send(from, last_new_view_);
    }
    return;
  }
}

void PbftReplica::OnRestart() {
  // Stable state (view_, slots_, store, executed history) survives; we may
  // have missed view changes and checkpoints while down, so probe peers.
  in_view_change_ = false;
  pending_view_ = view_;
  state_transfer_inflight_ = false;
  state_offers_.clear();
  auto sync = std::make_shared<ViewSyncRequestMsg>();
  sync->have_view = view_;
  for (sim::NodeId peer : Everyone()) {
    if (peer != id()) Send(peer, sync);
  }
  MaybeRequestStateTransfer();
}

}  // namespace consensus40::pbft
