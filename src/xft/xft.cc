#include "xft/xft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::xft {

namespace {

crypto::Digest SlotDigest(int64_t view, uint64_t seq,
                          const smr::Command& cmd) {
  crypto::Sha256 h;
  h.Update(&view, sizeof(view));
  h.Update(&seq, sizeof(seq));
  crypto::Digest d = cmd.Hash();
  h.Update(d.data(), d.size());
  return h.Finish();
}

}  // namespace

bool InAnarchy(int n, int c, int m, int p) {
  return m > 0 && (c + m + p) > (n - 1) / 2;
}

XftReplica::XftReplica(XftOptions options)
    : SignedReplica(options.n), options_(options) {
  assert(options_.n >= 3 && options_.n % 2 == 1);
  assert(options_.registry != nullptr);
  const int n = options_.n;
  const int size = f() + 1;
  std::set<std::vector<sim::NodeId>> windows;
  for (int v = 0; v < n; ++v) {
    std::vector<sim::NodeId> window;
    for (int k = 0; k < size; ++k) window.push_back((v + k) % n);
    groups_.push_back(window);
    std::sort(window.begin(), window.end());
    windows.insert(window);
  }
  // The other subsets, lexicographically: c steps through the sorted
  // (f+1)-combinations of 0..n-1.
  std::vector<sim::NodeId> c;
  for (int k = 0; k < size; ++k) c.push_back(k);
  while (true) {
    if (windows.count(c) == 0) groups_.push_back(c);
    int i = size - 1;
    while (i >= 0 && c[i] == n - size + i) --i;
    if (i < 0) break;
    ++c[i];
    for (int k = i + 1; k < size; ++k) c[k] = c[k - 1] + 1;
  }
}

bool XftReplica::InSyncGroup() const {
  for (sim::NodeId member : SyncGroup(view_)) {
    if (member == id()) return true;
  }
  return false;
}

void XftReplica::WatchRequest(const smr::Command& cmd) {
  if (CachedResult(cmd) != nullptr) return;
  ArmWatchdog(cmd, [this, cmd] {
    StartViewChange(view_ + 1);
    // Stay armed until the request settles: an armed watchdog is the
    // signal that keeps the view-change escalation alive (and its absence
    // is what lets a stale campaign stand down).
    WatchRequest(cmd);
  });
}

void XftReplica::MaybeExecute() {
  while (true) {
    auto it = slots_.find(exec_cursor_);
    if (it == slots_.end() || !it->second.prepared) break;
    Slot& slot = it->second;
    // XPaxos common case: the WHOLE synchronous group must have
    // replicated (f+1 commits including the leader's implicit one).
    if (static_cast<int>(slot.commits.size()) < f() + 1) break;
    if (!slot.executed) {
      slot.executed = true;
      std::string result = ExecuteOnce(slot.cmd);
      DisarmWatchdog(slot.cmd);
      Send(slot.cmd.client,
           std::make_shared<ReplyMsg>(view_, slot.cmd.client_seq, id(),
                                      std::move(result)));
      // Lazy replication to every peer: non-group replicas learn the log
      // this way, and a group member that missed a commit quorum (e.g. it
      // installed the view after the quorum formed) catches up instead of
      // stalling behind a gap it can never fill. The attached commit
      // certificate makes one update sufficient: after a mid-commit crash
      // inside the group there may be fewer than f+1 live executors, so
      // counting matching senders could never reach a quorum.
      auto update = std::make_shared<UpdateMsg>();
      update->view = view_;
      update->seq = exec_cursor_;
      update->cmd = slot.cmd;
      const crypto::Digest digest =
          SlotDigest(view_, exec_cursor_, slot.cmd);
      for (const auto& [signer, sig] : slot.commit_sigs) {
        if (sig.signer == signer && options_.registry->Verify(sig, digest)) {
          update->cert.push_back(sig);
        }
      }
      for (sim::NodeId r : Everyone()) {
        if (r != id()) Send(r, update);
      }
    }
    ++exec_cursor_;
  }
}

void XftReplica::RetransmitLiveSlots() {
  // Re-multicast every slot of the current view: members answer duplicate
  // prepares by re-multicasting their commits, so both prepare gaps and
  // commit gaps at a straggling member get refilled.
  for (const auto& [seq, slot] : slots_) {
    if (slot.prepare_msg != nullptr) {
      Multicast(SyncGroup(view_), slot.prepare_msg);
    }
  }
}

void XftReplica::StartViewChange(int64_t new_view) {
  if (new_view <= view_ || (in_view_change_ && new_view <= pending_view_)) {
    return;
  }
  in_view_change_ = true;
  pending_view_ = new_view;

  auto vc = std::make_shared<ViewChangeMsg>();
  vc->new_view = new_view;
  vc->replica = id();
  for (const auto& [seq, slot] : slots_) {
    if (slot.prepared) vc->entries.push_back({seq, slot.cmd, slot.client_sig});
  }
  crypto::Sha256 h;
  h.Update(&new_view, sizeof(new_view));
  vc->sig = options_.registry->Sign(id(), h.Finish());
  Multicast(Everyone(), vc);

  CancelTimer(view_change_timer_);
  view_change_timer_ =
      SetTimer(kRequestTimeout * 2, [this, new_view] {
        if (!in_view_change_ || pending_view_ != new_view) return;
        if (!AnyWatchdogArmed()) {
          // Every request that made us suspicious has since been settled:
          // stand down instead of campaigning against a working view.
          in_view_change_ = false;
          pending_view_ = view_;
          return;
        }
        StartViewChange(new_view + 1);
      });
}

void XftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (const std::string* done = CachedResult(m->cmd)) {
      Send(m->cmd.client,
           std::make_shared<ReplyMsg>(view_, m->cmd.client_seq, id(), *done));
      // A retry for a request the leader already executed means some
      // group member is stuck behind a message gap and cannot reply —
      // the cached re-reply alone can never complete the client's f+1
      // quorum. Retransmit so the straggler catches up.
      if (id() == Leader(view_) && !in_view_change_) RetransmitLiveSlots();
      return;
    }
    if (id() == Leader(view_) && !in_view_change_) {
      bool known = false;
      for (const auto& [seq, slot] : slots_) {
        known |= (slot.cmd.client == m->cmd.client &&
                  slot.cmd.client_seq == m->cmd.client_seq);
      }
      if (known) {
        // A retry for a slot we already proposed means some group member
        // is stuck — possibly on an earlier slot than this request's (its
        // execution is in-order).
        RetransmitLiveSlots();
        return;
      }
      auto prepare = std::make_shared<PrepareMsg>();
      prepare->view = view_;
      prepare->seq = next_seq_++;
      prepare->cmd = m->cmd;
      prepare->client_sig = m->client_sig;
      prepare->leader_sig = options_.registry->Sign(
          id(), SlotDigest(view_, prepare->seq, m->cmd));
      slots_[prepare->seq].prepare_msg = prepare;
      Multicast(SyncGroup(view_), prepare);
    } else if (id() != Leader(view_)) {
      Send(Leader(view_), std::make_shared<RequestMsg>(m->cmd, m->client_sig));
      // Every replica (inside or outside the group) watches the request:
      // a faulty synchronous group must be replaced by the whole cluster.
      WatchRequest(m->cmd);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    // Note: a prepare for the CURRENT view is accepted even while this
    // replica campaigns for the next one — if the present leader is alive
    // after all, letting it finish is both safe (view-tagged) and the
    // fastest way back to a stable view.
    if (m->view != view_) return;
    if (from != Leader(view_) || !InSyncGroup()) return;
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (m->leader_sig.signer != Leader(view_) ||
        !options_.registry->Verify(m->leader_sig,
                                   SlotDigest(m->view, m->seq, m->cmd))) {
      return;
    }
    Slot& slot = slots_[m->seq];
    slot.commit_sigs[from] = m->leader_sig;
    if (slot.prepared) {
      // Duplicate prepare = leader-driven retransmission (client retry).
      // Re-multicast our commit: a member that installed the view after
      // the original commit round dropped those commits as wrong-view and
      // can only fill its quorum through a repeat like this.
      if (slot.sent_commit) {
        auto commit = std::make_shared<CommitMsg>();
        commit->view = view_;
        commit->seq = m->seq;
        commit->digest = SlotDigest(view_, m->seq, slot.cmd);
        commit->replica = id();
        commit->sig = options_.registry->Sign(id(), commit->digest);
        Multicast(SyncGroup(view_), commit);
      }
      return;
    }
    slot.prepared = true;
    slot.cmd = m->cmd;
    slot.client_sig = m->client_sig;
    slot.commits.insert(from);  // The leader's prepare is its commit.
    DisarmWatchdog(m->cmd);
    WatchRequest(m->cmd);  // Must commit within the timeout now.
    if (!slot.sent_commit && id() != from) {
      slot.sent_commit = true;
      auto commit = std::make_shared<CommitMsg>();
      commit->view = view_;
      commit->seq = m->seq;
      commit->digest = SlotDigest(m->view, m->seq, m->cmd);
      commit->replica = id();
      commit->sig = options_.registry->Sign(id(), commit->digest);
      Multicast(SyncGroup(view_), commit);
      slot.commits.insert(id());
      slot.commit_sigs[id()] = commit->sig;
    }
    MaybeExecute();
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->view != view_ || !InSyncGroup()) return;
    if (m->sig.signer != from ||
        !options_.registry->Verify(m->sig, m->digest)) {
      return;
    }
    Slot& slot = slots_[m->seq];
    if (slot.prepared &&
        SlotDigest(m->view, m->seq, slot.cmd) != m->digest) {
      return;  // Mismatched commit.
    }
    slot.commits.insert(from);
    slot.commit_sigs[from] = m->sig;
    MaybeExecute();
    return;
  }

  if (const auto* m = dynamic_cast<const UpdateMsg*>(&msg)) {
    if (m->seq < exec_cursor_) return;  // Already past this position.
    // Validate the commit certificate: f+1 distinct signers over the
    // slot digest. A valid certificate proves the whole synchronous group
    // of m->view replicated this command at this position.
    const crypto::Digest digest = SlotDigest(m->view, m->seq, m->cmd);
    std::set<sim::NodeId> signers;
    for (const crypto::Signature& sig : m->cert) {
      if (sig.signer >= 0 && sig.signer < options_.n &&
          options_.registry->Verify(sig, digest)) {
        signers.insert(sig.signer);
      }
    }
    if (static_cast<int>(signers.size()) < f() + 1) return;
    PendingUpdate& pending = pending_updates_[m->seq];
    if (pending.view <= m->view) pending = {m->view, m->cmd};
    // Adopt in order; certificates from an older era are discarded (their
    // slot numbering no longer matches) and re-arrive with fresh views.
    while (true) {
      auto it = pending_updates_.find(exec_cursor_);
      if (it == pending_updates_.end()) break;
      if (it->second.view != view_) {
        pending_updates_.erase(it);
        break;
      }
      const smr::Command cmd = it->second.cmd;
      std::string result = ExecuteOnce(cmd);
      // The request is settled for this replica: a still-armed watchdog
      // for it would depose a view that owes us nothing.
      DisarmWatchdog(cmd);
      // Reply as well: adoption may preempt this replica's own commit
      // path (the certificate proves the same commit), and the client
      // may be waiting on this very reply for its f+1 quorum.
      Send(cmd.client, std::make_shared<ReplyMsg>(view_, cmd.client_seq, id(),
                                                  std::move(result)));
      pending_updates_.erase(it);
      ++exec_cursor_;
    }
    return;
  }

  if (const auto* m = dynamic_cast<const ViewChangeMsg*>(&msg)) {
    crypto::Sha256 h;
    h.Update(&m->new_view, sizeof(m->new_view));
    if (m->sig.signer != m->replica || m->replica != from ||
        !options_.registry->Verify(m->sig, h.Finish())) {
      return;
    }
    if (m->new_view <= view_) return;
    view_changes_[m->new_view][from] = m->entries;

    // Join once a majority-crossing set demands change.
    if (static_cast<int>(view_changes_[m->new_view].size()) >= f() + 1 &&
        (!in_view_change_ || pending_view_ < m->new_view)) {
      StartViewChange(m->new_view);
    }

    if (Leader(m->new_view) == id() &&
        static_cast<int>(view_changes_[m->new_view].size()) >= f() + 1 &&
        built_new_views_.insert(m->new_view).second) {
      std::map<uint64_t, ViewChangeMsg::Entry> merged;
      for (const auto& [r, entries] : view_changes_[m->new_view]) {
        for (const auto& entry : entries) {
          if (!ValidRequest(entry.cmd, entry.client_sig, *options_.registry)) {
            continue;
          }
          merged[entry.seq] = entry;
        }
      }
      auto nv = std::make_shared<NewViewMsg>();
      nv->view = m->new_view;
      // Re-number the merged suffix here, once: every group member adopts
      // these seqs verbatim at install time, so the whole group agrees on
      // the slot numbering even if their execution cursors drifted.
      uint64_t seq = executed() + 1;
      for (const auto& [old_seq, entry] : merged) {
        nv->reissue.push_back(entry);
        nv->reissue.back().seq = seq++;
      }
      crypto::Sha256 nh;
      nh.Update(&nv->view, sizeof(nv->view));
      nv->sig = options_.registry->Sign(id(), nh.Finish());
      Multicast(Everyone(), nv);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const NewViewMsg*>(&msg)) {
    crypto::Sha256 h;
    h.Update(&m->view, sizeof(m->view));
    if (m->sig.signer != Leader(m->view) || from != m->sig.signer ||
        !options_.registry->Verify(m->sig, h.Finish())) {
      return;
    }
    if (m->view < view_ || (m->view == view_ && !in_view_change_)) return;
    // Validate the re-issued suffix before touching any state: a malformed
    // new-view (bad client signature, non-ascending seqs) is ignored whole
    // so that every group member that installs agrees on the numbering.
    uint64_t prev_seq = 0;
    for (const auto& entry : m->reissue) {
      if (entry.seq <= prev_seq ||
          !ValidRequest(entry.cmd, entry.client_sig, *options_.registry)) {
        return;
      }
      prev_seq = entry.seq;
    }
    view_ = m->view;
    in_view_change_ = false;
    pending_view_ = view_;
    CancelTimer(view_change_timer_);
    view_change_timer_ = 0;
    slots_.clear();
    exec_cursor_ = executed() + 1;
    view_changes_.erase(view_changes_.begin(),
                        view_changes_.upper_bound(view_));
    built_new_views_.erase(built_new_views_.begin(),
                           built_new_views_.upper_bound(view_));
    // The new view gets fresh patience: stale per-request watchdogs from
    // the old view would immediately re-depose it.
    DisarmAllWatchdogs();

    // Adopt the re-issued suffix straight from the (signed) new-view, so
    // the install and the re-adoption are atomic. Separate prepare
    // messages could race ahead of the new-view in the network and be
    // dropped as wrong-view, leaving a permanent gap below the execution
    // cursor that nothing retransmits.
    if (InSyncGroup()) {
      const bool leading = (id() == Leader(view_));
      if (leading) next_seq_ = executed() + 1;
      for (const auto& entry : m->reissue) {
        Slot& slot = slots_[entry.seq];
        slot.prepared = true;
        slot.cmd = entry.cmd;
        slot.client_sig = entry.client_sig;
        slot.commits.insert(Leader(view_));
        if (leading) {
          // Keep a signed prepare around for the client-retry
          // retransmission path; no need to multicast it now.
          auto prepare = std::make_shared<PrepareMsg>();
          prepare->view = view_;
          prepare->seq = entry.seq;
          prepare->cmd = entry.cmd;
          prepare->client_sig = entry.client_sig;
          prepare->leader_sig = options_.registry->Sign(
              id(), SlotDigest(view_, entry.seq, entry.cmd));
          slot.prepare_msg = prepare;
          next_seq_ = entry.seq + 1;
        } else {
          slot.sent_commit = true;
          auto commit = std::make_shared<CommitMsg>();
          commit->view = view_;
          commit->seq = entry.seq;
          commit->digest = SlotDigest(view_, entry.seq, entry.cmd);
          commit->replica = id();
          commit->sig = options_.registry->Sign(id(), commit->digest);
          Multicast(SyncGroup(view_), commit);
          slot.commits.insert(id());
        }
        WatchRequest(entry.cmd);  // Must commit within the timeout.
      }
      MaybeExecute();
    }
    return;
  }
}

}  // namespace consensus40::xft
