#include "minbft/minbft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::minbft {

MinBftReplica::MinBftReplica(MinBftOptions options)
    : SignedReplica(options.n), options_(options) {
  assert(options_.n >= 3 && options_.n % 2 == 1);
  assert(options_.registry != nullptr && options_.usig != nullptr);
  f_ = (options_.n - 1) / 2;
}

crypto::Digest MinBftReplica::PrepareBindingDigest(
    int64_t view, const smr::Command& cmd) const {
  crypto::Sha256 h;
  h.Update(&view, sizeof(view));
  crypto::Digest d = cmd.Hash();
  h.Update(d.data(), d.size());
  return h.Finish();
}

bool MinBftReplica::MaybeActMaliciouslyOnRequest(const smr::Command&,
                                                 const crypto::Signature&) {
  return false;
}

void MinBftReplica::WatchRequest(const smr::Command& cmd) {
  if (CachedResult(cmd) != nullptr) return;
  ArmWatchdog(cmd, [this] { StartViewChange(view_ + 1); });
}

void MinBftReplica::MaybeExecute() {
  while (true) {
    auto it = slots_.find(expected_counter_);
    if (it == slots_.end() || !it->second.prepared) break;
    Slot& slot = it->second;
    if (static_cast<int>(slot.commits.size()) < f_ + 1) break;
    if (!slot.executed) {
      slot.executed = true;
      // A prepare re-issued after a view change is answered, not re-applied.
      std::string result = ExecuteOnce(slot.cmd);
      DisarmWatchdog(slot.cmd);
      Send(slot.cmd.client,
           std::make_shared<ReplyMsg>(view_, slot.cmd.client_seq, id(),
                                      std::move(result)));
    }
    ++expected_counter_;
  }
}

void MinBftReplica::StartViewChange(int64_t new_view) {
  if (new_view <= view_ || (in_view_change_ && new_view <= pending_view_)) {
    return;
  }
  in_view_change_ = true;
  pending_view_ = new_view;

  auto vc = std::make_shared<ViewChangeMsg>();
  vc->new_view = new_view;
  vc->replica = id();
  for (const auto& [counter, slot] : slots_) {
    if (!slot.prepared) continue;
    vc->entries.push_back({counter, slot.cmd, slot.client_sig});
  }
  crypto::Sha256 h;
  h.Update(&new_view, sizeof(new_view));
  vc->ui = options_.usig->CreateUi(id(), h.Finish());
  Multicast(Everyone(), vc);

  SetTimer(kRequestTimeout * 2, [this, new_view] {
    if (in_view_change_ && pending_view_ == new_view) {
      StartViewChange(new_view + 1);
    }
  });
}

void MinBftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (const std::string* done = CachedResult(m->cmd)) {
      Send(m->cmd.client,
           std::make_shared<ReplyMsg>(view_, m->cmd.client_seq, id(), *done));
      return;
    }
    if (IsPrimary() && !in_view_change_) {
      if (MaybeActMaliciouslyOnRequest(m->cmd, m->client_sig)) return;
      // Duplicate assignment guard.
      for (const auto& [counter, slot] : slots_) {
        if (slot.cmd.client == m->cmd.client &&
            slot.cmd.client_seq == m->cmd.client_seq) {
          return;
        }
      }
      auto prepare = std::make_shared<PrepareMsg>();
      prepare->view = view_;
      prepare->cmd = m->cmd;
      prepare->client_sig = m->client_sig;
      prepare->ui = options_.usig->CreateUi(
          id(), PrepareBindingDigest(view_, m->cmd));
      Multicast(Everyone(), prepare);
    } else if (!IsPrimary()) {
      Send(static_cast<sim::NodeId>(view_ % options_.n),
           std::make_shared<RequestMsg>(m->cmd, m->client_sig));
      WatchRequest(m->cmd);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    if (m->view != view_ || in_view_change_) return;
    if (from != view_ % options_.n) return;
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    // The USIG check is what stops primary equivocation: one counter value
    // can certify exactly one (view, command) binding.
    if (!options_.usig->VerifyUi(m->ui, PrepareBindingDigest(view_, m->cmd))) {
      return;
    }
    Slot& slot = slots_[m->ui.counter];
    if (slot.prepared) return;
    slot.prepared = true;
    slot.cmd = m->cmd;
    slot.client_sig = m->client_sig;
    slot.primary_ui = m->ui;
    slot.commits.insert(from);  // The prepare doubles as the primary's commit.
    DisarmWatchdog(m->cmd);
    WatchRequest(m->cmd);  // Now it must commit within the timeout.
    if (!slot.sent_commit && id() != from) {
      slot.sent_commit = true;
      auto commit = std::make_shared<CommitMsg>();
      commit->view = view_;
      commit->cmd = m->cmd;
      commit->client_sig = m->client_sig;
      commit->primary_ui = m->ui;
      commit->replica_ui = options_.usig->CreateUi(
          id(), PrepareBindingDigest(view_, m->cmd));
      Multicast(Everyone(), commit);
      slot.commits.insert(id());
    }
    MaybeExecute();
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->view != view_ || in_view_change_) return;
    if (!options_.usig->VerifyUi(m->primary_ui,
                                 PrepareBindingDigest(view_, m->cmd)) ||
        !options_.usig->VerifyUi(m->replica_ui,
                                 PrepareBindingDigest(view_, m->cmd))) {
      return;
    }
    if (m->replica_ui.signer != from) return;
    Slot& slot = slots_[m->primary_ui.counter];
    slot.commits.insert(from);
    // A commit also proves the prepare's existence; adopt it if the
    // original prepare got here later/not yet.
    if (!slot.prepared) {
      slot.prepared = true;
      slot.cmd = m->cmd;
      slot.client_sig = m->client_sig;
      slot.primary_ui = m->primary_ui;
      slot.commits.insert(m->primary_ui.signer);
      if (!slot.sent_commit && id() != view_ % options_.n) {
        slot.sent_commit = true;
        auto commit = std::make_shared<CommitMsg>();
        commit->view = view_;
        commit->cmd = m->cmd;
        commit->client_sig = m->client_sig;
        commit->primary_ui = m->primary_ui;
        commit->replica_ui = options_.usig->CreateUi(
            id(), PrepareBindingDigest(view_, m->cmd));
        Multicast(Everyone(), commit);
        slot.commits.insert(id());
      }
    }
    MaybeExecute();
    return;
  }

  if (const auto* m = dynamic_cast<const ViewChangeMsg*>(&msg)) {
    crypto::Sha256 h;
    h.Update(&m->new_view, sizeof(m->new_view));
    if (!options_.usig->VerifyUi(m->ui, h.Finish()) ||
        m->ui.signer != from || m->new_view <= view_) {
      return;
    }
    view_changes_[m->new_view][from] = m->entries;

    if (static_cast<int>(view_changes_[m->new_view].size()) >= f_ + 1 &&
        (!in_view_change_ || pending_view_ < m->new_view)) {
      StartViewChange(m->new_view);  // Join.
    }

    if (m->new_view % options_.n == id() &&
        static_cast<int>(view_changes_[m->new_view].size()) >= f_ + 1 &&
        built_new_views_.insert(m->new_view).second) {
      // Build the new view: union of reported prepares, original order.
      std::map<uint64_t, ViewChangeMsg::Entry> merged;
      for (const auto& [r, entries] : view_changes_[m->new_view]) {
        for (const auto& entry : entries) {
          if (!ValidRequest(entry.cmd, entry.client_sig, *options_.registry)) {
            continue;
          }
          merged[entry.counter] = entry;
        }
      }
      auto nv = std::make_shared<NewViewMsg>();
      nv->view = m->new_view;
      for (const auto& [counter, entry] : merged) {
        nv->reissue.push_back(entry);
      }
      crypto::Sha256 nh;
      nh.Update(&nv->view, sizeof(nv->view));
      nv->ui = options_.usig->CreateUi(id(), nh.Finish());
      nv->first_counter = nv->ui.counter + 1;
      Multicast(Everyone(), nv);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const NewViewMsg*>(&msg)) {
    crypto::Sha256 h;
    h.Update(&m->view, sizeof(m->view));
    if (!options_.usig->VerifyUi(m->ui, h.Finish())) return;
    if (m->ui.signer != m->view % options_.n || from != m->ui.signer) return;
    if (m->view < view_ || (m->view == view_ && !in_view_change_)) return;
    // Install the view.
    view_ = m->view;
    in_view_change_ = false;
    pending_view_ = view_;
    slots_.clear();
    expected_counter_ = m->first_counter;
    view_changes_.erase(view_);
    // Fresh patience for the new primary.
    DisarmAllWatchdogs();

    if (IsPrimary()) {
      // Re-issue every surviving prepare with fresh counters (execution
      // side dedups anything already applied).
      for (const auto& entry : m->reissue) {
        auto prepare = std::make_shared<PrepareMsg>();
        prepare->view = view_;
        prepare->cmd = entry.cmd;
        prepare->client_sig = entry.client_sig;
        prepare->ui = options_.usig->CreateUi(
            id(), PrepareBindingDigest(view_, entry.cmd));
        Multicast(Everyone(), prepare);
      }
    }
    return;
  }
}

}  // namespace consensus40::minbft
