#include "cheapbft/cheapbft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::cheapbft {

CheapBftReplica::CheapBftReplica(CheapBftOptions options)
    : SignedReplica(2 * options.f + 1), options_(options) {
  assert(options_.f >= 1);
  assert(options_.registry != nullptr && options_.usig != nullptr);
}

std::vector<sim::NodeId> CheapBftReplica::ActiveSet() const {
  std::vector<sim::NodeId> active;
  if (mode_ == CheapMode::kCheapTiny) {
    for (int i = 0; i <= options_.f; ++i) active.push_back(i);
  } else {
    for (int i = 0; i < n(); ++i) active.push_back(i);
  }
  return active;
}

std::vector<sim::NodeId> CheapBftReplica::PassiveSet() const {
  std::vector<sim::NodeId> passive;
  if (mode_ == CheapMode::kCheapTiny) {
    for (int i = options_.f + 1; i < n(); ++i) passive.push_back(i);
  }
  return passive;
}

crypto::Digest CheapBftReplica::BindingDigest(const smr::Command& cmd) const {
  crypto::Sha256 h;
  h.Update(&mode_epoch_, sizeof(mode_epoch_));
  crypto::Digest d = cmd.Hash();
  h.Update(d.data(), d.size());
  return h.Finish();
}

crypto::Digest CheapBftReplica::HistoryDigest(
    const std::vector<smr::Command>& cmds) const {
  crypto::Sha256 h;
  for (const smr::Command& cmd : cmds) {
    crypto::Digest d = cmd.Hash();
    h.Update(d.data(), d.size());
  }
  return h.Finish();
}

void CheapBftReplica::Execute(Slot& slot) {
  if (slot.executed) return;
  slot.executed = true;
  std::string result = ExecuteOnce(slot.cmd);
  DisarmWatchdog(slot.cmd);
  Send(slot.cmd.client, std::make_shared<ReplyMsg>(slot.cmd.client_seq, id(),
                                                   std::move(result)));

  // CheapTiny: propagate state to the passive replicas.
  if (mode_ == CheapMode::kCheapTiny) {
    auto update = std::make_shared<UpdateMsg>();
    update->seq = executed();
    update->cmd = slot.cmd;
    Multicast(PassiveSet(), update);
  }
}

void CheapBftReplica::MaybeExecuteTiny() {
  // Slots below the expected cursor are re-deliveries of commands this
  // replica already adopted through the switch history: answer from cache.
  for (auto& [seq, slot] : slots_) {
    if (seq < expected_counter_ && slot.prepared && !slot.executed &&
        static_cast<int>(slot.commits.size()) >= RequiredCommits()) {
      Execute(slot);
    }
  }
  while (true) {
    auto it = slots_.find(expected_counter_);
    if (it == slots_.end() || !it->second.prepared) break;
    if (static_cast<int>(it->second.commits.size()) < RequiredCommits()) break;
    Execute(it->second);
    ++expected_counter_;
  }
}

void CheapBftReplica::WatchRequest(const smr::Command& cmd) {
  ArmWatchdog(cmd, [this] { Panic(); });
}

void CheapBftReplica::Panic() {
  if (mode_ != CheapMode::kCheapTiny || panicked_) return;
  panicked_ = true;
  mode_ = CheapMode::kSwitching;
  Multicast(Everyone(), std::make_shared<PanicMsg>());

  // Every (formerly) active replica publishes its history; in CheapTiny the
  // all-active commit rule keeps the histories identical prefixes.
  if (id() <= options_.f) {
    auto history = std::make_shared<HistoryMsg>();
    history->cmds = executed_commands();
    history->ui = options_.usig->CreateUi(id(), HistoryDigest(history->cmds));
    Multicast(Everyone(), history);
  }
  proposed_history_ = executed_commands();

  // Close the switch window after a beat: adopt the longest valid history
  // and hand over to MinBFT mode.
  SetTimer(100 * sim::kMillisecond, [this] { FinishSwitch(); });
}

void CheapBftReplica::AdoptHistory(const std::vector<smr::Command>& cmds) {
  // Valid histories extend our executed prefix; apply the missing suffix.
  for (size_t i = executed(); i < cmds.size(); ++i) ExecuteOnce(cmds[i]);
}

void CheapBftReplica::FinishSwitch() {
  if (mode_ != CheapMode::kSwitching) return;
  AdoptHistory(proposed_history_);
  auto sw = std::make_shared<SwitchMsg>();
  sw->history_digest = HistoryDigest(executed_commands());
  sw->ui = options_.usig->CreateUi(id(), sw->history_digest);
  Multicast(Everyone(), sw);

  mode_ = CheapMode::kMinBft;
  mode_epoch_ = 1;
  slots_.clear();
  expected_counter_ = executed() + 1;
  next_fallback_seq_ = executed() + 1;

  // Replay requests that arrived during the switch.
  if (id() == Primary()) {
    auto deferred = std::move(deferred_requests_);
    deferred_requests_.clear();
    for (const auto& [cmd, sig] : deferred) {
      OnMessage(id(), RequestMsg(cmd, sig));
    }
  }
}

void CheapBftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (const std::string* done = CachedResult(m->cmd)) {
      Send(m->cmd.client,
           std::make_shared<ReplyMsg>(m->cmd.client_seq, id(), *done));
      return;
    }
    if (mode_ == CheapMode::kSwitching) {
      deferred_requests_.push_back({m->cmd, m->client_sig});
      return;
    }
    if (id() == Primary()) {
      for (const auto& [seq, slot] : slots_) {
        if (slot.cmd.client == m->cmd.client &&
            slot.cmd.client_seq == m->cmd.client_seq) {
          // In flight: retransmit the prepare (a recipient may have dropped
          // it while mid-switch).
          if (slot.prepare_msg != nullptr) {
            Multicast(ActiveSet(), slot.prepare_msg);
          }
          return;
        }
      }
      auto prepare = std::make_shared<PrepareMsg>();
      prepare->mode_epoch = mode_epoch_;
      prepare->cmd = m->cmd;
      prepare->client_sig = m->client_sig;
      prepare->ui = options_.usig->CreateUi(id(), BindingDigest(m->cmd));
      prepare->seq = mode_ == CheapMode::kCheapTiny ? prepare->ui.counter
                                                    : next_fallback_seq_++;
      slots_[prepare->seq].prepare_msg = prepare;
      Multicast(ActiveSet(), prepare);
    } else {
      Send(Primary(), std::make_shared<RequestMsg>(m->cmd, m->client_sig));
      WatchRequest(m->cmd);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    if (m->mode_epoch != mode_epoch_ || mode_ == CheapMode::kSwitching) return;
    if (from != Primary()) return;
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (!options_.usig->VerifyUi(m->ui, BindingDigest(m->cmd))) return;
    if (mode_ == CheapMode::kCheapTiny && m->seq != m->ui.counter) return;
    Slot& slot = slots_[m->seq];
    if (slot.prepared) return;
    slot.prepared = true;
    slot.cmd = m->cmd;
    slot.client_sig = m->client_sig;
    slot.primary_ui = m->ui;
    slot.commits.insert(from);
    if (!slot.sent_commit && id() != from) {
      slot.sent_commit = true;
      auto commit = std::make_shared<CommitMsg>();
      commit->mode_epoch = mode_epoch_;
      commit->seq = m->seq;
      commit->cmd = m->cmd;
      commit->client_sig = m->client_sig;
      commit->primary_ui = m->ui;
      commit->replica_ui =
          options_.usig->CreateUi(id(), BindingDigest(m->cmd));
      Multicast(ActiveSet(), commit);
      slot.commits.insert(id());
    }
    // Arm panic watchdog: if the slot never commits, someone is faulty.
    if (mode_ == CheapMode::kCheapTiny) WatchRequest(m->cmd);
    MaybeExecuteTiny();
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (m->mode_epoch != mode_epoch_ || mode_ == CheapMode::kSwitching) return;
    if (!options_.usig->VerifyUi(m->primary_ui, BindingDigest(m->cmd)) ||
        !options_.usig->VerifyUi(m->replica_ui, BindingDigest(m->cmd))) {
      return;
    }
    if (m->replica_ui.signer != from) return;
    Slot& slot = slots_[m->seq];
    slot.commits.insert(from);
    if (!slot.prepared) {
      slot.prepared = true;
      slot.cmd = m->cmd;
      slot.client_sig = m->client_sig;
      slot.primary_ui = m->primary_ui;
      slot.commits.insert(m->primary_ui.signer);
      if (!slot.sent_commit && id() != Primary()) {
        slot.sent_commit = true;
        auto commit = std::make_shared<CommitMsg>();
        commit->mode_epoch = mode_epoch_;
        commit->seq = m->seq;
        commit->cmd = m->cmd;
        commit->client_sig = m->client_sig;
        commit->primary_ui = m->primary_ui;
        commit->replica_ui =
            options_.usig->CreateUi(id(), BindingDigest(m->cmd));
        Multicast(ActiveSet(), commit);
        slot.commits.insert(id());
      }
    }
    MaybeExecuteTiny();
    return;
  }

  if (dynamic_cast<const UpdateMsg*>(&msg) != nullptr) {
    const auto& m = static_cast<const UpdateMsg&>(msg);
    if (mode_ != CheapMode::kCheapTiny || id() <= options_.f) return;
    update_votes_[m.seq][m.cmd.Hash()].insert(from);
    update_cmds_[m.seq] = m.cmd;
    // Apply once all f+1 active replicas confirm, in order.
    while (true) {
      auto votes = update_votes_.find(next_update_to_apply_);
      if (votes == update_votes_.end()) break;
      const smr::Command& cmd = update_cmds_[next_update_to_apply_];
      auto per_digest = votes->second.find(cmd.Hash());
      if (per_digest == votes->second.end() ||
          static_cast<int>(per_digest->second.size()) < options_.f + 1) {
        break;
      }
      ExecuteOnce(cmd);
      ++next_update_to_apply_;
    }
    return;
  }

  if (dynamic_cast<const PanicMsg*>(&msg) != nullptr) {
    Panic();
    return;
  }

  if (const auto* m = dynamic_cast<const HistoryMsg*>(&msg)) {
    if (mode_ != CheapMode::kSwitching) return;
    if (!options_.usig->VerifyUi(m->ui, HistoryDigest(m->cmds))) return;
    // Longest valid extension of our prefix wins.
    if (m->cmds.size() > proposed_history_.size()) {
      bool extends = true;
      for (size_t i = 0;
           i < std::min(proposed_history_.size(), m->cmds.size()); ++i) {
        if (!(m->cmds[i] == proposed_history_[i])) {
          extends = false;
          break;
        }
      }
      if (extends) proposed_history_ = m->cmds;
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

void CheapBftClient::Retry() {
  // A timed-out client panics the cluster: CheapTiny cannot mask faults.
  for (int i = 0; i < n(); ++i) {
    Send(i, std::make_shared<CheapBftReplica::PanicMsg>());
  }
  ClosedLoopClient::Retry();
}

}  // namespace consensus40::cheapbft
