#include "seemore/seemore.h"

#include <algorithm>
#include <cassert>

namespace consensus40::seemore {

namespace {

crypto::Digest SlotDigest(uint64_t seq, const smr::Command& cmd) {
  crypto::Sha256 h;
  h.Update(&seq, sizeof(seq));
  crypto::Digest d = cmd.Hash();
  h.Update(d.data(), d.size());
  return h.Finish();
}

}  // namespace

const char* ToString(SeeMoReMode mode) {
  switch (mode) {
    case SeeMoReMode::kMode1:
      return "mode1(trusted primary, centralized)";
    case SeeMoReMode::kMode2:
      return "mode2(trusted primary, decentralized)";
    case SeeMoReMode::kMode3:
      return "mode3(untrusted primary, decentralized)";
  }
  return "?";
}

SeeMoReReplica::SeeMoReReplica(SeeMoReOptions options)
    : SignedReplica(options.n()), options_(options) {
  assert(options_.m >= 1 && options_.c >= 0);
  assert(options_.registry != nullptr);
  // Modes 1/2 place the trusted primary in the private cloud.
  assert(options_.mode == SeeMoReMode::kMode3 || options_.private_n() >= 1);
}

bool SeeMoReReplica::IsProxy() const {
  if (options_.mode == SeeMoReMode::kMode1) return true;  // All decide.
  int first = options_.private_n();
  return id() >= first && id() < first + options_.proxy_count();
}

int SeeMoReReplica::DecisionQuorum() const {
  return options_.mode == SeeMoReMode::kMode1
             ? 2 * options_.m + options_.c + 1
             : 2 * options_.m + 1;
}

std::vector<sim::NodeId> SeeMoReReplica::Proxies() const {
  std::vector<sim::NodeId> proxies;
  if (options_.mode == SeeMoReMode::kMode1) {
    for (int i = 0; i < options_.n(); ++i) proxies.push_back(i);
  } else {
    int first = options_.private_n();
    for (int i = 0; i < options_.proxy_count(); ++i) {
      proxies.push_back(first + i);
    }
  }
  return proxies;
}

bool SeeMoReReplica::MaybeActMaliciouslyOnRequest(const smr::Command&,
                                                  const crypto::Signature&) {
  return false;
}

void SeeMoReReplica::CountedSend(sim::NodeId to, sim::MessagePtr msg) {
  ++messages_sent_;
  Send(to, std::move(msg));
}

void SeeMoReReplica::CountedMulticast(const std::vector<sim::NodeId>& targets,
                                      const sim::MessagePtr& msg) {
  messages_sent_ += targets.size();
  Multicast(targets, msg);
}

void SeeMoReReplica::Decide(uint64_t seq, const smr::Command& cmd) {
  Slot& slot = slots_[seq];
  if (slot.decided) return;
  slot.decided = true;
  slot.cmd = cmd;
  slot.proposed = true;
  MaybeExecute();
}

void SeeMoReReplica::MaybeExecute() {
  while (true) {
    auto it = slots_.find(exec_cursor_);
    if (it == slots_.end() || !it->second.decided) break;
    Slot& slot = it->second;
    if (!slot.executed) {
      slot.executed = true;
      CountedSend(slot.cmd.client,
                  std::make_shared<ReplyMsg>(slot.cmd.client_seq, id(),
                                             ExecuteOnce(slot.cmd)));
    }
    ++exec_cursor_;
  }
}

void SeeMoReReplica::SendAccept(uint64_t seq, Slot& slot) {
  if (slot.sent_accept) return;
  slot.sent_accept = true;
  auto accept = std::make_shared<AcceptMsg>();
  accept->seq = seq;
  accept->digest = slot.digest;
  accept->replica = id();
  accept->sig = options_.registry->Sign(id(), slot.digest);
  if (options_.mode == SeeMoReMode::kMode1) {
    // Centralized decision making: accepts flow back to the primary.
    CountedSend(Primary(), accept);
  } else {
    // Decentralized: proxies gossip accepts among themselves.
    CountedMulticast(Proxies(), accept);
  }
  slot.accepts.insert(id());
}

void SeeMoReReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (const std::string* done = CachedResult(m->cmd)) {
      CountedSend(m->cmd.client,
                  std::make_shared<ReplyMsg>(m->cmd.client_seq, id(), *done));
      return;
    }
    if (!IsPrimary()) {
      CountedSend(Primary(),
                  std::make_shared<RequestMsg>(m->cmd, m->client_sig));
      return;
    }
    if (MaybeActMaliciouslyOnRequest(m->cmd, m->client_sig)) return;
    for (const auto& [seq, slot] : slots_) {
      if (slot.cmd.client == m->cmd.client &&
          slot.cmd.client_seq == m->cmd.client_seq) {
        return;  // In flight.
      }
    }
    auto propose = std::make_shared<ProposeMsg>();
    propose->seq = next_seq_++;
    propose->cmd = m->cmd;
    propose->client_sig = m->client_sig;
    propose->primary_sig = options_.registry->Sign(
        id(), SlotDigest(propose->seq, m->cmd));
    // The proposal reaches every node (so the private cloud stays in sync)
    // in all modes.
    CountedMulticast(Everyone(), propose);
    return;
  }

  if (const auto* m = dynamic_cast<const ProposeMsg*>(&msg)) {
    if (from != Primary()) return;
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    crypto::Digest digest = SlotDigest(m->seq, m->cmd);
    if (m->primary_sig.signer != Primary() ||
        !options_.registry->Verify(m->primary_sig, digest)) {
      return;
    }
    Slot& slot = slots_[m->seq];
    if (slot.proposed && !(slot.digest == digest)) return;  // Equivocation.
    slot.proposed = true;
    slot.cmd = m->cmd;
    slot.client_sig = m->client_sig;
    slot.digest = digest;

    switch (options_.mode) {
      case SeeMoReMode::kMode1:
        // Every node accepts straight back to the trusted primary.
        SendAccept(m->seq, slot);
        break;
      case SeeMoReMode::kMode2:
        // The primary is trusted: proxies accept without validation.
        if (IsProxy()) SendAccept(m->seq, slot);
        break;
      case SeeMoReMode::kMode3: {
        // Untrusted primary: proxies first cross-validate the proposal.
        if (!IsProxy()) break;
        auto validate = std::make_shared<ValidateMsg>();
        validate->seq = m->seq;
        validate->digest = digest;
        validate->replica = id();
        validate->sig = options_.registry->Sign(id(), digest);
        CountedMulticast(Proxies(), validate);
        slot.validations.insert(id());
        break;
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const ValidateMsg*>(&msg)) {
    if (options_.mode != SeeMoReMode::kMode3 || !IsProxy()) return;
    if (m->sig.signer != from ||
        !options_.registry->Verify(m->sig, m->digest)) {
      return;
    }
    Slot& slot = slots_[m->seq];
    if (slot.proposed && !(slot.digest == m->digest)) return;
    slot.validations.insert(from);
    if (slot.proposed && !slot.validated &&
        static_cast<int>(slot.validations.size()) >= DecisionQuorum()) {
      slot.validated = true;
      SendAccept(m->seq, slot);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptMsg*>(&msg)) {
    if (m->sig.signer != from ||
        !options_.registry->Verify(m->sig, m->digest)) {
      return;
    }
    Slot& slot = slots_[m->seq];
    if (slot.proposed && !(slot.digest == m->digest)) return;
    slot.accepts.insert(from);
    if (slot.proposed && !slot.decided &&
        static_cast<int>(slot.accepts.size()) >= DecisionQuorum()) {
      // Decision reached; propagate asynchronously to everyone.
      auto commit = std::make_shared<CommitMsg>();
      commit->seq = m->seq;
      commit->cmd = slot.cmd;
      CountedMulticast(Everyone(), commit);
      Decide(m->seq, slot.cmd);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    // In modes 2/3 the private cloud learns decisions through commits from
    // the deciding proxies; accept after m+1 agreeing senders (at least one
    // correct). Mode 1 commits come from the trusted primary directly.
    if (options_.mode == SeeMoReMode::kMode1) {
      if (from == Primary()) Decide(m->seq, m->cmd);
      return;
    }
    Slot& slot = slots_[m->seq];
    (void)slot;
    commit_votes_[m->seq][m->cmd.Hash()].insert(from);
    if (static_cast<int>(
            commit_votes_[m->seq][m->cmd.Hash()].size()) >= options_.m + 1) {
      Decide(m->seq, m->cmd);
    }
    return;
  }
}

}  // namespace consensus40::seemore
