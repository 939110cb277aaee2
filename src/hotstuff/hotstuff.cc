#include "hotstuff/hotstuff.h"

#include <algorithm>
#include <cassert>

namespace consensus40::hotstuff {

namespace {

/// Pacemaker timeout: view change is part of normal operation.
constexpr sim::Duration kViewTimeout = 300 * sim::kMillisecond;

}  // namespace

bool QuorumCert::Verify(const crypto::KeyRegistry& registry,
                        int quorum) const {
  if (view == 0 && block_hash == crypto::Digest{}) return true;  // Genesis.
  if (cert.value != block_hash) return false;
  return cert.Verify(registry, quorum);
}

crypto::Digest Block::Hash() const {
  crypto::Sha256 h;
  h.Update(&height, sizeof(height));
  h.Update(parent.data(), parent.size());
  for (const smr::Command& cmd : cmds) {
    crypto::Digest d = cmd.Hash();
    h.Update(d.data(), d.size());
  }
  h.Update(justify.block_hash.data(), justify.block_hash.size());
  h.Update(&justify.view, sizeof(justify.view));
  return h.Finish();
}

int Block::ByteSize() const {
  int size = 80 + crypto::AggregateCertificate::kCombinedByteSize;
  for (const smr::Command& cmd : cmds) size += 40 + cmd.ByteSize();
  return size;
}

HotStuffReplica::HotStuffReplica(HotStuffOptions options)
    : SignedReplica(options.n), options_(options) {
  assert(options_.n >= 4 && (options_.n - 1) % 3 == 0);
  assert(options_.registry != nullptr);
  f_ = (options_.n - 1) / 3;
  quorum_ = 2 * f_ + 1;
  // Genesis block at height 0 with zero hash.
  Block genesis;
  genesis.height = 0;
  blocks_[crypto::Digest{}] = genesis;
  // Note: genesis.Hash() != Digest{}, but the chain refers to genesis by
  // the zero digest by convention.
}

const Block* HotStuffReplica::GetBlock(const crypto::Digest& hash) const {
  auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : &it->second;
}

void HotStuffReplica::OnStart() {
  // Pacemaker bootstrap: everyone reports its (genesis) high QC to the
  // leader of view 1.
  auto nv = std::make_shared<NewViewMsg>();
  nv->view = cur_view_;
  nv->high_qc = high_qc_;
  Send(LeaderOf(cur_view_), nv);
  ResetViewTimer();
}

void HotStuffReplica::ResetViewTimer() {
  CancelTimer(view_timer_);
  sim::Duration t =
      kViewTimeout +
      static_cast<sim::Duration>(rng().NextBounded(kViewTimeout / 2));
  view_timer_ = SetTimer(t, [this] {
    // Pacemaker: give up on this view.
    AdvanceView(cur_view_ + 1);
    auto nv = std::make_shared<NewViewMsg>();
    nv->view = cur_view_;
    nv->high_qc = high_qc_;
    Send(LeaderOf(cur_view_), nv);
    ResetViewTimer();
  });
}

void HotStuffReplica::AdvanceView(uint64_t view) {
  if (view <= cur_view_) return;
  cur_view_ = view;
  ResetViewTimer();
  if (LeaderOf(cur_view_) == id()) TryPropose();
}

bool HotStuffReplica::SafeNode(const Block& block) const {
  // Liveness rule: the justify is newer than our lock.
  if (block.justify.view > locked_qc_.view) return true;
  // Safety rule: the block extends the locked block.
  const Block* b = GetBlock(block.parent);
  while (b != nullptr) {
    crypto::Digest h = b->height == 0 ? crypto::Digest{} : b->Hash();
    if (h == locked_qc_.block_hash) return true;
    if (b->height == 0) break;
    b = GetBlock(b->parent);
  }
  return false;
}

void HotStuffReplica::TryPropose() {
  if (LeaderOf(cur_view_) != id()) return;
  if (proposed_views_.count(cur_view_) > 0) return;
  // Propose when there is work: fresh commands, or an uncommitted
  // command-bearing block that still needs descendants to complete its
  // three-chain (empty filler blocks drive such commits; once only empty
  // blocks trail, the pipeline is drained and we go quiet).
  bool chain_unflushed = false;
  crypto::Digest cursor = high_qc_.block_hash;
  while (cursor != last_committed_hash_) {
    const Block* b = GetBlock(cursor);
    if (b == nullptr || b->height <= last_committed_height_) break;
    if (!b->cmds.empty()) {
      chain_unflushed = true;
      break;
    }
    cursor = b->parent;
  }
  if (pending_.empty() && !chain_unflushed) return;

  proposed_views_.insert(cur_view_);
  ++blocks_proposed_;
  Block block;
  block.height = cur_view_;
  block.parent = high_qc_.block_hash;
  block.justify = high_qc_;
  int batched = 0;
  while (!pending_.empty() && batched < options_.batch_size) {
    auto [cmd, sig] = pending_.front();
    pending_.pop_front();
    pending_keys_.erase({cmd.client, cmd.client_seq});
    if (CachedResult(cmd) != nullptr) continue;
    block.cmds.push_back(std::move(cmd));
    block.cmd_sigs.push_back(sig);
    ++batched;
  }
  auto proposal = std::make_shared<ProposalMsg>();
  proposal->block = std::move(block);
  Multicast(Everyone(), proposal);
}

bool HotStuffReplica::IsCommittedAncestor(const crypto::Digest& hash,
                                          uint64_t height) const {
  crypto::Digest cursor = last_committed_hash_;
  while (true) {
    if (cursor == hash) return true;
    const Block* b = GetBlock(cursor);
    if (b == nullptr || b->height <= height) return false;
    cursor = b->parent;
  }
}

void HotStuffReplica::CommitChainUpTo(const crypto::Digest& hash) {
  // Collect the uncommitted chain ending at `hash`, then execute in order.
  std::vector<const Block*> chain;
  crypto::Digest cursor = hash;
  while (cursor != last_committed_hash_) {
    const Block* b = GetBlock(cursor);
    if (b == nullptr) return;  // Missing ancestry; cannot commit yet.
    if (b->height <= last_committed_height_) {
      // Dropping at-or-below the committed height without having passed
      // through the committed head. If the commit TARGET itself is an
      // already-committed ancestor, this is just a stale decision — QCs
      // arrive out of order under delay spikes and withhold windows — and
      // there is nothing to do. Anything else (a chain that bypasses the
      // head and merges below it) is a real fork of committed state.
      if (chain.empty() && IsCommittedAncestor(cursor, b->height)) return;
      ReportViolation("commit of block at height " +
                      std::to_string(b->height) + " below committed height " +
                      std::to_string(last_committed_height_));
      return;
    }
    chain.push_back(b);
    cursor = b->parent;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Block& b = **it;
    for (const smr::Command& cmd : b.cmds) {
      Send(cmd.client,
           std::make_shared<ReplyMsg>(cmd.client_seq, id(), ExecuteOnce(cmd)));
    }
    last_committed_hash_ = b.Hash();
    last_committed_height_ = b.height;
  }
}

void HotStuffReplica::ProcessBlock(const Block& block) {
  // One-chain: update high QC.
  if (block.justify.view > high_qc_.view) {
    high_qc_ = block.justify;
    if (LeaderOf(cur_view_) == id()) TryPropose();
  }
  // Two-chain: update the lock. b1 = justify target of block's parent QC.
  const Block* b2 = GetBlock(block.justify.block_hash);
  if (b2 == nullptr) return;
  if (b2->justify.view > locked_qc_.view) locked_qc_ = b2->justify;
  // Three-chain: commit. b2 <- b1 <- b0 via justify links with direct
  // parent edges.
  const Block* b1 = GetBlock(b2->justify.block_hash);
  if (b1 == nullptr) return;
  const Block* b0 = GetBlock(b1->justify.block_hash);
  if (b0 == nullptr) return;
  bool direct2 = b2->parent == b2->justify.block_hash;
  bool direct1 = b1->parent == b1->justify.block_hash;
  if (direct2 && direct1 && b0->height > 0) {
    CommitChainUpTo(b1->justify.block_hash);
  }
}

void HotStuffReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (!ValidRequest(m->cmd, m->client_sig, *options_.registry)) return;
    if (const std::string* done = CachedResult(m->cmd)) {
      Send(m->cmd.client,
           std::make_shared<ReplyMsg>(m->cmd.client_seq, id(), *done));
      return;
    }
    if (pending_keys_.insert({m->cmd.client, m->cmd.client_seq}).second) {
      pending_.push_back({m->cmd, m->client_sig});
    }
    if (LeaderOf(cur_view_) == id()) TryPropose();
    return;
  }

  if (const auto* m = dynamic_cast<const ProposalMsg*>(&msg)) {
    const Block& block = m->block;
    if (from != LeaderOf(block.height)) return;
    if (!block.justify.Verify(*options_.registry, quorum_)) return;
    for (size_t i = 0; i < block.cmds.size(); ++i) {
      if (!ValidRequest(block.cmds[i],
                        i < block.cmd_sigs.size() ? block.cmd_sigs[i]
                                                  : crypto::Signature{},
                        *options_.registry)) {
        return;
      }
    }
    crypto::Digest hash = block.Hash();
    blocks_[hash] = block;
    if (block.height > cur_view_) AdvanceView(block.height);
    ResetViewTimer();  // The view made progress.

    ProcessBlock(block);

    if (block.height >= cur_view_ && block.height > last_voted_height_ &&
        SafeNode(block)) {
      last_voted_height_ = block.height;
      auto vote = std::make_shared<VoteMsg>();
      vote->block_hash = hash;
      vote->view = block.height;
      vote->share = options_.registry->Sign(id(), hash);
      Send(LeaderOf(block.height + 1), vote);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const VoteMsg*>(&msg)) {
    if (LeaderOf(m->view + 1) != id()) return;
    if (m->share.signer != from ||
        !options_.registry->Verify(m->share, m->block_hash)) {
      return;
    }
    auto& shares = votes_[{m->view, m->block_hash}];
    shares[from] = m->share;
    if (static_cast<int>(shares.size()) == quorum_) {
      QuorumCert qc;
      qc.block_hash = m->block_hash;
      qc.view = m->view;
      qc.cert.value = m->block_hash;
      for (const auto& [replica, share] : shares) {
        qc.cert.shares.push_back(share);
      }
      if (qc.view >= high_qc_.view) high_qc_ = qc;
      AdvanceView(m->view + 1);
      TryPropose();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const NewViewMsg*>(&msg)) {
    if (LeaderOf(m->view) != id()) return;
    if (!m->high_qc.Verify(*options_.registry, quorum_)) return;
    if (m->high_qc.view > high_qc_.view) high_qc_ = m->high_qc;
    new_views_[m->view][from] = m->high_qc;
    if (static_cast<int>(new_views_[m->view].size()) >= quorum_ &&
        m->view >= cur_view_) {
      AdvanceView(m->view);
      TryPropose();
    }
    return;
  }
}

}  // namespace consensus40::hotstuff
