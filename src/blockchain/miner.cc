#include "blockchain/miner.h"

#include <cassert>

namespace consensus40::blockchain {

Miner::Miner(MinerNetworkParams* params, int num_miners, double hash_power)
    : params_(params),
      num_miners_(num_miners),
      hash_power_(hash_power),
      tree_([params] {
        ChainOptions opts = params->chain;
        opts.verify_pow = false;  // Macro simulation.
        return opts;
      }()) {
  assert(hash_power > 0);
  if (params_->initial_difficulty <= 0) {
    params_->initial_difficulty = params_->chain.initial_target.Difficulty();
  }
}

crypto::Digest Miner::MiningParent() const { return tree_.BestTip(); }

double Miner::MeanTimeToBlockSecs() const {
  // rate_i = h_i * D0 / (D * H0 * interval): calibrated so that at the
  // initial difficulty and hash rate the whole network finds one block per
  // block_interval_secs; doubling the hash power halves the interval until
  // the retarget doubles D.
  double difficulty = tree_.NextTarget(MiningParent()).Difficulty();
  double rate = hash_power_ * params_->initial_difficulty /
                (difficulty * params_->initial_hash_total *
                 params_->chain.block_interval_secs);
  return 1.0 / rate;
}

void Miner::SetHashPower(double hash_power) {
  assert(hash_power > 0);
  hash_power_ = hash_power;
  ScheduleMining();
}

void Miner::SubmitTransaction(const Transaction& tx) {
  if (!mempool_.Add(tx)) return;
  auto msg = std::make_shared<TxMsg>(tx);
  for (int peer = 0; peer < num_miners_; ++peer) {
    if (peer != id()) Send(peer, msg);
  }
}

void Miner::OnStart() { ScheduleMining(); }

void Miner::ScheduleMining() {
  // Energy proxy: hash work ground since the last schedule point.
  expected_hashes_ +=
      hash_power_ * static_cast<double>(Now() - last_rate_update_) / 1e6;
  last_rate_update_ = Now();

  CancelTimer(mining_timer_);
  double mean_secs = MeanTimeToBlockSecs();
  double delay_secs = rng().Exponential(mean_secs);
  auto delay = static_cast<sim::Duration>(delay_secs * sim::kSecond);
  if (delay < 1) delay = 1;
  mining_timer_ = SetTimer(delay, [this] { OnBlockFound(); });
}

Block Miner::BuildBlock(const crypto::Digest& parent) {
  Block block;
  block.header.prev_hash = parent;
  block.header.timestamp = static_cast<uint32_t>(Now() / sim::kSecond);
  block.header.target = tree_.NextTarget(parent);
  block.miner = id();
  block.reward = tree_.RewardAt(tree_.HeightOf(parent) + 1);
  block.txs = mempool_.Select(params_->block_tx_limit);
  block.header.merkle_root = block.ComputeMerkleRoot();
  block.header.nonce = rng().Next();  // Macro sim: PoW not re-verified.
  return block;
}

void Miner::OnBlockFound() {
  Block block = BuildBlock(MiningParent());
  Status s = tree_.AddBlock(block);
  if (s.ok()) {
    ++blocks_mined_;
    mempool_.SyncWithChain(tree_);
    auto msg = std::make_shared<BlockMsg>(block);
    for (int peer = 0; peer < num_miners_; ++peer) {
      if (peer != id()) Send(peer, msg);
    }
  }
  ScheduleMining();
}

void Miner::OnChainUpdated(const crypto::Digest& old_tip,
                           const crypto::Digest& new_tip) {
  if (!(old_tip == new_tip)) {
    // Longest-chain rule: abandon the current attempt, mine on the new tip
    // (the exponential clock is memoryless, so resampling is faithful);
    // reorged-out transactions went back to the mempool in SyncWithChain.
    ScheduleMining();
  }
}

void Miner::TryConnectOrphans() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (tree_.GetBlock(it->first) != nullptr ||
          it->first == crypto::Digest{}) {
        Block block = it->second;
        it = orphans_.erase(it);
        tree_.AddBlock(block);
        progress = true;
      } else {
        ++it;
      }
    }
  }
}

void Miner::OnMessage(sim::NodeId, const sim::Message& msg) {
  if (const auto* t = dynamic_cast<const TxMsg*>(&msg)) {
    mempool_.Add(t->tx);
    return;
  }
  const auto* m = dynamic_cast<const BlockMsg*>(&msg);
  if (m == nullptr) return;
  crypto::Digest old_tip = tree_.BestTip();
  Status s = tree_.AddBlock(m->block);
  if (s.IsNotFound()) {
    // Orphan: parent still in flight.
    orphans_.insert({m->block.header.prev_hash, m->block});
    return;
  }
  TryConnectOrphans();
  mempool_.SyncWithChain(tree_);
  OnExternalBlock(m->block);
  OnChainUpdated(old_tip, tree_.BestTip());
}

// ---------------------------------------------------------------------------
// Selfish miner (Eyal & Sirer 2014)
// ---------------------------------------------------------------------------

crypto::Digest SelfishMiner::MiningParent() const {
  if (!private_blocks_.empty()) return private_blocks_.back().Hash();
  return tree_.BestTip();
}

void SelfishMiner::OnExternalBlock(const Block& block) {
  uint64_t h = tree_.HeightOf(block.Hash());
  public_height_ = std::max(public_height_, h);
}

void SelfishMiner::PublishFront(size_t count) {
  for (size_t i = 0; i < count && !private_blocks_.empty(); ++i) {
    const Block& block = private_blocks_.front();
    public_height_ =
        std::max(public_height_, tree_.HeightOf(block.Hash()));
    auto msg = std::make_shared<BlockMsg>(block);
    for (int peer = 0; peer < num_miners_; ++peer) {
      if (peer != id()) Send(peer, msg);
    }
    private_blocks_.erase(private_blocks_.begin());
  }
}

void SelfishMiner::OnBlockFound() {
  // Extend the private chain and keep the block to ourselves.
  Block block = BuildBlock(MiningParent());
  if (tree_.AddBlock(block).ok()) {
    ++blocks_mined_;
    ++withheld_total_;
    private_blocks_.push_back(block);
    mempool_.SyncWithChain(tree_);
  }
  ScheduleMining();
}

void SelfishMiner::OnChainUpdated(const crypto::Digest& /*old_tip*/,
                                  const crypto::Digest& /*new_tip*/) {
  if (private_blocks_.empty()) {
    ScheduleMining();  // Honest behaviour while we hold no lead.
    return;
  }
  uint64_t private_height = tree_.HeightOf(private_blocks_.back().Hash());
  uint64_t public_height = public_height_;

  if (private_height < public_height) {
    // The honest chain got ahead: our withheld work is worthless.
    private_blocks_.clear();
    ScheduleMining();
    return;
  }
  uint64_t lead = private_height - public_height;
  if (lead == 0) {
    // They caught up: race — publish everything and mine on our branch.
    PublishFront(private_blocks_.size() + 1);
  } else if (lead == 1) {
    // Classic selfish-mining endgame: reveal the whole private chain; it
    // is one longer than the public one, orphaning the honest block.
    PublishFront(private_blocks_.size() + 1);
  } else {
    // Comfortable lead: reveal one block to match their progress.
    PublishFront(1);
  }
  ScheduleMining();
}

}  // namespace consensus40::blockchain
