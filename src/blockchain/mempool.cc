#include "blockchain/mempool.h"

#include <algorithm>

namespace consensus40::blockchain {

bool Mempool::Add(const Transaction& tx) {
  crypto::Digest hash = tx.Hash();
  if (known_.count(hash) > 0) return false;
  known_[hash] = tx;
  if (confirmed_.count(hash) == 0) pending_[hash] = tx;
  return true;
}

std::vector<Transaction> Mempool::Select(size_t max) const {
  std::vector<Transaction> picked;
  picked.reserve(std::min(max, pending_.size()));
  for (const auto& [hash, tx] : pending_) picked.push_back(tx);
  std::sort(picked.begin(), picked.end(),
            [](const Transaction& a, const Transaction& b) {
              return a.fee > b.fee;
            });
  if (picked.size() > max) picked.resize(max);
  return picked;
}

void Mempool::SyncWithChain(const BlockTree& tree) {
  // Walk the last synced tip and the new best tip back to their fork
  // point: the new tip's side was adopted, the old tip's side abandoned.
  std::vector<const Block*> adopted, abandoned;
  crypto::Digest old_tip = synced_tip_;
  crypto::Digest new_tip = tree.BestTip();
  while (!(old_tip == new_tip)) {
    const uint64_t old_height = tree.HeightOf(old_tip);
    const uint64_t new_height = tree.HeightOf(new_tip);
    if (new_height >= old_height) {
      adopted.push_back(tree.GetBlock(new_tip));
      new_tip = adopted.back()->header.prev_hash;
    }
    if (old_height >= new_height) {
      abandoned.push_back(tree.GetBlock(old_tip));
      old_tip = abandoned.back()->header.prev_hash;
    }
  }
  synced_tip_ = tree.BestTip();
  // Newly confirmed leave the pool. Adopted first, so a transaction on
  // both branches stays confirmed.
  for (const Block* block : adopted) {
    for (const Transaction& tx : block->txs) {
      crypto::Digest hash = tx.Hash();
      known_.emplace(hash, tx);
      ++confirmed_[hash];
      pending_.erase(hash);
    }
  }
  // Confirmed transactions that fell off the best chain (reorg) are
  // aborted and resubmitted: back to pending.
  for (const Block* block : abandoned) {
    for (const Transaction& tx : block->txs) {
      auto it = confirmed_.find(tx.Hash());
      if (--it->second > 0) continue;
      pending_[it->first] = known_[it->first];
      ++resubmissions_;
      confirmed_.erase(it);
    }
  }
}

}  // namespace consensus40::blockchain
