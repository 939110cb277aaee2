#ifndef CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_
#define CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "blockchain/block.h"
#include "blockchain/chain.h"

namespace consensus40::blockchain {

/// A miner's pending-transaction pool. Tracks which transactions are
/// confirmed on the current best chain; after a reorganization, the
/// transactions of abandoned blocks return to the pool — the deck's
/// "transactions in this block are aborted/resubmitted".
class Mempool {
 public:
  /// Adds a transaction heard from a client or a peer. Duplicates (by
  /// hash) are ignored. Returns true if newly added.
  bool Add(const Transaction& tx);

  /// Picks up to `max` pending transactions for a new block, highest fee
  /// first (the standard miner policy).
  std::vector<Transaction> Select(size_t max) const;

  /// Synchronizes with the chain after any AddBlock: marks best-chain
  /// transactions confirmed and returns abandoned ones to pending. Call
  /// with the tree after each tip change, always the same tree: only the
  /// blocks between the last synced tip and the new one are visited.
  void SyncWithChain(const BlockTree& tree);

  /// True if the transaction is in a best-chain block.
  bool IsConfirmed(const crypto::Digest& tx_hash) const {
    return confirmed_.count(tx_hash) > 0;
  }
  bool IsPending(const crypto::Digest& tx_hash) const {
    return pending_.count(tx_hash) > 0;
  }
  size_t pending_count() const { return pending_.size(); }
  size_t confirmed_count() const { return confirmed_.size(); }
  /// Cumulative number of transactions that fell out of the best chain in
  /// reorgs (aborted/resubmitted).
  int resubmissions() const { return resubmissions_; }

 private:
  std::map<crypto::Digest, Transaction> pending_;
  /// Best-chain transactions -> the number of best-chain blocks holding
  /// them.
  std::map<crypto::Digest, int> confirmed_;
  std::map<crypto::Digest, Transaction> known_;  ///< Everything ever seen.
  int resubmissions_ = 0;
  crypto::Digest synced_tip_{};  ///< Best tip at the last sync (genesis).
};

}  // namespace consensus40::blockchain

#endif  // CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_
