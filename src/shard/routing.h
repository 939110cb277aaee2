#ifndef CONSENSUS40_SHARD_ROUTING_H_
#define CONSENSUS40_SHARD_ROUTING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace consensus40::shard {

/// The shard layer's key-range routing table: a partition of the 64-bit
/// FNV-1a key-hash space into contiguous ranges, each owned by one
/// replica group, stamped with a monotonically increasing epoch.
///
/// Epoch 1 is the static initial table (the hash space divided equally
/// across the first `shards` groups — the successor of the old FNV-1a
/// modulo placement). Every later epoch exists only as a write-once
/// "__rt.<epoch>" SETNX record in the decision group, produced by a
/// ShardMove flip, so the table's history is itself replicated and any
/// participant can recover the current routing by reading the decision
/// log. Caches of the table (clients, transaction managers, the 2PC
/// coordinator) are brought up to date by redirect replies carrying a
/// newer encoding; adoption is gated on the epoch, never backwards.
///
/// Representation: sorted range starts. Entry i owns [lo_i, lo_{i+1})
/// and the last entry owns [lo_last, 2^64). Range bounds elsewhere use
/// hi == 0 as the "2^64" sentinel (matching the KvStore fence records).
class RoutingTable {
 public:
  struct Entry {
    uint64_t lo = 0;  ///< First hash owned by this range.
    int group = 0;    ///< Owning replica group.
  };

  /// The epoch-1 table: 2^64 divided equally across groups 0..shards-1.
  static RoutingTable Initial(int shards);

  /// The group owning hash `h`.
  int GroupFor(uint64_t h) const;

  /// The group owning `key` (FNV-1a of the key).
  int GroupForKey(const std::string& key) const;

  /// True if [lo, hi) (hi == 0 means 2^64) is wholly owned by one group,
  /// returned in *owner. A move may only claim such a range.
  bool SoleOwner(uint64_t lo, uint64_t hi, int* owner) const;

  /// Reassigns [lo, hi) (hi == 0 means 2^64) to `group`, bumps the
  /// epoch, and normalizes away adjacent same-group boundaries — which
  /// is why split, merge, and move are all this one operation: moving a
  /// sub-range splits its parent, and moving a range to its neighbour's
  /// owner merges the boundary.
  void ApplyMove(uint64_t lo, uint64_t hi, int group);

  /// Whitespace-free wire form "e<epoch>|<lo_hex>:<group>,..." — safe to
  /// store as a KvStore value and to carry in redirect replies.
  std::string Encode() const;

  /// The table `encoded` holds, if it is exactly what Encode writes and
  /// every entry names a group in [0, total_groups). Adopters index
  /// per-group arrays (clients, TMs, shard groups) with the entries, so a
  /// torn record or one naming a nonexistent group must fail here, not
  /// become an out-of-bounds access.
  static std::optional<RoutingTable> Decode(const std::string& encoded,
                                            int total_groups);

  /// Adopts `other` if it is strictly newer; returns true on adoption.
  bool MaybeAdopt(const RoutingTable& other);

  uint64_t epoch() const { return epoch_; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// The decision-group key holding the table for `epoch` (>= 2).
  static std::string RtKey(uint64_t epoch);

 private:
  uint64_t epoch_ = 1;
  std::vector<Entry> entries_{{0, 0}};  ///< Sorted by lo; first lo == 0.
};

}  // namespace consensus40::shard

#endif  // CONSENSUS40_SHARD_ROUTING_H_
