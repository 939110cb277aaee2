#ifndef CONSENSUS40_SMR_ERASURE_H_
#define CONSENSUS40_SMR_ERASURE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "smr/command.h"

namespace consensus40::smr {

/// Reed–Solomon (k, n) erasure coding over log-entry payloads, the codec
/// under the Crossword protocol (see paxos/crossword.h).
///
/// The payload is split byte-wise into k data stripes (zero-padded to a
/// common length) and shard i is the evaluation of the stripe polynomial
/// at x = i over GF(256): shard_i[b] = Σ_j stripe_j[b]·i^j. Any k shards
/// with distinct indices form a Vandermonde system, which is always
/// invertible, so ANY k of the n shards reconstruct the payload exactly
/// — the property Crossword's quorum math leans on. Each shard carries
/// an FNV-1a checksum (corrupt shards are detected and discarded) and
/// the shard set carries a whole-payload checksum as an end-to-end guard.
///
/// Limits: 1 <= k <= n <= 255. k == 1 degenerates to full replication
/// (every shard is the payload itself).

/// GF(256) helpers, exposed for tests.
uint8_t GfMul(uint8_t a, uint8_t b);
uint8_t GfInv(uint8_t a);  ///< a must be nonzero.

/// Splits `payload` into n shards, any k of which reconstruct it.
std::vector<std::string> ErasureEncode(const std::string& payload, int k,
                                       int n);

/// Inverse: `shards` maps shard index -> shard bytes; needs >= k entries
/// with valid indices and equal lengths. Returns nullopt when
/// reconstruction is impossible (too few shards, bad shapes).
std::optional<std::string> ErasureDecode(
    const std::map<int, std::string>& shards, int k, int n,
    uint64_t payload_len);

/// An entry erasure-coded for distribution, leader-side: what was coded
/// and all n shards. Subset() cuts the per-acceptor shard set carrying
/// shards [first, first+count) mod n — Crossword's rotated assignment
/// windows.
struct ShardedCommand {
  ShardSet::Header header;
  std::vector<Shard> shards;  ///< All n, in index order.

  Entry Subset(int first, int count) const;
};

/// Codes a command's op, or a batch framed as "<client> <seq> <acked>
/// <len> <op>" per command, into n shards — the one place an entry
/// becomes payload bytes. Requires a command or batch entry and
/// 1 <= k <= n <= 255.
ShardedCommand ShardCommand(const Entry& entry, int k, int n);

/// Accumulates shard sets of ONE coded entry until k distinct valid
/// shards are on hand, then reconstructs. Followers keep one per
/// unapplied slot; a recovering leader feeds it the shard sets carried by
/// promises. Corrupt shards (checksum mismatch) and shard sets of a
/// different entry or geometry are rejected at Add.
class ShardAssembler {
 public:
  /// Folds one shard set in. Returns false (and changes nothing) if
  /// `entry` is not a shard set or disagrees with the shard sets already
  /// added on identity or geometry. Individual corrupt shards are skipped
  /// and counted in corrupt().
  bool Add(const Entry& entry);

  bool Complete() const {
    return header_.k > 0 && static_cast<int>(shards_.size()) >= header_.k;
  }
  int distinct() const { return static_cast<int>(shards_.size()); }
  int needed() const { return header_.k; }
  uint64_t corrupt() const { return corrupt_; }

  /// The reconstructed original entry, once Complete(). nullopt before
  /// that, or if the reconstructed payload fails the end-to-end checksum
  /// or does not decode (possible only if >= k shards were corrupted
  /// consistently with their per-shard checksums — vanishing, but
  /// checked anyway).
  std::optional<Entry> Reconstruct() const;

  /// One shard set carrying every valid shard gathered so far — what a
  /// catch-up reply forwards when the replica itself holds only
  /// fragments.
  Entry Merged() const;

 private:
  ShardSet::Header header_;  ///< k == 0 until the first Add.
  uint64_t corrupt_ = 0;
  std::map<int, std::string> shards_;
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_ERASURE_H_
