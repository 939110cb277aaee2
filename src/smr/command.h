#ifndef CONSENSUS40_SMR_COMMAND_H_
#define CONSENSUS40_SMR_COMMAND_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace consensus40::smr {

/// A deterministic client command, the unit all consensus protocols in this
/// library agree on. `op` is an opaque operation string interpreted by the
/// state machine (the KvStore understands "PUT k v", "GET k", "DEL k",
/// "CAS k old new"). (client, client_seq) uniquely identifies a command and
/// is used for duplicate suppression / reply matching.
struct Command {
  int32_t client = -1;
  uint64_t client_seq = 0;
  std::string op;
  /// Cumulative acknowledgement piggybacked by the client: every seq in
  /// [1, acked] has had its reply consumed. The deduping executor uses it
  /// to decide which per-seq cached results are safe to discard — a result
  /// may only be dropped once the client can no longer retry the op (see
  /// DedupingExecutor). Session metadata, not command identity: excluded
  /// from Hash and the comparison operators.
  uint64_t acked = 0;

  /// How the command wants to be executed, not what it does — routing
  /// metadata like `acked`, excluded from Hash and the comparison
  /// operators. Protocols with a dedicated read path (Raft read-index)
  /// divert kRead commands around the log; protocols without one log
  /// them like any other command, which is linearizable by construction.
  enum class Kind : uint8_t {
    kWrite = 0,  ///< Replicate through the log (the default).
    kRead = 1,   ///< Read-only; `op` is "GET <key>". May bypass the log.
  };
  Kind kind = Kind::kWrite;

  bool operator==(const Command& other) const {
    return client == other.client && client_seq == other.client_seq &&
           op == other.op;
  }
  bool operator<(const Command& other) const {
    if (client != other.client) return client < other.client;
    if (client_seq != other.client_seq) return client_seq < other.client_seq;
    return op < other.op;
  }

  /// Canonical digest used wherever a protocol signs or hashes a request.
  crypto::Digest Hash() const;

  /// Compact rendering for traces, e.g. "c1#3:PUT x 7".
  std::string ToString() const;

  /// Approximate wire size.
  int ByteSize() const { return 16 + static_cast<int>(op.size()); }
};

/// Reserved client id marking a protocol-internal no-op entry: Raft's
/// leader term-start entry, and the no-ops a newly elected Multi-Paxos
/// leader proposes to fill log holes below its proposal cursor. No-ops
/// never touch the state machine or the dedup sessions (the apply loop
/// skips them) and never produce a client reply.
constexpr int32_t kNoopClient = -3;

/// True if `cmd` is a protocol-internal no-op.
inline bool IsNoop(const Command& cmd) { return cmd.client == kNoopClient; }

/// Reserved client id marking a command as a leader-cut batch: its `op`
/// is the length-prefixed encoding of several client commands (see
/// EncodeBatch). Sits below the other reserved ids (-2 = Raft CONFIG,
/// -3 = protocol no-op).
constexpr int32_t kBatchClient = -4;

/// True if `cmd` is a batch entry produced by EncodeBatch.
inline bool IsBatch(const Command& cmd) { return cmd.client == kBatchClient; }

/// Reserved client id marking a command as an erasure-coded shard set: its
/// `op` is the frame encoding of one or more Reed–Solomon shards of some
/// underlying command (see smr/erasure.h). Acceptors in Crossword store
/// these in place of the full command; any k distinct shards reconstruct
/// the original. Sits below -4 = leader-cut batch.
constexpr int32_t kShardClient = -5;

/// True if `cmd` is an erasure-coded shard set.
inline bool IsShard(const Command& cmd) { return cmd.client == kShardClient; }

/// Folds several client commands into one log-entry-sized Command — the
/// leader-side batching primitive shared by Raft and Multi-Paxos. The
/// encoding is length-prefixed (ops may contain spaces), so DecodeBatch
/// inverts it exactly. A batch of batches is not supported (and never
/// produced: leaders only batch raw client commands).
Command EncodeBatch(const std::vector<Command>& cmds);

/// Inverse of EncodeBatch. nullopt for a non-batch or malformed command
/// — distinct from the (legal, never leader-cut) empty batch, so a
/// framing bug surfaces at the apply site instead of silently dropping a
/// whole batch.
std::optional<std::vector<Command>> DecodeBatch(const Command& batch);

/// The client commands `cmd` stands for: the decoded sub-commands of a
/// batch, or `cmd` itself. The flattening used everywhere a per-command
/// view of a log is needed (committed prefixes, apply loops, replay).
/// Lenient: a malformed batch flattens to nothing; apply paths that must
/// not drop commands silently call DecodeBatch and check for nullopt.
std::vector<Command> FlattenCommand(const Command& cmd);

/// Parses the whole of `s` as an unsigned number in `base`: digits only
/// (no sign, whitespace, or 0x prefix), and nothing past 2^64 - 1. The
/// number parser of the string-framed wire formats (KV ops, routing
/// records).
bool ParseU64(std::string_view s, uint64_t* out, int base = 10);

/// 64-bit FNV-1a (deterministic across platforms, unlike std::hash).
uint64_t Fnv1a(std::string_view s);

/// The canonical key-routing hash of the whole stack: FNV-1a finalized
/// with a 64-bit avalanche mixer (murmur3 fmix64). The shard layer's
/// routing table partitions the [0, 2^64) hash space into ranges and
/// the KvStore's routing fence (DISOWN/MIGRATE) decides key ownership
/// with the same function — one definition so the data plane and the
/// control plane can never disagree about where a key hashes. The
/// finalizer matters: range routing consumes the TOP bits, and raw
/// FNV-1a leaves them badly skewed for short sequential keys (the old
/// modulo placement consumed the well-mixed bottom bits).
uint64_t KeyHash(std::string_view s);

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_COMMAND_H_
