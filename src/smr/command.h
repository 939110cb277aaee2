#ifndef CONSENSUS40_SMR_COMMAND_H_
#define CONSENSUS40_SMR_COMMAND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
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

/// One Reed–Solomon shard of a coded payload (see smr/erasure.h).
struct Shard {
  int index = 0;  ///< Evaluation point, in [0, n).
  std::string bytes;
  uint64_t check = 0;  ///< Fnv1a of the bytes as coded: detects bit-rot.
  bool operator==(const Shard&) const = default;
};

/// A Crossword acceptor's share of one entry: what was coded, the code's
/// geometry, and the shards it carries. Any k shards with distinct indices
/// rebuild the entry (ShardAssembler).
struct ShardSet {
  struct Header {
    int32_t client = 0;  ///< Identity of a coded command (zero for a batch).
    uint64_t client_seq = 0;
    uint64_t acked = 0;
    bool batch = false;  ///< The payload is a batch, not one command's op.
    int k = 0;
    int n = 0;
    uint64_t payload_len = 0;
    uint64_t payload_check = 0;  ///< Fnv1a of the whole payload.
    bool operator==(const Header&) const = default;
  };
  Header header;
  std::vector<Shard> shards;
  bool operator==(const ShardSet&) const = default;
};

/// The value of one log slot in Raft, Multi-Paxos and Crossword: exactly
/// one of a client command, a leader-cut batch of commands, a no-op, a
/// Raft member list, or a Crossword shard set. Immutable once built;
/// copies share a batch's commands and a shard set's shards, so an entry
/// copied into a log or a message never deep-copies them.
class Entry {
 public:
  enum class Kind : uint8_t { kCommand, kBatch, kNoop, kConfig, kShardSet };

  /// A no-op: protocol-internal filler (Raft's term-start entry, a new
  /// Multi-Paxos or Crossword leader closing a log hole). It occupies its
  /// slot but applies nothing and answers nobody.
  Entry();
  static Entry Noop() { return Entry(); }
  /// One client command. Implicit: a command is an entry.
  Entry(Command cmd);  // NOLINT(google-explicit-constructor)
  /// Several client commands cut into one slot, applied in order.
  static Entry Batch(std::vector<Command> cmds);
  /// A Raft configuration: the voting members from this entry on.
  static Entry Config(std::vector<int32_t> members);
  /// One acceptor's shards of a coded command or batch (smr/erasure.h).
  static Entry Shards(ShardSet set);

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  /// The client commands the entry carries, in apply order: the command,
  /// a batch's commands, or none.
  std::span<const Command> commands() const;
  /// The members of a configuration; nullptr for any other kind.
  const std::vector<int32_t>* config() const;
  /// The shard set; nullptr for any other kind.
  const ShardSet* shard_set() const;

  /// Wire size, in the accounting every message uses: 16 bytes plus the
  /// length of the entry's text form — a command's op; per batched
  /// command "<client> <seq> <acked> <len> <op>"; "NOOP"; "CONFIG" and
  /// " <id>" per member; or the shard frame "<client> <seq> <acked> <k>
  /// <n> <len> <check> <count> " with "<index> <len> <check> <bytes>" per
  /// shard, a batch framed as client -4. Computed once, at construction.
  int ByteSize() const { return byte_size_; }

  /// Same kind and content. A command compares as Command::operator==; a
  /// batch's commands compare their acks too, which the log carries.
  bool operator==(const Entry& other) const;

  /// 64-bit digest of kind and content, equal for entries that compare
  /// equal: what a replica reports to an ApplyLedger (smr/apply_ledger.h).
  uint64_t Digest() const;

  /// Compact rendering for traces and violation reports.
  std::string ToString() const;

 private:
  // Alternatives in Kind order.
  using Value =
      std::variant<Command, std::shared_ptr<const std::vector<Command>>,
                   std::monostate, std::vector<int32_t>,
                   std::shared_ptr<const ShardSet>>;

  template <class Alternative>
  Entry(Alternative value, int byte_size)
      : value_(std::move(value)), byte_size_(byte_size) {}

  Value value_;
  int byte_size_;
};

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
