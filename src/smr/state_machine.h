#ifndef CONSENSUS40_SMR_STATE_MACHINE_H_
#define CONSENSUS40_SMR_STATE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "smr/command.h"

namespace consensus40::smr {

/// The replicated state machine: the paper's "add jmp mov shl" boxes.
/// Replicas apply the same commands in the same order and must produce
/// identical states and outputs. An in-memory key-value store
/// understanding:
///   "PUT <key> <value>"          -> "OK"
///   "GET <key>"                  -> value or "NIL"
///   "DEL <key>"                  -> "OK" or "NIL"
///   "SETNX <key> <value>"        -> "OK" if absent, else existing value
///   "CAS <key> <old> <new>"      -> "OK" or "FAIL"
///   "INC <key>"                  -> new integer value (missing key = 0)
///   "DISOWN <lo> <hi> <epoch>"   -> "OK"; fences the FNV-1a hash range
///   "MIGRATE <lo> <hi> <epoch>"  -> DISOWN + snapshot of the range's keys
///   "INSTALL <lo> <hi> <epoch> <pairs>" -> "OK <n>"; bulk-sets migrated
///                                   pairs and records range ownership
///   anything else                -> "ERR"
///
/// SETNX is the write-once primitive behind replicated transaction-commit
/// records (Gray & Lamport's "Consensus on Transaction Commit"): the first
/// SETNX on a decision key wins and every later proposal — a recovering
/// participant proposing abort, a duplicate coordinator decision — gets
/// the established decision back instead. CAS cannot express this (it
/// fails on a missing key).
///
/// DISOWN/MIGRATE/INSTALL are the shard layer's live-migration data
/// plane. A disowned range [lo, hi) over the 64-bit FNV-1a key-hash space
/// (hi == 0 means 2^64) is fenced: every later point op on a key hashing
/// into it returns "MOVED <epoch>" instead of executing, so a client or
/// transaction manager routing by a stale table is bounced toward the
/// new owner rather than silently mutating orphaned state. MIGRATE is
/// the atomic stop-and-copy primitive — ONE log entry that both fences
/// the range and returns the exact set of its key/value pairs (encoded
/// with EncodeKvPairs), so no write can slip between the snapshot and
/// the fence. INSTALL stamps the destination with an ownership record
/// for the installed range; an ownership record at or above a fence's
/// epoch outranks it, so a range moved back to a previous owner
/// (A->B->A) serves again instead of bouncing on the stale fence.
/// Fence ("__disown.") and ownership ("__own.") records are keys under
/// the reserved "__" prefix (ops on "__*" keys are never fenced), so
/// they ride snapshots, digests, and state transfer for free.
///
/// Storage is split by how keys are read. Point keys sit in a hash table
/// looked up through std::string_view, so applying an op builds no key
/// string. The range records sit in a small ordered table of their own,
/// which is all a fence check reads. Whatever exposes key order —
/// StateDigest and the MIGRATE payload — sorts on the way out, so both
/// stay in the byte order of one ordered map over every key.
class KvStore {
 public:
  /// Hashes std::string and std::string_view alike (heterogeneous
  /// lookup).
  struct KeyHasher {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  using PointTable = std::unordered_map<std::string, std::string, KeyHasher,
                                        std::equal_to<>>;
  using RangeTable = std::map<std::string, std::string, std::less<>>;

  /// Everything the store holds, as Snapshot hands it out and Restore
  /// takes it back.
  struct Contents {
    PointTable points;
    RangeTable ranges;  ///< "__disown." and "__own." records.
  };

  /// Applies one command and returns its output.
  std::string Apply(const Command& cmd);

  /// Digest of the full current state, used by checkpointing (PBFT) and by
  /// the test suite's replica-equivalence checks.
  crypto::Digest StateDigest() const;

  /// Direct read access for tests.
  std::optional<std::string> Get(std::string_view key) const;
  size_t size() const { return points_.size() + ranges_.size(); }

  /// The routing epoch that fenced `key` away, if any — the same check
  /// Apply performs, exposed for read paths that bypass the log (Raft
  /// read-index serves reads straight from the store).
  std::optional<uint64_t> MovedEpoch(std::string_view key) const;

  /// Snapshot support (Raft log compaction, state transfer).
  Contents Snapshot() const { return {points_, ranges_}; }
  void Restore(Contents contents) {
    points_ = std::move(contents.points);
    ranges_ = std::move(contents.ranges);
  }

 private:
  PointTable points_;
  RangeTable ranges_;
};

/// Length-prefixed key/value framing for MIGRATE results and INSTALL
/// payloads ("<klen>:<key><vlen>:<value>" repeated — keys and values may
/// contain anything). DecodeKvPairs returns nullopt on malformed input,
/// distinct from the legal empty payload.
std::string EncodeKvPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs);
std::optional<std::vector<std::pair<std::string, std::string>>> DecodeKvPairs(
    std::string_view payload);

/// At-most-once execution filter: a client command that reaches the log
/// twice (e.g. retried across a leader change) must only be applied once.
/// All replicas run the same deterministic filter, so replicated state stays
/// identical.
///
/// Each client issues sequence numbers 1, 2, 3, ... but — because clients
/// keep a transmission WINDOW of operations in flight — the seqs may reach
/// the log out of order within that window, and a reply-lost operation may
/// be retried long after later seqs executed. The session keeps the exact
/// per-seq result of every operation the client could still retry, and
/// discards a result only once the client has ACKNOWLEDGED the operation
/// (via the cumulative `Command::acked` field every command piggybacks):
/// the floor tracks the acked prefix, so a retry of any unacked seq is
/// answered with ITS OWN cached result, never a neighbour's. Per-client
/// memory is bounded by the client's executed-but-unacked operations —
/// the in-flight window in steady state.
class DedupingExecutor {
 public:
  /// One client's execution record.
  struct Session {
    /// Every seq in [1, floor] has been executed AND acked by the client
    /// (floor never outruns `acked`), so its result can no longer be
    /// consumed; retries of such seqs get an empty placeholder reply.
    uint64_t floor = 0;
    /// Highest cumulative acknowledgement seen from this client.
    uint64_t acked = 0;
    /// Exact results of executed seqs > floor (in-flight window arrivals,
    /// reply-lost operations awaiting a retry) and any seq-0
    /// protocol-internal commands (kept forever; at most one).
    std::map<uint64_t, std::string> above;
  };

  /// Applies `cmd` to `kv` unless this (client, client_seq) was already
  /// executed, in which case the cached result is returned.
  std::string Apply(KvStore* kv, const Command& cmd);

  /// Cached result of an already-executed (client, seq), or nullptr.
  /// Leaders use this as the duplicate-request fast path. Seqs at or
  /// below the session floor return a (non-null) empty placeholder: the
  /// client acked them, so the exact result was discarded and the reply
  /// can never be consumed — but the leader must still not re-propose.
  const std::string* Lookup(int32_t client, uint64_t seq) const;

  /// Session table snapshot/restore, shipped alongside state-machine
  /// snapshots so duplicate suppression survives log compaction.
  using Sessions = std::map<int32_t, Session>;
  const Sessions& sessions() const { return sessions_; }
  void Restore(Sessions sessions) { sessions_ = std::move(sessions); }

 private:
  Sessions sessions_;
};

/// A replicated log: the sequence of entries a replica has accepted, with
/// an explicit commit frontier. Slots may be filled out of order (Paxos);
/// Apply only consumes the committed prefix. A checkpointed prefix may be
/// truncated away (TruncatePrefix), after which the state machine itself
/// stands in for the dropped slots.
class ReplicatedLog {
 public:
  /// Stores `entry` at `index` (0-based). Indices below start() — already
  /// folded into a checkpoint — are ignored.
  void Set(uint64_t index, Entry entry);

  /// The entry at `index`, if any (nullptr below start()).
  const Entry* Get(uint64_t index) const;

  bool Has(uint64_t index) const { return Get(index) != nullptr; }

  /// Marks everything up to and including `index` as committed.
  void CommitThrough(uint64_t index);

  /// First index not yet committed (== number of committed slots when the
  /// committed prefix is dense).
  uint64_t commit_frontier() const { return commit_frontier_; }

  /// Largest occupied index + 1, or start() when empty.
  uint64_t Size() const;

  /// Applies the client commands of newly committed, contiguous entries to
  /// `kv` starting at the apply cursor; returns outputs in order. With a
  /// non-null `dedup`, duplicate client commands are skipped (their cached
  /// result is returned in place of re-execution). Outputs align with
  /// slots only in logs of single commands; batch-cutting protocols use
  /// the callback overload below.
  std::vector<std::string> ApplyCommitted(KvStore* kv,
                                          DedupingExecutor* dedup = nullptr);

  /// Callback form: invokes `fn(slot_index, cmd, result)` once per applied
  /// client command (each command of a batch reports its batch's slot
  /// index).
  using ApplyFn = std::function<void(uint64_t index, const Command& cmd,
                                     const std::string& result)>;
  void ApplyCommitted(KvStore* kv, DedupingExecutor* dedup,
                      const ApplyFn& fn);

  /// Index the apply cursor has reached.
  uint64_t applied_frontier() const { return applied_frontier_; }

  /// First index still held (everything below was checkpoint-truncated).
  uint64_t start() const { return start_; }

  /// Drops the applied slots below `end` — they are folded into the state
  /// machine the caller snapshot/checkpoints alongside. Requires
  /// end <= applied_frontier().
  void TruncatePrefix(uint64_t end);

  /// Re-bases a lagging log onto an installed snapshot covering [0, end):
  /// drops retained slots below `end` and advances start, commit, and
  /// apply frontiers to at least `end`.
  void ResetToSnapshot(uint64_t end);

  /// All committed client commands in order, batches' commands in place
  /// (dense retained prefix only: starts at start(), stops at a gap).
  std::vector<Command> CommittedPrefix() const;

 private:
  std::map<uint64_t, Entry> slots_;
  uint64_t start_ = 0;            ///< Slots [0, start_) truncated away.
  uint64_t commit_frontier_ = 0;  ///< Committed slots are [0, commit_frontier_).
  uint64_t applied_frontier_ = 0;
};

/// Checks that every log agrees with every other on the overlap of their
/// committed prefixes (the SMR safety property). Returns an empty string on
/// success or a description of the first divergence.
std::string CheckPrefixConsistency(const std::vector<const ReplicatedLog*>& logs);

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_STATE_MACHINE_H_
