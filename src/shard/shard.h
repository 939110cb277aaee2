/// \file
/// Sharded state machine: a key space partitioned across N independent
/// replication groups, with cross-shard transactions committed by 2PC
/// whose commit decisions are THEMSELVES replicated log entries.
///
/// This is the composition the paper's modern-systems section describes
/// (Spanner, DynamoDB): per-shard consensus below, a commitment protocol
/// above. Classic 2PC blocks when the coordinator fails between prepare
/// and commit; here the decision is a write-once record (SETNX) in a
/// replicated coordination group, so any prepared participant can
/// terminate the protocol on its own — Gray & Lamport's "Consensus on
/// Transaction Commit". The coordinator front-end is a convenience, not
/// a single point of failure: crash it at the worst moment and the
/// participants still converge on one decision.
///
/// Transactions are typed op lists (GET/PUT/DELETE/CAS). Read-write
/// transactions run strict two-phase locking, no-wait flavour: each
/// participant takes shared locks for reads and exclusive locks for
/// writes, evaluates GETs and CAS compares against its shard's KV at
/// prepare time (read-your-writes within the transaction), and holds
/// the locks until the decision is applied. Read-only transactions
/// never lock at all — see TxCoordinator's snapshot path.
///
/// Roles:
///   - `TxManager` (one per shard): conflict-checks a lock table, writes
///     a durable prepare record into its shard's log, votes, applies the
///     decision, and — on decision timeout — proposes ABORT to the
///     decision group itself (participant-driven termination).
///   - `TxCoordinator`: collects votes, writes the decision record,
///     broadcasts it, answers the client. Stateless across restarts;
///     clients re-submit and every step is idempotent.
///   - `ShardedStateMachine`: assembles shard groups, the decision
///     group, TMs, and the coordinator inside one simulation. Built on
///     the protocol-agnostic consensus::ReplicaGroup registry, so the
///     whole layer runs unchanged over Raft or Multi-Paxos.

#ifndef CONSENSUS40_SHARD_SHARD_H_
#define CONSENSUS40_SHARD_SHARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/replica_group.h"
#include "shard/routing.h"
#include "sim/simulation.h"

namespace consensus40::shard {

class ShardMover;
struct MoveFreezeMsg;
struct MoveInstallMsg;
struct MoveUnfreezeMsg;

/// One typed operation of a transaction. A transaction is an ordered
/// list of these; reads and CAS compares are evaluated at prepare time
/// against the shard's KV (with read-your-writes: earlier ops of the
/// same transaction overlay the stored state). Transaction ids must be
/// nonzero (0 is the lock table's "no owner" sentinel).
struct TxOp {
  enum class Type : uint8_t {
    kGet = 0,     ///< Read the key; result returned in the outcome.
    kPut = 1,     ///< Blind write.
    kDelete = 2,  ///< Blind delete.
    kCas = 3,     ///< Write `value` iff the current value == `expected`.
  };
  std::string key;
  std::string value;     ///< New value (kPut / kCas).
  std::string expected;  ///< Compare value (kCas only).
  Type type = Type::kPut;

  static TxOp Get(std::string k) {
    return TxOp{std::move(k), "", "", Type::kGet};
  }
  static TxOp Put(std::string k, std::string v) {
    return TxOp{std::move(k), std::move(v), "", Type::kPut};
  }
  static TxOp Del(std::string k) {
    return TxOp{std::move(k), "", "", Type::kDelete};
  }
  static TxOp Cas(std::string k, std::string expect, std::string v) {
    return TxOp{std::move(k), std::move(v), std::move(expect), Type::kCas};
  }

  /// Writes take an exclusive lock; pure reads take a shared lock.
  bool IsWrite() const { return type != Type::kGet; }
  /// Ops whose evaluation needs the key's current value.
  bool NeedsRead() const { return type == Type::kGet || type == Type::kCas; }

  int ByteSize() const {
    return 9 + static_cast<int>(key.size() + value.size() + expected.size());
  }
};

/// Why a transaction aborted. Structured so the client's retry policy
/// can distinguish transient conflicts (retry) from semantic failures
/// like a CAS mismatch (retrying reproduces the abort).
enum class TxAbortReason : uint8_t {
  kNone = 0,          ///< Committed.
  kLockConflict = 1,  ///< No-wait conflict in a participant's lock table.
  kFrozenRange = 2,   ///< A key's range is frozen by an in-progress move.
  kCasMismatch = 3,   ///< A CAS op's expected value did not match.
  kMoved = 4,         ///< Routed by a stale epoch; a retry re-splits.
  kDecisionTimeout = 5,  ///< Votes missing at the deadline; presumed abort.
};

/// One evaluated read of a committed transaction, keyed by the op's
/// position in the BeginTx op list. `found == false` means the key had
/// no value (reads of absent keys are legal and participate in
/// conflict checking like any other read).
struct TxReadResult {
  int op_index = -1;
  bool found = false;
  std::string value;

  int ByteSize() const { return 13 + static_cast<int>(value.size()); }
};

/// Client -> coordinator: start (or re-submit) transaction `tx_id`.
/// Re-submission with the same id is safe at any point: prepares,
/// decision records, and writes are all idempotent. (Read results are
/// only guaranteed on the attempt that first observes the decision; a
/// re-submitted, already-committed transaction may report `committed`
/// with no read results.)
///
/// A transaction whose ops are ALL reads takes the lock-free snapshot
/// path: the coordinator pins its routing epoch, issues a read-index
/// read per key straight to the owning shard groups, and restarts the
/// whole snapshot if any read bounces MOVED — no lock-table entry, no
/// prepare record, no decision record.
struct BeginTxMsg : sim::Message {
  BeginTxMsg(uint64_t id, std::vector<TxOp> o) : tx_id(id), ops(std::move(o)) {}
  const char* TypeName() const override { return "begin-tx"; }
  int ByteSize() const override {
    int size = 16;
    for (const TxOp& op : ops) size += op.ByteSize();
    return size;
  }
  uint64_t tx_id;
  std::vector<TxOp> ops;
};

/// Coordinator -> client: final transaction outcome — the commit/abort
/// verdict, a structured abort reason, and (on commit) the evaluated
/// per-op read results.
struct TxOutcomeMsg : sim::Message {
  TxOutcomeMsg(uint64_t id, bool c) : tx_id(id), committed(c) {}
  const char* TypeName() const override { return "tx-outcome"; }
  int ByteSize() const override {
    int size = 18;
    for (const TxReadResult& r : reads) size += r.ByteSize();
    return size;
  }
  uint64_t tx_id;
  bool committed;
  TxAbortReason reason = TxAbortReason::kNone;
  std::vector<TxReadResult> reads;  ///< Sorted by op_index (commit only).
  /// Snapshot path only: the routing epoch every read was served under.
  uint64_t snapshot_epoch = 0;
};

/// One op of a shard's slice, tagged with its position in the client's
/// op list so read results keep their global indices across the split.
struct TxShardOp {
  int index = -1;
  TxOp op;
};

/// Coordinator -> TM: prepare `tx_id` (or, when this shard is the only
/// participant, commit it one-phase — no prepare record, no decision key).
struct TmPrepareMsg : sim::Message {
  const char* TypeName() const override { return "tm-prepare"; }
  int ByteSize() const override {
    int size = 17;
    for (const TxShardOp& sop : ops) size += 4 + sop.op.ByteSize();
    return size;
  }
  uint64_t tx_id = 0;
  bool one_phase = false;
  std::vector<TxShardOp> ops;  ///< This shard's slice of the transaction.
};

/// TM -> coordinator: vote. For one-phase transactions `yes` already
/// means "applied and committed". A YES vote carries the shard's
/// evaluated read results; a NO vote carries the refusal reason.
struct TmVoteMsg : sim::Message {
  const char* TypeName() const override { return "tm-vote"; }
  int ByteSize() const override {
    int size = 22;
    for (const TxReadResult& r : reads) size += r.ByteSize();
    return size;
  }
  uint64_t tx_id = 0;
  int shard = -1;
  bool yes = false;
  TxAbortReason reason = TxAbortReason::kNone;
  std::vector<TxReadResult> reads;
};

/// Coordinator -> TM: the (replicated) decision.
struct TmDecisionMsg : sim::Message {
  const char* TypeName() const override { return "tm-decision"; }
  int ByteSize() const override { return 17; }
  uint64_t tx_id = 0;
  bool commit = false;
};

/// TM -> coordinator: decision applied, locks released.
struct TmAckMsg : sim::Message {
  const char* TypeName() const override { return "tm-ack"; }
  int ByteSize() const override { return 20; }
  uint64_t tx_id = 0;
  int shard = -1;
};

/// TM -> coordinator: "a key of this transaction is not mine — here is
/// my (newer) routing table". The coordinator adopts the table (epoch-
/// gated, never backwards) and aborts the transaction; the client
/// retries and the re-split lands at the new owner. This is how routing
/// epochs propagate after a move: nobody is told proactively, stale
/// routes bounce.
struct TmRedirectMsg : sim::Message {
  const char* TypeName() const override { return "tm-redirect"; }
  int ByteSize() const override {
    return 16 + static_cast<int>(table.Encode().size());
  }
  uint64_t tx_id = 0;
  RoutingTable table;  ///< The TM's table.
};

struct ShardOptions {
  int shards = 2;
  int replicas_per_shard = 3;
  /// Extra replica groups that own no key range at epoch 1 — migration
  /// destinations for live splits. They get the same replicas, TM, and
  /// clients as serving groups.
  int spare_groups = 0;
  /// OUT-OF-BOUNDS knob for the safety checker: the mover skips the
  /// freeze/drain phases and flips the routing epoch while transactions
  /// are still writing to the old owner. Violates exactly-once (lost
  /// writes); exists so the checker can prove the drain is load-bearing.
  bool unsafe_flip_before_drain = false;
  /// OUT-OF-BOUNDS knob for the safety checker: TMs skip the shared
  /// locks that GET ops normally take, so two transactions can each
  /// read a key the other is writing and both commit — textbook write
  /// skew. Violates the serializability audit; exists so the checker
  /// can prove the shared locks are load-bearing.
  bool unsafe_no_read_locks = false;
  /// Replicas of the decision group (the "Paxos registrar" of Gray &
  /// Lamport's commit protocol).
  int decision_replicas = 3;
  /// consensus::ReplicaGroup registry key for every group.
  std::string protocol = "raft";

  /// Hot-path tuning, applied uniformly to every group (shards and the
  /// decision group) and to every GroupClient the layer spawns. The
  /// defaults keep the untuned serialize-everything behaviour.
  /// In-flight window per GroupClient (TM shard/decision clients and
  /// workload readers). Safe here: each transaction's steps are already
  /// serialized by its own callbacks, and distinct transactions are
  /// independent, so only independent operations ever share the window.
  int client_window = 1;
  /// Leader-side batching knobs (see consensus::GroupTuning).
  int batch_size = 1;
  sim::Duration batch_delay = 0;
  /// Checkpoint/snapshot threshold (see consensus::GroupTuning).
  uint64_t snapshot_threshold = 0;
};

class ShardedStateMachine;

/// Per-shard transaction manager. Owns the shard's lock table; talks to
/// its shard group and to the decision group through GroupClients.
class TxManager : public sim::Process {
 public:
  TxManager(ShardedStateMachine* owner, int shard);

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

  /// Completion callback from the shard-group client. `read` marks
  /// read-index results (prepare-time read evaluation).
  void OnShardResult(uint64_t seq, const std::string& result, bool read);
  /// Completion callback from the decision-group client (recovery path).
  void OnDecisionResult(uint64_t seq, const std::string& result);

  int prepares() const { return prepares_; }
  int recoveries() const { return recoveries_; }
  int redirects() const { return redirects_; }
  /// Keys currently locked (shared or exclusive) — snapshot reads must
  /// never show up here.
  size_t lock_table_size() const { return lock_table_.size(); }
  const RoutingTable& table() const { return table_; }
  bool has_frozen_range() const { return !frozen_.empty(); }

 private:
  enum class Phase {
    kPreparing,   ///< Locks held; reads and/or prepare record in flight.
    kPrepared,    ///< Voted yes; awaiting the decision.
    kCommitting,  ///< Commit decided; writes in flight.
    kRecovering,  ///< Decision timed out; asking the decision group.
  };
  struct Tx {
    Phase phase = Phase::kPreparing;
    std::vector<TxShardOp> ops;
    sim::NodeId coordinator = sim::kInvalidNode;
    bool one_phase = false;
    int writes_outstanding = 0;
    int reads_outstanding = 0;
    /// Raw read-index results, key -> KvStore reply ("NIL" = absent).
    std::map<std::string, std::string> read_values;
    /// Evaluated GET results for the vote (globally indexed).
    std::vector<TxReadResult> reads;
    /// KV commands to apply on commit, one per write op in op order
    /// (a validated CAS becomes a plain PUT: its compare already
    /// happened under the exclusive lock, and nothing else can write
    /// the key before the lock is released).
    std::vector<std::string> effects;
    uint64_t recovery_timer = 0;
  };
  /// Strict-2PL lock state of one key, no-wait flavour: conflicting
  /// prepares are refused outright (vote NO), never queued — no
  /// deadlocks, ever. `exclusive == 0` means no writer (tx ids are
  /// nonzero by contract).
  struct LockEntry {
    uint64_t exclusive = 0;
    std::set<uint64_t> shared;
  };
  /// A range frozen by an in-progress ShardMove: new transactions on it
  /// are refused (vote NO), in-flight ones drain to completion, and a
  /// repeating nudge timer keeps the mover honest (it is the recovery
  /// trigger when the mover crashes mid-move).
  struct FrozenRange {
    uint64_t lo = 0;
    uint64_t hi = 0;
    sim::NodeId mover = sim::kInvalidNode;
    std::set<uint64_t> draining;  ///< In-flight txs touching the range.
    bool drained_sent = false;
    uint64_t nudge_timer = 0;
  };

  void Vote(uint64_t tx_id, const Tx& tx, bool yes,
            TxAbortReason reason = TxAbortReason::kNone);
  void ApplyDecision(uint64_t tx_id, bool commit);
  void ReleaseLocks(uint64_t tx_id);
  void Finish(uint64_t tx_id, bool committed);
  /// Refuse a prepared-but-undecided tx: vote NO, drop locks and state.
  /// (Safe only before the prepare record is proposed.)
  void Refuse(uint64_t tx_id, TxAbortReason reason);
  /// All reads arrived: evaluate ops in order with a read-your-writes
  /// overlay, validate CAS compares, then proceed to prepare/apply.
  void EvaluateReads(uint64_t tx_id);
  /// Reads evaluated (or none needed): one-phase apply or durable
  /// prepare record.
  void Proceed(uint64_t tx_id);
  bool KeyFrozen(const std::string& key) const;
  /// Removes a finished tx from every drain set; announces quiescence.
  void NoteTxGone(uint64_t tx_id);
  /// Repeating mover nudge while a range stays frozen.
  void ArmNudge(const std::string& move_id);
  void OnMoveFreeze(sim::NodeId from, const MoveFreezeMsg& m);
  void OnMoveInstall(sim::NodeId from, const MoveInstallMsg& m);
  void OnMoveUnfreeze(sim::NodeId from, const MoveUnfreezeMsg& m);

  ShardedStateMachine* owner_;
  int shard_;
  RoutingTable table_;  ///< This TM's view of the routing (epoch-gated).
  std::map<uint64_t, Tx> txs_;
  std::map<std::string, FrozenRange> frozen_;    ///< move_id -> range.
  std::map<std::string, LockEntry> lock_table_;  ///< key -> lock state.
  std::map<uint64_t, uint64_t> shard_seq_tx_;    ///< client seq -> tx.
  /// Prepare-time read-index reads in flight: client seq -> (tx, key).
  std::map<uint64_t, std::pair<uint64_t, std::string>> shard_read_seq_;
  std::map<uint64_t, uint64_t> decision_seq_tx_;
  int prepares_ = 0;
  int recoveries_ = 0;
  int redirects_ = 0;
};

/// 2PC front-end: drives prepare/decide/ack rounds for read-write
/// transactions, and serves read-only transactions off a lock-free
/// snapshot path. All state is volatile; durability lives in the
/// decision group.
///
/// SNAPSHOT PATH. A transaction whose ops are all GETs never touches a
/// lock table, prepare record, or decision record. The coordinator
/// pins the routing epoch of its table, issues one read-index read per
/// key to the owning shard group (linearizable per key), and returns
/// the batch stamped with that epoch. If any read bounces "MOVED e"
/// the coordinator fetches the "__rt.e" record from the decision
/// group, adopts the newer table, and restarts the WHOLE snapshot at
/// the new epoch — partial results are discarded, which is what makes
/// the result non-torn across a live move: every returned value was
/// served under one routing epoch, and the mover's freeze-then-drain
/// ladder guarantees a moved range is write-quiesced between the two
/// epochs' serving windows.
class TxCoordinator : public sim::Process {
 public:
  explicit TxCoordinator(ShardedStateMachine* owner);

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

  /// Completion callback from the decision-group client.
  void OnDecisionResult(uint64_t seq, const std::string& result);
  /// Completion callback from a (lazily spawned) snapshot reader.
  void OnSnapshotResult(int group, uint64_t seq, const std::string& result);

  int started() const { return started_; }
  int committed() const { return committed_; }
  int aborted() const { return aborted_; }
  int redirected() const { return redirected_; }
  /// Completed read-only snapshot transactions.
  int snapshots() const { return snapshots_; }
  /// Whole-snapshot restarts forced by MOVED bounces.
  int snapshot_restarts() const { return snapshot_restarts_; }
  const RoutingTable& table() const { return table_; }

 private:
  struct Tx {
    sim::NodeId client = sim::kInvalidNode;
    std::vector<TxOp> ops;  ///< Full op list (snapshot restarts re-split).
    std::map<int, std::vector<TxShardOp>> by_shard;
    std::set<int> yes_votes;
    bool one_phase = false;
    bool snapshot = false;  ///< All-GET: lock-free epoch-consistent path.
    uint64_t snapshot_epoch = 0;  ///< Epoch the current attempt is pinned to.
    int reads_outstanding = 0;
    std::vector<TxReadResult> reads;  ///< Merged results (by op_index).
    TxAbortReason reason = TxAbortReason::kNone;
    bool decision_pending = false;  ///< SETNX in flight.
    bool decided = false;
    bool commit = false;
    std::set<int> acked;
    uint64_t vote_timer = 0;
  };

  void Decide(uint64_t tx_id, bool commit, TxAbortReason reason);
  void FinishIfAcked(uint64_t tx_id);
  /// (Re-)issues every read of a snapshot tx, pinned to table_.epoch().
  void StartSnapshot(uint64_t tx_id);
  /// All snapshot reads landed: answer the client, forget the tx.
  void FinishSnapshot(uint64_t tx_id);
  /// A snapshot read bounced MOVED: adopt/fetch the newer table, then
  /// restart the whole snapshot.
  void OnSnapshotMoved(uint64_t tx_id, uint64_t epoch);
  /// Read the "__rt.<epoch>" record from the decision group (at most
  /// one fetch per epoch in flight).
  void FetchTable(uint64_t epoch);
  /// Restarts every snapshot parked on a table fetch.
  void RestartParkedSnapshots();

  ShardedStateMachine* owner_;
  RoutingTable table_;  ///< Routing cache; refreshed by TM redirects.
  std::map<uint64_t, Tx> txs_;
  std::map<uint64_t, uint64_t> decision_seq_tx_;  ///< client seq -> tx.
  /// Snapshot reads in flight: (group, reader seq) -> (tx, op_index).
  std::map<std::pair<int, uint64_t>, std::pair<uint64_t, int>> snapshot_seq_;
  /// Routing-table fetches in flight: decision-client seq -> epoch.
  std::map<uint64_t, uint64_t> rt_seq_epoch_;
  std::set<uint64_t> rt_epochs_inflight_;
  std::set<uint64_t> parked_snapshots_;  ///< Awaiting a table fetch.
  int started_ = 0;
  int committed_ = 0;
  int aborted_ = 0;
  int redirected_ = 0;
  int snapshots_ = 0;
  int snapshot_restarts_ = 0;
};

/// The assembled sharded system. Spawn order (and therefore node-id
/// layout) is fixed: shard-group replicas first, then decision-group
/// replicas, then the infrastructure processes — so fault bounds can
/// target exactly the consensus nodes by id range.
class ShardedStateMachine {
 public:
  explicit ShardedStateMachine(ShardOptions options);
  ~ShardedStateMachine();

  /// Spawns every group and process into `sim`. Call exactly once,
  /// before Simulation::Start (or via Simulation::Builder::Setup).
  void Build(sim::Simulation* sim);

  /// Which shard owns `key` at EPOCH 1 (the static initial table, equal
  /// FNV-1a hash ranges across the first `shards` groups). Live routing
  /// may differ after a move; the routed components (coordinator, TMs,
  /// workload driver) each hold an epoch-gated RoutingTable cache.
  int ShardOf(const std::string& key) const;
  static uint64_t HashKey(const std::string& key);

  /// The epoch-1 routing table every cache starts from.
  const RoutingTable& InitialTable() const { return initial_table_; }

  /// Serving groups + spare groups.
  int total_groups() const { return options_.shards + options_.spare_groups; }

  /// The i-th key (by probe order) that hashes to `shard` — for tests
  /// and workloads that need keys with a known placement. Only valid
  /// for serving shards (< options().shards).
  std::string KeyForShard(int shard, int i) const;

  const ShardOptions& options() const { return options_; }
  sim::NodeId coordinator_id() const { return coordinator_->id(); }
  TxCoordinator* coordinator() const { return coordinator_; }
  TxManager* tx_manager(int shard) const { return tms_[shard]; }
  sim::NodeId tm_id(int shard) const { return tms_[shard]->id(); }
  ShardMover* mover() const { return mover_; }
  sim::NodeId mover_id() const;

  const consensus::ReplicaGroup* shard_group(int shard) const {
    return shard_groups_[shard].get();
  }
  const consensus::ReplicaGroup* decision_group() const {
    return decision_group_.get();
  }
  /// Replica ids of one shard group (for targeted partitions).
  const std::vector<sim::NodeId>& ShardMembers(int shard) const {
    return shard_groups_[shard]->members();
  }

  /// Runs every group's invariant probe (e.g. Raft Election Safety).
  void Probe();
  /// Group-level invariant violations, aggregated across all groups.
  std::vector<std::string> Violations() const;

  // --- internal wiring (used by TxManager / TxCoordinator) ---
  consensus::GroupClient* shard_client(int shard) const {
    return shard_clients_[shard];
  }
  consensus::GroupClient* tm_decision_client(int shard) const {
    return tm_decision_clients_[shard];
  }
  consensus::GroupClient* coord_decision_client() const {
    return coord_decision_client_;
  }
  consensus::GroupClient* mover_group_client(int group) const {
    return mover_group_clients_[group];
  }
  consensus::GroupClient* mover_decision_client() const {
    return mover_decision_client_;
  }
  /// Snapshot reader for `group`, spawned LAZILY on first use: spawning
  /// forks the root rng and shifts every later delay draw, so runs that
  /// never issue a read-only transaction must not pay for the readers
  /// (keeps pre-snapshot seeds and pinned repros bit-identical).
  consensus::GroupClient* snapshot_client(int group);

 private:
  ShardOptions options_;
  RoutingTable initial_table_;
  sim::Simulation* sim_ = nullptr;  ///< For lazy snapshot-reader spawns.
  std::vector<std::unique_ptr<consensus::ReplicaGroup>> shard_groups_;
  std::unique_ptr<consensus::ReplicaGroup> decision_group_;
  std::vector<TxManager*> tms_;
  std::vector<consensus::GroupClient*> shard_clients_;
  std::vector<consensus::GroupClient*> tm_decision_clients_;
  TxCoordinator* coordinator_ = nullptr;
  consensus::GroupClient* coord_decision_client_ = nullptr;
  ShardMover* mover_ = nullptr;
  std::vector<consensus::GroupClient*> mover_group_clients_;
  consensus::GroupClient* mover_decision_client_ = nullptr;
  std::vector<consensus::GroupClient*> snapshot_clients_;
};

/// Decision-record key for `tx_id` in the decision group's KV state.
std::string DecisionKey(uint64_t tx_id);
/// Durable prepare-record key for `tx_id` in a shard group's KV state.
std::string PrepareKey(uint64_t tx_id);

}  // namespace consensus40::shard

#endif  // CONSENSUS40_SHARD_SHARD_H_
