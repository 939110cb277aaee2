/// \file
/// Deterministic workload driver for the sharded state machine: replays
/// a configurable read / single-shard-write / cross-shard-write mix with
/// a miss-heavy key distribution, and reports throughput, latency, and
/// abort rate per operation class. All randomness flows from the
/// driver's per-process Rng, so a (seed, options) pair fully determines
/// the run — the property every checker and benchmark here relies on.

#ifndef CONSENSUS40_SHARD_WORKLOAD_H_
#define CONSENSUS40_SHARD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "shard/shard.h"
#include "sim/simulation.h"

namespace consensus40::shard {

/// Transactions write the value "v<tx_id>", unique per transaction so
/// atomicity checkers can tell writers apart, and re-submit after two
/// virtual seconds without an outcome (covering coordinator crashes).
struct WorkloadOptions {
  /// Total operations (reads + transactions) to issue.
  int ops = 500;
  /// Operations kept outstanding at once (closed loop per slot).
  int concurrency = 4;
  /// Fraction of operations that are linearizable single-key reads
  /// (served by the protocol's read path, e.g. Raft read-index).
  double read_fraction = 0.5;
  /// Fraction of WRITE transactions that span two shards (2PC).
  double cross_shard_fraction = 0.2;
  /// Reads draw keys from [0, key_space); writes from [0, write_space).
  /// key_space > write_space makes the read mix miss-heavy: most reads
  /// hit keys no transaction ever wrote.
  int key_space = 400;
  int write_space = 100;

  /// Read-mix knobs. All default OFF and draw no randomness when off,
  /// so every pre-existing (seed, options) run replays bit-identically.
  /// Fraction of read operations issued as two-key read-only
  /// transactions (the coordinator's lock-free snapshot path) instead
  /// of single-key read-index reads.
  double snapshot_fraction = 0.0;
  /// Fraction of write transactions that carry a leading GET op — a
  /// read-write transaction: the GET takes a shared lock at prepare and
  /// its evaluated result rides back in the outcome.
  double txn_read_fraction = 0.0;
  /// Reason-aware abort handling (off = historical behaviour, every
  /// abort is terminal): transient aborts — lock conflict, frozen
  /// range, stale route, decision timeout — re-submit as a fresh
  /// attempt after 50 ms, up to three attempts per logical transaction;
  /// semantic aborts (CAS mismatch) stay terminal, because retrying one
  /// reproduces the mismatch.
  bool reason_aware_retry = false;
};

/// Counters for one operation class, in virtual time.
struct OpStats {
  int issued = 0;
  int completed = 0;  ///< Reads answered / transactions resolved.
  int committed = 0;  ///< Transactions only.
  int aborted = 0;    ///< Transactions only.
  int misses = 0;     ///< Reads only: result was NIL.
  sim::Duration latency_sum = 0;
  sim::Duration latency_max = 0;

  double MeanLatencyMs() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(latency_sum) / completed / 1000.0;
  }
};

struct WorkloadStats {
  OpStats reads;
  OpStats single;  ///< Single-shard (one-phase) transactions.
  OpStats cross;   ///< Cross-shard (full 2PC) transactions.
  OpStats snapshots;  ///< Read-only snapshot transactions.
  int retries = 0;  ///< Transaction re-submissions (timeouts).
  int moved = 0;    ///< Reads bounced by a routing fence ("MOVED <epoch>").
  int table_refreshes = 0;  ///< Routing tables adopted from the decision group.
  /// Aborts by TxAbortReason (indexed by the enum's numeric value).
  /// Counted on every abort outcome, retried or not.
  int aborts_by_reason[6] = {0, 0, 0, 0, 0, 0};
  /// Fresh attempts issued by the reason-aware retry policy.
  int reason_retries = 0;

  int completed() const {
    return reads.completed + single.completed + cross.completed +
           snapshots.completed;
  }
};

/// The driver process. Construct via SpawnWorkload, which wires the
/// per-shard reader clients.
class WorkloadDriver : public sim::Process {
 public:
  WorkloadDriver(ShardedStateMachine* ssm, WorkloadOptions options,
                 std::vector<consensus::GroupClient*> readers,
                 consensus::GroupClient* rt_reader);

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnReadResult(int group, uint64_t seq, const std::string& result);
  void OnRtResult(uint64_t seq, const std::string& result);

  bool done() const { return stats_.completed() >= options_.ops; }
  const WorkloadStats& stats() const { return stats_; }
  /// Called with (tx id, committed) for every transaction outcome this
  /// process records (for checkers; it keeps no outcome log).
  using OutcomeFn = std::function<void(uint64_t tx_id, bool committed)>;
  void SetOutcomeFn(OutcomeFn fn) { on_outcome_ = std::move(fn); }
  /// The driver's current routing view (for tests).
  const RoutingTable& table() const { return table_; }

 private:
  struct PendingTx {
    std::vector<TxOp> ops;
    bool cross = false;
    bool snapshot = false;  ///< All-GET read-only transaction.
    int attempts = 1;       ///< Submissions under reason_aware_retry.
    sim::Time start = 0;
    uint64_t retry_timer = 0;
  };
  struct PendingRead {
    std::string key;
    sim::Time start = 0;
  };

  void IssueNext();
  void IssueRead();
  void SendRead(const std::string& key, sim::Time start);
  void IssueTx(bool cross);
  void IssueSnapshot();
  void SendTx(uint64_t tx_id);
  void FetchTable(uint64_t epoch);
  std::string RandomKey(int space);

  ShardedStateMachine* ssm_;
  WorkloadOptions options_;
  std::vector<consensus::GroupClient*> readers_;
  consensus::GroupClient* rt_reader_;
  /// The driver's local routing view. Starts at the initial placement and
  /// advances only via tables fetched from the decision group after a
  /// "MOVED <epoch>" bounce — the same adoption rule every other routing
  /// consumer follows.
  RoutingTable table_;
  WorkloadStats stats_;
  int issued_ = 0;
  uint64_t next_tx_ = 0;
  std::map<uint64_t, PendingTx> pending_txs_;
  std::map<std::pair<int, uint64_t>, PendingRead> pending_reads_;
  /// Reads bounced by a fence, waiting for a newer table to re-route.
  std::vector<PendingRead> parked_reads_;
  /// Outstanding "__rt.<epoch>" fetches at the decision group (seq -> epoch).
  std::map<uint64_t, uint64_t> rt_fetches_;
  /// Highest epoch a fetch is in flight for (suppresses duplicates).
  uint64_t rt_epoch_inflight_ = 0;
  OutcomeFn on_outcome_;
};

/// Spawns one reader GroupClient per shard plus the driver, and wires
/// the read callbacks. Must run after ssm->Build (the driver's node id
/// lands after all of the system's — fault bounds stay contiguous).
WorkloadDriver* SpawnWorkload(sim::Simulation* sim, ShardedStateMachine* ssm,
                              const WorkloadOptions& options);

}  // namespace consensus40::shard

#endif  // CONSENSUS40_SHARD_WORKLOAD_H_
