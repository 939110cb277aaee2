#include "shard/workload.h"

#include "shard/routing.h"

namespace consensus40::shard {

namespace {

/// Backoff before re-fetching a routing table the decision group does
/// not hold yet (fence observed before the flip record committed).
constexpr sim::Duration kRtRetry = 100 * sim::kMillisecond;

/// Transaction re-submission timeout (covers coordinator crashes).
constexpr sim::Duration kTxRetry = 2 * sim::kSecond;
/// Distinct keys per snapshot transaction.
constexpr int kSnapshotKeys = 2;
/// Reason-aware retry: the pause before a transient abort's fresh
/// attempt, and the attempts per logical transaction.
constexpr sim::Duration kAbortBackoff = 50 * sim::kMillisecond;
constexpr int kMaxTxAttempts = 3;

}  // namespace

WorkloadDriver::WorkloadDriver(ShardedStateMachine* ssm,
                               WorkloadOptions options,
                               std::vector<consensus::GroupClient*> readers,
                               consensus::GroupClient* rt_reader)
    : ssm_(ssm),
      options_(options),
      readers_(std::move(readers)),
      rt_reader_(rt_reader),
      table_(ssm->InitialTable()) {}

void WorkloadDriver::OnStart() {
  int initial = options_.concurrency < options_.ops ? options_.concurrency
                                                    : options_.ops;
  for (int i = 0; i < initial; ++i) IssueNext();
}

std::string WorkloadDriver::RandomKey(int space) {
  return "k" + std::to_string(rng().NextBounded(
                   static_cast<uint64_t>(space > 0 ? space : 1)));
}

void WorkloadDriver::IssueNext() {
  if (issued_ >= options_.ops) return;
  ++issued_;
  if (rng().NextDouble() < options_.read_fraction) {
    // The snapshot draw only happens when the knob is on, so runs with
    // the historical options replay bit-identically.
    if (options_.snapshot_fraction > 0 &&
        rng().NextDouble() < options_.snapshot_fraction) {
      IssueSnapshot();
    } else {
      IssueRead();
    }
    return;
  }
  bool cross = ssm_->options().shards > 1 &&
               rng().NextDouble() < options_.cross_shard_fraction;
  IssueTx(cross);
}

void WorkloadDriver::IssueRead() {
  ++stats_.reads.issued;
  SendRead(RandomKey(options_.key_space), Now());
}

void WorkloadDriver::SendRead(const std::string& key, sim::Time start) {
  int group = table_.GroupForKey(key);
  uint64_t seq = readers_[static_cast<size_t>(group)]->Read(key);
  pending_reads_[{group, seq}] = PendingRead{key, start};
}

void WorkloadDriver::IssueTx(bool cross) {
  uint64_t tx_id = ++next_tx_;
  PendingTx& tx = pending_txs_[tx_id];
  tx.cross = cross;
  tx.start = Now();
  const std::string value = "v" + std::to_string(tx_id);
  std::string k1 = RandomKey(options_.write_space);
  tx.ops.push_back(TxOp::Put(k1, value));
  if (cross) {
    // A second key on a different group (per the driver's current routing
    // view); bounded probing keeps the loop deterministic even for
    // pathological write spaces.
    int group1 = table_.GroupForKey(k1);
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::string k2 = RandomKey(options_.write_space);
      if (k2 != k1 && table_.GroupForKey(k2) != group1) {
        tx.ops.push_back(TxOp::Put(k2, value));
        break;
      }
    }
    if (tx.ops.size() == 1) tx.cross = false;  // Fallback: single-shard.
  }
  if (options_.txn_read_fraction > 0 &&
      rng().NextDouble() < options_.txn_read_fraction) {
    // Read-write transaction: a leading GET that shares a lock with the
    // writes and whose evaluated value rides back in the outcome.
    tx.ops.insert(tx.ops.begin(),
                  TxOp::Get(RandomKey(options_.write_space)));
  }
  (tx.cross ? stats_.cross : stats_.single).issued++;
  SendTx(tx_id);
}

void WorkloadDriver::IssueSnapshot() {
  uint64_t tx_id = ++next_tx_;
  PendingTx& tx = pending_txs_[tx_id];
  tx.snapshot = true;
  tx.start = Now();
  // Bounded probing for distinct keys, as in the cross-shard writer.
  for (int attempt = 0;
       attempt < 64 && static_cast<int>(tx.ops.size()) < kSnapshotKeys;
       ++attempt) {
    std::string key = RandomKey(options_.key_space);
    bool dup = false;
    for (const TxOp& op : tx.ops) dup = dup || op.key == key;
    if (!dup) tx.ops.push_back(TxOp::Get(key));
  }
  ++stats_.snapshots.issued;
  SendTx(tx_id);
}

void WorkloadDriver::SendTx(uint64_t tx_id) {
  PendingTx& tx = pending_txs_.at(tx_id);
  Send(ssm_->coordinator_id(), std::make_shared<BeginTxMsg>(tx_id, tx.ops));
  CancelTimer(tx.retry_timer);
  tx.retry_timer = SetTimer(kTxRetry, [this, tx_id] {
    if (pending_txs_.count(tx_id) == 0) return;
    ++stats_.retries;  // Coordinator lost it (crash) or is slow: re-submit.
    SendTx(tx_id);
  });
}

void WorkloadDriver::OnMessage(sim::NodeId from, const sim::Message& msg) {
  (void)from;
  const auto* m = dynamic_cast<const TxOutcomeMsg*>(&msg);
  if (m == nullptr) return;
  auto it = pending_txs_.find(m->tx_id);
  if (it == pending_txs_.end()) return;  // Duplicate outcome.
  PendingTx& tx = it->second;
  CancelTimer(tx.retry_timer);
  tx.retry_timer = 0;
  if (!m->committed) {
    ++stats_.aborts_by_reason[static_cast<size_t>(m->reason) < 6
                                 ? static_cast<size_t>(m->reason)
                                 : 0];
    // Reason-aware retry: transient aborts get a fresh attempt (a NEW
    // tx id — the old id's decision record is already aborted, so
    // re-submitting it would just replay the abort). A CAS mismatch is
    // semantic: retrying reproduces it, so it stays terminal.
    if (options_.reason_aware_retry &&
        m->reason != TxAbortReason::kCasMismatch &&
        tx.attempts < kMaxTxAttempts) {
      uint64_t new_id = ++next_tx_;
      PendingTx moved = std::move(tx);
      pending_txs_.erase(it);
      ++moved.attempts;
      pending_txs_[new_id] = std::move(moved);
      ++stats_.reason_retries;
      SetTimer(kAbortBackoff, [this, new_id] {
        if (pending_txs_.count(new_id)) SendTx(new_id);
      });
      return;
    }
  }
  OpStats& s = tx.snapshot ? stats_.snapshots
                           : (tx.cross ? stats_.cross : stats_.single);
  ++s.completed;
  (m->committed ? s.committed : s.aborted)++;
  sim::Duration latency = Now() - tx.start;
  s.latency_sum += latency;
  if (latency > s.latency_max) s.latency_max = latency;
  if (on_outcome_) on_outcome_(m->tx_id, m->committed);
  pending_txs_.erase(it);
  IssueNext();
}

void WorkloadDriver::OnReadResult(int group, uint64_t seq,
                                  const std::string& result) {
  if (crashed()) return;
  auto it = pending_reads_.find({group, seq});
  if (it == pending_reads_.end()) return;
  PendingRead read = it->second;
  pending_reads_.erase(it);
  if (result.compare(0, 6, "MOVED ") == 0) {
    // The key's range was migrated away. Learn the flip epoch's table
    // from the decision group, then re-route; the read keeps its original
    // start time, so migration stalls show up in the latency tail.
    ++stats_.moved;
    uint64_t epoch = std::strtoull(result.c_str() + 6, nullptr, 10);
    if (table_.epoch() >= epoch) {
      if (table_.GroupForKey(read.key) != group) {
        SendRead(read.key, read.start);  // A newer table routes elsewhere.
      } else {
        // Our table covers the fence's epoch yet still routes to the
        // bouncing group (a re-flip landed at a higher epoch than the
        // fence advertises): wait a beat for the newer flip to reach us
        // instead of hot-looping bounce/re-send against the fence.
        PendingRead parked = read;
        SetTimer(kRtRetry,
                 [this, parked] { SendRead(parked.key, parked.start); });
      }
    } else {
      parked_reads_.push_back(std::move(read));
      FetchTable(epoch);
    }
    return;
  }
  ++stats_.reads.completed;
  if (result == "NIL") ++stats_.reads.misses;
  sim::Duration latency = Now() - read.start;
  stats_.reads.latency_sum += latency;
  if (latency > stats_.reads.latency_max) stats_.reads.latency_max = latency;
  IssueNext();
}

void WorkloadDriver::FetchTable(uint64_t epoch) {
  if (rt_epoch_inflight_ >= epoch) return;
  rt_epoch_inflight_ = epoch;
  uint64_t seq = rt_reader_->Read(RoutingTable::RtKey(epoch));
  rt_fetches_[seq] = epoch;
}

void WorkloadDriver::OnRtResult(uint64_t seq, const std::string& result) {
  if (crashed()) return;
  auto it = rt_fetches_.find(seq);
  if (it == rt_fetches_.end()) return;
  uint64_t epoch = it->second;
  rt_fetches_.erase(it);
  std::optional<RoutingTable> t =
      RoutingTable::Decode(result, ssm_->total_groups());
  if (!t.has_value()) {
    // Fence observed before the flip record landed (the fence commits one
    // phase earlier in the move ladder), or a torn record: retry shortly.
    SetTimer(kRtRetry, [this, epoch] {
      if (rt_epoch_inflight_ == epoch) {
        uint64_t retry_seq = rt_reader_->Read(RoutingTable::RtKey(epoch));
        rt_fetches_[retry_seq] = epoch;
      }
    });
    return;
  }
  if (table_.MaybeAdopt(*t)) ++stats_.table_refreshes;
  if (rt_epoch_inflight_ <= epoch) rt_epoch_inflight_ = 0;
  // Re-route everything that was parked behind the fence. A re-routed
  // read can bounce again (chained moves); it just parks again.
  std::vector<PendingRead> parked = std::move(parked_reads_);
  parked_reads_.clear();
  for (PendingRead& read : parked) SendRead(read.key, read.start);
}

WorkloadDriver* SpawnWorkload(sim::Simulation* sim, ShardedStateMachine* ssm,
                              const WorkloadOptions& options) {
  std::vector<consensus::GroupClient*> readers;
  for (int g = 0; g < ssm->total_groups(); ++g) {
    // Readers share the layer-wide window: concurrent reads of distinct
    // keys are independent, so reordering within the window is harmless.
    // Spare groups get readers too — after a move they serve live ranges.
    readers.push_back(sim->Spawn<consensus::GroupClient>(
        ssm->shard_group(g), 300 * sim::kMillisecond,
        ssm->options().client_window));
  }
  consensus::GroupClient* rt_reader = sim->Spawn<consensus::GroupClient>(
      ssm->decision_group(), 300 * sim::kMillisecond, 1);
  WorkloadDriver* driver =
      sim->Spawn<WorkloadDriver>(ssm, options, readers, rt_reader);
  for (int g = 0; g < ssm->total_groups(); ++g) {
    int group = g;
    readers[static_cast<size_t>(g)]->SetCallback(
        [driver, group](uint64_t seq, const std::string& result,
                        bool /*read*/) {
          driver->OnReadResult(group, seq, result);
        });
  }
  rt_reader->SetCallback(
      [driver](uint64_t seq, const std::string& result, bool /*read*/) {
        driver->OnRtResult(seq, result);
      });
  return driver;
}

}  // namespace consensus40::shard
