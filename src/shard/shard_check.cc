/// Checker adapter for the sharded state machine: groups of 3 Raft
/// replicas plus a 3-replica decision group, driven by planned cross-shard
/// transactions (ShardTxClient), optionally racing one live range move
/// (MoveDriver). One scenario adapter covers every composition: plain
/// and batched 2PC-over-consensus, elastic resharding, typed read-write
/// transactions, and their out-of-bounds variants. The fault envelope
/// includes the two commitment-layer faults the subsystem exists to
/// survive — the coordinator crashing inside the prepare/commit window,
/// and a whole shard (or the decision group) being cut off — and still
/// expects both atomicity AND termination: because the commit decision
/// is a replicated write-once record, prepared participants finish the
/// protocol without the coordinator.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/adapters.h"
#include "shard/reshard.h"
#include "shard/shard.h"
#include "shard/txn_audit.h"
#include "smr/state_machine.h"

namespace consensus40::check {
namespace {

using shard::ShardedStateMachine;
using shard::TxOp;

/// Minimal transaction client: begins each planned transaction at its
/// scheduled time and re-submits on timeout, which is what rides out
/// coordinator crashes. Lives outside the fault bounds.
class ShardTxClient : public sim::Process {
 public:
  struct Planned {
    uint64_t tx_id = 0;
    std::vector<TxOp> ops;
    sim::Time at = 0;
  };

  ShardTxClient(sim::NodeId coordinator, std::vector<Planned> plan)
      : coordinator_(coordinator), plan_(std::move(plan)) {}

  void OnStart() override {
    for (const Planned& p : plan_) {
      SetTimer(p.at, [this, &p] { Begin(p); });
    }
  }

  void OnMessage(sim::NodeId, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const shard::TxOutcomeMsg*>(&msg);
    if (m == nullptr || outcomes.count(m->tx_id) > 0) return;
    outcomes[m->tx_id] = m->committed;
    Outcome& d = details[m->tx_id];
    d.committed = m->committed;
    d.reason = m->reason;
    d.reads = m->reads;
    CancelTimer(retry_timers_[m->tx_id]);
  }

  /// Full outcome, for the serializability audit.
  struct Outcome {
    bool committed = false;
    shard::TxAbortReason reason = shard::TxAbortReason::kNone;
    std::vector<shard::TxReadResult> reads;
  };

  std::map<uint64_t, bool> outcomes;
  std::map<uint64_t, Outcome> details;
  /// Transactions this client re-submitted at least once. Their GET
  /// results may come from a re-run of an already-committed transaction
  /// (post-commit state), so the audit must not trust them.
  std::set<uint64_t> retried;

 private:
  void Begin(const Planned& p) {
    if (outcomes.count(p.tx_id) > 0) return;
    Send(coordinator_, std::make_shared<shard::BeginTxMsg>(p.tx_id, p.ops));
    retry_timers_[p.tx_id] = SetTimer(2 * sim::kSecond, [this, &p] {
      retried.insert(p.tx_id);
      Begin(p);
    });
  }

  sim::NodeId coordinator_;
  std::vector<Planned> plan_;
  std::map<uint64_t, uint64_t> retry_timers_;
};

/// The ops of every command some replica of `group` applied.
std::unordered_set<std::string> AppliedOps(
    const consensus::ReplicaGroup* group) {
  std::unordered_set<std::string> ops;
  for (size_t i = 0; i < group->members().size(); ++i) {
    for (const smr::Command& cmd :
         group->CommittedPrefix(static_cast<int>(i))) {
      ops.insert(cmd.op);
    }
  }
  return ops;
}

/// Records the decision group's write-once record of each planned
/// transaction as a verdict at the group's first member, and returns
/// the recorded outcomes (true = commit).
std::map<uint64_t, bool> RecordDecisions(
    const smr::KvStore& decisions, const ShardedStateMachine& ssm,
    const std::vector<ShardTxClient::Planned>& plan, Observation* o) {
  std::map<uint64_t, bool> decided;
  for (const ShardTxClient::Planned& p : plan) {
    auto d = decisions.Get(shard::DecisionKey(p.tx_id));
    if (d.has_value()) {
      decided[p.tx_id] = *d == "C";
      o->verdicts[p.tx_id][ssm.decision_group()->members()[0]] =
          *d == "C" ? 'C' : 'A';
    }
  }
  return decided;
}

/// Keeps requesting the live range move until the mover takes it.
/// StartMove's queue is volatile, so a mover crashed before its claim
/// record committed forgets the request entirely — the re-request is the
/// client-side half of move recovery (the TM nudge is the server-side
/// half, and only exists once a freeze happened).
class MoveDriver : public sim::Process {
 public:
  MoveDriver(ShardedStateMachine* ssm, shard::MoveSpec spec, sim::Time at)
      : ssm_(ssm), spec_(spec), at_(at) {}

  void OnStart() override {
    SetTimer(at_, [this] { Tick(); });
  }
  void OnMessage(sim::NodeId, const sim::Message&) override {}

 private:
  void Tick() {
    shard::ShardMover* mover = ssm_->mover();
    if (mover->moves_done() > 0) return;
    if (!mover->crashed() && mover->idle()) mover->StartMove(spec_);
    SetTimer(400 * sim::kMillisecond, [this] { Tick(); });
  }

  ShardedStateMachine* ssm_;
  shard::MoveSpec spec_;
  sim::Time at_;
};

/// Builds the audit inputs from the client's recorded outcomes: one
/// AuditTx per committed read-write transaction (GET observations
/// dropped for re-submitted transactions; a successful CAS contributes
/// its expected value as a proven read), and one per completed
/// snapshot (all-GET) transaction.
void BuildAuditTxs(const std::vector<ShardTxClient::Planned>& plan,
                   const ShardTxClient& client,
                   std::vector<shard::AuditTx>* committed,
                   std::vector<shard::AuditTx>* snapshots) {
  for (const ShardTxClient::Planned& p : plan) {
    auto it = client.details.find(p.tx_id);
    if (it == client.details.end() || !it->second.committed) continue;
    bool all_get = true;
    for (const TxOp& op : p.ops) all_get = all_get && !op.IsWrite();
    shard::AuditTx a;
    a.tx_id = p.tx_id;
    bool trust_reads = all_get || client.retried.count(p.tx_id) == 0;
    if (trust_reads) {
      for (const shard::TxReadResult& r : it->second.reads) {
        if (r.op_index < 0 ||
            r.op_index >= static_cast<int>(p.ops.size())) {
          continue;
        }
        a.reads.push_back(shard::AuditRead{
            p.ops[static_cast<size_t>(r.op_index)].key, r.found, r.value});
      }
    }
    if (all_get) {
      snapshots->push_back(std::move(a));
      continue;
    }
    for (const TxOp& op : p.ops) {
      switch (op.type) {
        case TxOp::Type::kGet:
          break;
        case TxOp::Type::kPut:
          a.writes.push_back(shard::AuditWrite{op.key, op.value});
          break;
        case TxOp::Type::kDelete:
          a.writes.push_back(shard::AuditWrite{op.key, std::nullopt});
          break;
        case TxOp::Type::kCas:
          // Commit proves the prepare-time match, whichever attempt
          // decided — this read is trustworthy even after a re-submit.
          a.reads.push_back(shard::AuditRead{op.key, true, op.expected});
          a.writes.push_back(shard::AuditWrite{op.key, op.value});
          break;
      }
    }
    committed->push_back(std::move(a));
  }
}

/// The value every planned write of transaction `tx` installs.
std::string TxValue(uint64_t tx) { return "t" + std::to_string(tx); }

/// Whether every op of `plan` is a PUT of its own transaction's value:
/// then a key holding that value proves its transaction's commit applied
/// there, which the applied-state verdicts rely on.
bool PutsOwnValues(const std::vector<ShardTxClient::Planned>& plan) {
  for (const ShardTxClient::Planned& p : plan) {
    for (const TxOp& op : p.ops) {
      if (op.type != TxOp::Type::kPut || op.value != TxValue(p.tx_id)) {
        return false;
      }
    }
  }
  return true;
}

using Plan = std::vector<ShardTxClient::Planned> (*)(
    const ShardedStateMachine&);

/// The one adapter of the sharded family. A scenario is a label, the
/// system's ShardOptions and a plan for ShardTxClient. Spare groups mean
/// a live move races the plan: MoveDriver hands shard 0's initial range
/// to the first spare group at 350 ms, and the fault envelope adds mover
/// crashes across the move's phase ladder and old/new-owner cuts
/// mid-copy. Either way every scenario must stay atomic AND terminate:
/// the commit decision and every move transition are write-once
/// decision-group records, so prepared participants finish without the
/// coordinator and any participant can finish a dead mover's move.
///
/// Every scenario is judged on the client's verdicts, the decision
/// records, the serializability and snapshot-membership audits over the
/// client-observed reads, per-group prefix agreement and the system's
/// own violations. A plan made only of PUTs of each transaction's own
/// value is also judged on applied state and lost writes.
class ShardScenarioAdapter : public ProtocolAdapter {
 public:
  ShardScenarioAdapter(const char* label, const shard::ShardOptions& options,
                       Plan plan)
      : label_(label),
        ssm_(std::make_unique<ShardedStateMachine>(options)),
        plan_(plan(*ssm_)),
        moves_(options.spare_groups > 0),
        puts_own_values_(PutsOwnValues(plan_)) {}

  const char* name() const override { return label_; }

  FaultBounds bounds() const override {
    // Node-id layout is fixed by ShardedStateMachine::Build's documented
    // spawn order: the consensus nodes (each serving and spare group's
    // replicas, then the decision group's) from 0, then per group a TM, a
    // shard client and a TM decision client, the coordinator, its
    // decision client and the mover.
    const shard::ShardOptions& so = ssm_->options();
    FaultBounds b;
    for (int g = 0; g <= ssm_->total_groups(); ++g) {
      const int size = g < ssm_->total_groups() ? so.replicas_per_shard
                                                : so.decision_replicas;
      std::vector<sim::NodeId> ids;
      for (int i = 0; i < size; ++i) ids.push_back(b.nodes++);
      b.shard_groups.push_back(std::move(ids));
    }
    b.max_crashed = 1;  // Any single group keeps a majority of its 3.
    b.restartable = true;
    b.partitionable = true;
    b.coordinator = b.nodes + 3 * ssm_->total_groups();
    // The transactions run between 300ms and roughly 1.2s; a coordinator
    // crash anywhere in this window hits prepare/vote/decide in flight.
    b.coordinator_window_lo = 250 * sim::kMillisecond;
    b.coordinator_window_hi = 1300 * sim::kMillisecond;
    b.coordinator_restartable = true;  // Restarts (volatile) at the horizon.
    if (moves_) {
      // Mover crashes landing anywhere in the move's phase ladder, and
      // old/new-owner cuts mid-migration.
      b.mover = b.coordinator + 2;
      b.mover_window_lo = 300 * sim::kMillisecond;
      b.mover_window_hi = 1500 * sim::kMillisecond;
      b.mover_restartable = true;
      b.move_source = 0;
      b.move_dest = so.shards;
    }
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ssm_->Build(sim);
    const FaultBounds b = bounds();
    if (ssm_->coordinator_id() != b.coordinator ||
        (moves_ && ssm_->mover_id() != b.mover)) {
      layout_error_ = std::string(label_) + " adapter: coordinator/mover ids " +
                      std::to_string(ssm_->coordinator_id()) + "/" +
                      std::to_string(ssm_->mover_id()) +
                      " do not match the declared fault bounds";
    }
    client_ = sim->Spawn<ShardTxClient>(ssm_->coordinator_id(), plan_);
    if (moves_) {
      shard::MoveSpec spec;
      spec.lo = 0;
      spec.hi = ssm_->InitialTable().entries()[1].lo;
      spec.to = b.move_dest;
      sim->Spawn<MoveDriver>(ssm_.get(), spec, 350 * sim::kMillisecond);
    }
  }

  bool Done() const override {
    if (client_ == nullptr || client_->outcomes.size() < plan_.size()) {
      return false;
    }
    return !moves_ ||
           (ssm_->mover()->moves_done() >= 1 && ssm_->mover()->idle());
  }

  void OnProbe(sim::Simulation*) override { ssm_->Probe(); }

  Observation Observe() const override {
    Observation o;
    if (!layout_error_.empty()) o.self_reported.push_back(layout_error_);
    if (client_ == nullptr) return o;

    // Client-visible outcomes.
    for (const auto& [tx, committed] : client_->outcomes) {
      o.verdicts[tx][client_->id()] = committed ? 'C' : 'A';
    }

    // The replicated decision records, read at the decision group's
    // freshest replica — its authoritative end state even when some
    // replicas trail (crashed late, restarted at the horizon).
    const smr::KvStore& decisions = ssm_->decision_group()->FreshestKv();
    const std::map<uint64_t, bool> decided =
        RecordDecisions(decisions, *ssm_, plan_, &o);

    // The audits over the client-observed reads (vacuous without reads).
    std::vector<shard::AuditTx> committed, snapshots;
    BuildAuditTxs(plan_, *client_, &committed, &snapshots);
    for (const std::string& v : shard::AuditSerializability(committed)) {
      o.self_reported.push_back(v);
    }
    for (const std::string& v :
         shard::AuditSnapshotMembership(committed, snapshots)) {
      o.self_reported.push_back(v);
    }

    if (puts_own_values_) ObserveAppliedState(decisions, decided, &o);

    // Per-group agreement (groups have unrelated logs, so they cannot
    // share Observation::logs) is each group's apply ledger, reported
    // with the system's own violations.
    for (const std::string& v : ssm_->Violations()) {
      o.self_reported.push_back("shard system: " + v);
    }
    return o;
  }

 private:
  /// Applied state, judged at each key's AUTHORITATIVE owner under the
  /// end-of-run routing table: the initial placement plus every flip
  /// record the decision group holds (none without a move). A key
  /// holding its transaction's value is a commit; a prepare record
  /// without the write is in-doubt ('P', conflicts with nothing — an
  /// aborted transaction's prepare record legitimately outlives the
  /// abort); anything else contributes no verdict. So atomicity
  /// violations surface as e.g. a write applied on one shard for a
  /// transaction whose decision record says abort.
  ///
  /// A committed transaction's write must have either been migrated with
  /// its range or landed at the new owner directly. A commit decision
  /// whose write was LOGGED at the old owner yet made it into neither
  /// owner's state is a lost write — it applied behind the routing fence
  /// and was dropped, the violation the flip-before-drain out-of-bounds
  /// variant must produce. (The log-presence condition keeps
  /// decided-but-still-in-flight writes — the run ends the moment the
  /// client hears the outcome — from being miscalled as lost.)
  void ObserveAppliedState(const smr::KvStore& decisions,
                           const std::map<uint64_t, bool>& decided,
                           Observation* o) const {
    shard::RoutingTable table = ssm_->InitialTable();
    for (uint64_t e = 2; e <= 8; ++e) {
      auto rt = decisions.Get(shard::RoutingTable::RtKey(e));
      if (!rt.has_value()) break;
      if (auto t = shard::RoutingTable::Decode(*rt, ssm_->total_groups())) {
        table.MaybeAdopt(*t);
      }
    }

    std::vector<const smr::KvStore*> kvs;
    for (int g = 0; g < ssm_->total_groups(); ++g) {
      kvs.push_back(&ssm_->shard_group(g)->FreshestKv());
    }
    // Each pre-move owner's applied ops, gathered on first use.
    std::vector<std::optional<std::unordered_set<std::string>>> applied(
        kvs.size());
    for (const ShardTxClient::Planned& p : plan_) {
      const uint64_t tx = p.tx_id;
      for (const TxOp& op : p.ops) {
        const size_t owner = static_cast<size_t>(table.GroupForKey(op.key));
        const size_t initial_owner =
            static_cast<size_t>(ssm_->InitialTable().GroupForKey(op.key));
        sim::NodeId at = ssm_->ShardMembers(static_cast<int>(owner))[0];
        auto v = kvs[owner]->Get(op.key);
        bool present = v.has_value() && *v == op.value;
        if (present) {
          o->verdicts[tx][at] = 'C';
        } else if (kvs[owner]->Get(shard::PrepareKey(tx)).has_value() ||
                   kvs[initial_owner]->Get(shard::PrepareKey(tx)).has_value()) {
          o->verdicts[tx][at] = 'P';
        }
        auto d = decided.find(tx);
        if (present || d == decided.end() || !d->second) continue;
        auto old_v = kvs[initial_owner]->Get(op.key);
        if (old_v.has_value() && *old_v == op.value) continue;
        std::optional<std::unordered_set<std::string>>& ops =
            applied[initial_owner];
        if (!ops.has_value()) {
          ops = AppliedOps(ssm_->shard_group(static_cast<int>(initial_owner)));
        }
        if (ops->count("PUT " + op.key + " " + op.value) > 0) {
          o->self_reported.push_back(
              "reshard: lost write: tx " + std::to_string(tx) +
              " decided commit and logged its write at the pre-move owner "
              "(group " +
              std::to_string(initial_owner) + ") but key " + op.key +
              " holds its value at neither owner (authoritative: group " +
              std::to_string(owner) + ")");
        }
      }
    }
  }

  const char* label_;
  std::unique_ptr<ShardedStateMachine> ssm_;
  std::vector<ShardTxClient::Planned> plan_;
  bool moves_;
  bool puts_own_values_;
  ShardTxClient* client_ = nullptr;
  std::string layout_error_;
};

/// Three cross-shard transactions on disjoint key pairs, each writing its
/// own value on both shards, staggered so generated faults land in every
/// protocol phase.
std::vector<ShardTxClient::Planned> DisjointPuts(
    const ShardedStateMachine& ssm) {
  std::vector<ShardTxClient::Planned> plan;
  for (uint64_t tx = 1; tx <= 3; ++tx) {
    const int i = static_cast<int>(tx) - 1;
    plan.push_back({tx,
                    {TxOp::Put(ssm.KeyForShard(0, i), TxValue(tx)),
                     TxOp::Put(ssm.KeyForShard(1, i), TxValue(tx))},
                    (300 + 200 * i) * sim::kMillisecond});
  }
  return plan;
}

/// Typed GET/PUT/DELETE/CAS transactions — including a write-skew-prone
/// pair that shared locks must serialize — plus repeated read-only
/// snapshots. With prepare-time shared/exclusive locking no schedule may
/// produce a history with no serial explanation.
std::vector<ShardTxClient::Planned> TypedTransactions(
    const ShardedStateMachine& ssm) {
  const std::string a0 = ssm.KeyForShard(0, 0);
  const std::string a1 = ssm.KeyForShard(0, 1);
  const std::string a2 = ssm.KeyForShard(0, 2);
  const std::string b0 = ssm.KeyForShard(1, 0);
  const std::string b1 = ssm.KeyForShard(1, 1);
  const sim::Duration ms = sim::kMillisecond;
  return {
      // Blind cross-shard PUT pair (the historical workload shape).
      {1, {TxOp::Put(a0, "t1"), TxOp::Put(b0, "t1")}, 300 * ms},
      // Concurrent write-skew-prone pair: each reads the key the other
      // writes. Shared locks force one to abort or a serial order.
      {2, {TxOp::Get(a1), TxOp::Put(b1, "t2")}, 420 * ms},
      {3, {TxOp::Get(b1), TxOp::Put(a1, "t3")}, 420 * ms},
      // Single-shard one-phase CAS: succeeds only over tx 1's value.
      {4, {TxOp::Cas(a0, "t1", "t4")}, 650 * ms},
      // Cross-shard with a delete.
      {5, {TxOp::Del(b0), TxOp::Put(a2, "t5")}, 700 * ms},
      // Read-only snapshots: one inside the move window, one late.
      {6, {TxOp::Get(a0), TxOp::Get(b0)}, 500 * ms},
      {7, {TxOp::Get(a0), TxOp::Get(a1), TxOp::Get(b1)}, 1000 * ms},
  };
}

/// Two concurrent write-skew transactions: tx 1 reads x and writes y,
/// tx 2 reads y and writes x.
std::vector<ShardTxClient::Planned> WriteSkew(const ShardedStateMachine& ssm) {
  const std::string x = ssm.KeyForShard(0, 0);
  const std::string y = ssm.KeyForShard(1, 0);
  return {
      {1, {TxOp::Get(x), TxOp::Put(y, "t1")}, 300 * sim::kMillisecond},
      {2, {TxOp::Get(y), TxOp::Put(x, "t2")}, 300 * sim::kMillisecond},
  };
}

AdapterFactory Scenario(const char* label, const shard::ShardOptions& options,
                        Plan plan) {
  return [label, options, plan](uint64_t) {
    return std::make_unique<ShardScenarioAdapter>(label, options, plan);
  };
}

/// 2 serving shards + 1 spare group: the topology of a live move.
shard::ShardOptions WithSpareGroup() {
  shard::ShardOptions so;
  so.spare_groups = 1;
  return so;
}

}  // namespace

AdapterFactory MakeShardAdapter() {
  return Scenario("shard", shard::ShardOptions{}, DisjointPuts);
}

AdapterFactory MakeShardBatchedAdapter() {
  // Batching + windowing on every group and client; snapshotting stays
  // off (see MakeBatchedGroupAdapter for why the prefix invariant needs
  // full prefixes). Node layout is unchanged — tuning adds no processes
  // — so the declared fault bounds still hold.
  shard::ShardOptions so;
  so.client_window = 4;
  so.batch_size = 4;
  so.batch_delay = 1 * sim::kMillisecond;
  return Scenario("shard_batched", so, DisjointPuts);
}

AdapterFactory MakeShardReshardAdapter() {
  return Scenario("shard_reshard", WithSpareGroup(), DisjointPuts);
}

AdapterFactory MakeShardReshardOutOfBoundsAdapter() {
  // The mover flips the routing epoch BEFORE freezing/draining the old
  // owner: transactions still in flight there apply their writes after
  // the copy snapshot and behind the fence — a committed write that
  // exists at no owner. The checker must find and shrink this.
  shard::ShardOptions so = WithSpareGroup();
  so.unsafe_flip_before_drain = true;
  return Scenario("shard_reshard_unsafe", so, DisjointPuts);
}

AdapterFactory MakeShardTxnAdapter() {
  return Scenario("shard_txn", WithSpareGroup(), TypedTransactions);
}

AdapterFactory MakeShardTxnNoReadLocksAdapter() {
  // OUT-OF-BOUNDS: GET ops take no shared locks (unsafe_no_read_locks).
  // Neither write-skew prepare conflicts, both commit having read the
  // initial (absent) versions, and no serial order explains the history:
  // the serializability audit must flag it on essentially every
  // schedule, and the sweep pins a canonical shrunken repro. Plain shard
  // topology (no mover) keeps the repro minimal.
  shard::ShardOptions so;
  so.unsafe_no_read_locks = true;
  return Scenario("shard_txn_unsafe", so, WriteSkew);
}

}  // namespace consensus40::check
