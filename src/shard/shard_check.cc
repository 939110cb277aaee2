/// Checker adapter for the sharded state machine: 2 shards x 3 Raft
/// replicas plus a 3-replica decision group, driven by three cross-shard
/// transactions on disjoint keys. The fault envelope includes the two
/// commitment-layer faults the subsystem exists to survive — the
/// coordinator crashing inside the prepare/commit window, and a whole
/// shard (or the decision group) being cut off — and still expects both
/// atomicity AND termination: because the commit decision is a
/// replicated write-once record, prepared participants finish the
/// protocol without the coordinator.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
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

/// The longest committed prefix across the group's replicas.
std::vector<smr::Command> BestPrefix(const consensus::ReplicaGroup* group) {
  std::vector<smr::Command> best;
  for (size_t i = 0; i < group->members().size(); ++i) {
    std::vector<smr::Command> prefix =
        group->CommittedPrefix(static_cast<int>(i));
    if (prefix.size() > best.size()) best = std::move(prefix);
  }
  return best;
}

smr::KvStore Replay(const std::vector<smr::Command>& prefix) {
  smr::KvStore kv;
  smr::DedupingExecutor dedup;
  for (const smr::Command& cmd : prefix) dedup.Apply(&kv, cmd);
  return kv;
}

/// Replays the longest committed prefix across the group's replicas
/// into a KvStore — the group's authoritative end state even when some
/// replicas trail (crashed late, restarted at the horizon).
smr::KvStore Replay(const consensus::ReplicaGroup* group) {
  return Replay(BestPrefix(group));
}

/// Reports every pair of the group's replicas whose committed prefixes
/// diverge, labelled `label`.
void PrefixCheck(const consensus::ReplicaGroup* group,
                 const std::string& label, Observation* o) {
  std::vector<std::vector<smr::Command>> prefixes;
  for (size_t i = 0; i < group->members().size(); ++i) {
    prefixes.push_back(group->CommittedPrefix(static_cast<int>(i)));
  }
  for (size_t i = 0; i < prefixes.size(); ++i) {
    for (size_t j = i + 1; j < prefixes.size(); ++j) {
      size_t common = std::min(prefixes[i].size(), prefixes[j].size());
      for (size_t k = 0; k < common; ++k) {
        if (!(prefixes[i][k] == prefixes[j][k])) {
          o->self_reported.push_back(
              label + ": replicas " + std::to_string(i) + " and " +
              std::to_string(j) + " diverge at log index " +
              std::to_string(k));
          break;
        }
      }
    }
  }
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

class ShardCheckAdapter : public ProtocolAdapter {
 public:
  explicit ShardCheckAdapter(const char* label = "shard",
                             const shard::ShardOptions& options = Options())
      : label_(label), ssm_(std::make_unique<ShardedStateMachine>(options)) {
    // Three cross-shard transactions on disjoint key pairs, staggered so
    // generated faults land in every protocol phase.
    for (uint64_t tx = 1; tx <= kTxs; ++tx) {
      ShardTxClient::Planned p;
      p.tx_id = tx;
      int i = static_cast<int>(tx) - 1;
      std::string value = "t" + std::to_string(tx);
      p.ops = {TxOp{ssm_->KeyForShard(0, i), value},
               TxOp{ssm_->KeyForShard(1, i), value}};
      p.at = (300 + 200 * i) * sim::kMillisecond;
      plan_.push_back(std::move(p));
    }
  }

  const char* name() const override { return label_; }

  FaultBounds bounds() const override {
    // Node-id layout is fixed by ShardedStateMachine::Build's documented
    // spawn order: shard replicas [0,6), decision replicas [6,9), then
    // TMs (2), shard clients (2), TM decision clients (2), coordinator.
    FaultBounds b;
    b.first_node = 0;
    b.nodes = kConsensusNodes;
    b.max_crashed = 1;  // Any single group keeps a majority of its 3.
    b.restartable = true;
    b.partitionable = true;
    b.coordinator = kCoordinatorId;
    // The transactions run between 300ms and roughly 1.2s; a coordinator
    // crash anywhere in this window hits prepare/vote/decide in flight.
    b.coordinator_window_lo = 250 * sim::kMillisecond;
    b.coordinator_window_hi = 1300 * sim::kMillisecond;
    b.coordinator_restartable = true;  // Restarts (volatile) at the horizon.
    b.shard_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ssm_->Build(sim);
    if (ssm_->coordinator_id() != kCoordinatorId) {
      layout_error_ = "shard adapter: coordinator id " +
                      std::to_string(ssm_->coordinator_id()) +
                      " does not match the declared fault bounds (" +
                      std::to_string(kCoordinatorId) + ")";
    }
    client_ = sim->Spawn<ShardTxClient>(ssm_->coordinator_id(), plan_);
  }

  bool Done() const override {
    return client_ != nullptr && client_->outcomes.size() >= kTxs;
  }

  /// The whole point: unlike plain 2PC, this composition must terminate
  /// even when the coordinator dies between prepare and commit.
  bool ExpectTermination() const override { return true; }

  void OnProbe(sim::Simulation*) override { ssm_->Probe(); }

  Observation Observe() const override {
    Observation o;
    if (!layout_error_.empty()) o.self_reported.push_back(layout_error_);
    if (client_ == nullptr) return o;

    // Client-visible outcomes.
    for (const auto& [tx, committed] : client_->outcomes) {
      o.verdicts[tx][client_->id()] = committed ? 'C' : 'A';
    }

    // The replicated decision records.
    RecordDecisions(Replay(ssm_->decision_group()), *ssm_, plan_, &o);

    // Applied state per shard. A key holding the transaction's value is
    // a commit; a prepare record without the write is in-doubt ('P',
    // conflicts with nothing — an aborted transaction's prepare record
    // legitimately outlives the abort); anything else contributes no
    // verdict. So atomicity violations surface as e.g. a write applied
    // on one shard for a transaction whose decision record says abort.
    for (int s = 0; s < 2; ++s) {
      smr::KvStore kv = Replay(ssm_->shard_group(s));
      sim::NodeId at = ssm_->ShardMembers(s)[0];
      for (uint64_t tx = 1; tx <= kTxs; ++tx) {
        const TxOp& op = plan_[tx - 1].ops[static_cast<size_t>(s)];
        auto v = kv.Get(op.key);
        if (v.has_value() && *v == op.value) {
          o.verdicts[tx][at] = 'C';
        } else if (kv.Get(shard::PrepareKey(tx)).has_value()) {
          o.verdicts[tx][at] = 'P';
        }
      }
    }

    // Per-group prefix consistency (groups have unrelated logs, so they
    // cannot share Observation::logs — that invariant compares all
    // pairs). Report divergences through the self-reported channel.
    for (int s = 0; s < 2; ++s) {
      PrefixCheck(ssm_->shard_group(s), "shard " + std::to_string(s), &o);
    }
    PrefixCheck(ssm_->decision_group(), "decision group", &o);

    for (const std::string& v : ssm_->Violations()) {
      o.self_reported.push_back("shard system: " + v);
    }
    return o;
  }

 private:
  static constexpr int kConsensusNodes = 9;  // 2 shards x 3 + 3 decision.
  static constexpr sim::NodeId kCoordinatorId = 15;
  static constexpr uint64_t kTxs = 3;

  static shard::ShardOptions Options() {
    shard::ShardOptions so;  // Defaults: 2 shards x 3, 3 decision, raft.
    return so;
  }

  const char* label_;
  std::unique_ptr<ShardedStateMachine> ssm_;
  std::vector<ShardTxClient::Planned> plan_;
  ShardTxClient* client_ = nullptr;
  std::string layout_error_;
};

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

/// The elastic-resharding composition: 2 serving shards + 1 spare group,
/// with one live move (shard 0's whole initial range -> the spare)
/// racing three staggered cross-shard transactions. The fault envelope
/// adds the two migration-specific faults — the mover crashing inside
/// the move window (every phase boundary of the ladder) and the old or
/// new owner group partitioned mid-copy — on top of the usual replica
/// crashes, coordinator crash, and shard cuts. Expected to terminate AND
/// stay atomic: every transition of the move is a write-once record in
/// the decision group, so any participant can finish a dead mover's move.
class ReshardCheckAdapter : public ProtocolAdapter {
 public:
  explicit ReshardCheckAdapter(const char* label = "shard_reshard",
                               bool unsafe_flip = false)
      : label_(label) {
    shard::ShardOptions so;  // 2 shards x 3 replicas, 3 decision replicas.
    so.spare_groups = 1;
    so.unsafe_flip_before_drain = unsafe_flip;
    ssm_ = std::make_unique<ShardedStateMachine>(so);
    for (uint64_t tx = 1; tx <= kTxs; ++tx) {
      ShardTxClient::Planned p;
      p.tx_id = tx;
      int i = static_cast<int>(tx) - 1;
      std::string value = "t" + std::to_string(tx);
      p.ops = {TxOp{ssm_->KeyForShard(0, i), value},
               TxOp{ssm_->KeyForShard(1, i), value}};
      p.at = (300 + 200 * i) * sim::kMillisecond;
      plan_.push_back(std::move(p));
    }
  }

  const char* name() const override { return label_; }

  FaultBounds bounds() const override {
    // Spawn order: 3 groups x 3 replicas [0,9), decision replicas [9,12),
    // TMs (3), shard clients (3), TM decision clients (3), coordinator
    // (21), its decision client, mover (23), mover clients (4).
    FaultBounds b;
    b.first_node = 0;
    b.nodes = kConsensusNodes;
    b.max_crashed = 1;
    b.restartable = true;
    b.partitionable = true;
    b.coordinator = kCoordinatorId;
    b.coordinator_window_lo = 250 * sim::kMillisecond;
    b.coordinator_window_hi = 1300 * sim::kMillisecond;
    b.coordinator_restartable = true;
    b.shard_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}};
    // The migration-specific envelope: mover crashes landing anywhere in
    // the move's phase ladder, and old/new-owner cuts mid-migration.
    b.mover = kMoverId;
    b.mover_window_lo = 300 * sim::kMillisecond;
    b.mover_window_hi = 1500 * sim::kMillisecond;
    b.mover_restartable = true;
    b.move_source = 0;
    b.move_dest = 2;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ssm_->Build(sim);
    if (ssm_->coordinator_id() != kCoordinatorId ||
        ssm_->mover_id() != kMoverId) {
      layout_error_ = "reshard adapter: coordinator/mover ids " +
                      std::to_string(ssm_->coordinator_id()) + "/" +
                      std::to_string(ssm_->mover_id()) +
                      " do not match the declared fault bounds";
    }
    client_ = sim->Spawn<ShardTxClient>(ssm_->coordinator_id(), plan_);
    // The move: shard 0's whole initial range to the spare group, kicked
    // off while the transactions are in flight.
    shard::MoveSpec spec;
    spec.lo = 0;
    spec.hi = ssm_->InitialTable().entries()[1].lo;
    spec.to = 2;
    sim->Spawn<MoveDriver>(ssm_.get(), spec, 350 * sim::kMillisecond);
  }

  bool Done() const override {
    return client_ != nullptr && client_->outcomes.size() >= kTxs &&
           ssm_->mover()->moves_done() >= 1 && ssm_->mover()->idle();
  }

  /// Termination is the point: a crashed mover's move is finished by any
  /// participant from the write-once records, and the transactions ride
  /// the old owner or retry at the new one — nobody blocks.
  bool ExpectTermination() const override { return true; }

  void OnProbe(sim::Simulation*) override { ssm_->Probe(); }

  Observation Observe() const override {
    Observation o;
    if (!layout_error_.empty()) o.self_reported.push_back(layout_error_);
    if (client_ == nullptr) return o;

    for (const auto& [tx, committed] : client_->outcomes) {
      o.verdicts[tx][client_->id()] = committed ? 'C' : 'A';
    }

    smr::KvStore decisions = Replay(ssm_->decision_group());
    std::map<uint64_t, bool> decided =
        RecordDecisions(decisions, *ssm_, plan_, &o);

    // The authoritative routing table at end of run: the initial
    // placement plus every flip record the decision group holds.
    shard::RoutingTable table = ssm_->InitialTable();
    for (uint64_t e = 2; e <= 8; ++e) {
      auto rt = decisions.Get(shard::RoutingTable::RtKey(e));
      if (!rt.has_value()) break;
      if (auto t = shard::RoutingTable::Decode(*rt)) table.MaybeAdopt(*t);
    }

    // Applied state, judged at each key's AUTHORITATIVE owner under that
    // table: a committed transaction's write must have either been
    // migrated with its range or landed at the new owner directly. A
    // commit decision whose write was LOGGED at the old owner yet made it
    // into neither owner's state is a lost write — it applied behind the
    // routing fence and was dropped, the violation the flip-before-drain
    // out-of-bounds variant must produce. (The log-presence condition
    // keeps decided-but-still-in-flight writes — the run ends the moment
    // the client hears the outcome — from being miscalled as lost.)
    std::vector<smr::KvStore> kvs;
    std::vector<std::vector<smr::Command>> logs;
    for (int g = 0; g < ssm_->total_groups(); ++g) {
      logs.push_back(BestPrefix(ssm_->shard_group(g)));
      kvs.push_back(Replay(logs.back()));
    }
    for (uint64_t tx = 1; tx <= kTxs; ++tx) {
      for (const TxOp& op : plan_[tx - 1].ops) {
        int owner = table.GroupForKey(op.key);
        int initial_owner = ssm_->InitialTable().GroupForKey(op.key);
        sim::NodeId at = ssm_->ShardMembers(owner)[0];
        auto v = kvs[static_cast<size_t>(owner)].Get(op.key);
        bool present = v.has_value() && *v == op.value;
        if (present) {
          o.verdicts[tx][at] = 'C';
        } else if (kvs[static_cast<size_t>(owner)]
                       .Get(shard::PrepareKey(tx))
                       .has_value() ||
                   kvs[static_cast<size_t>(initial_owner)]
                       .Get(shard::PrepareKey(tx))
                       .has_value()) {
          o.verdicts[tx][at] = 'P';
        }
        if (!present && decided.count(tx) > 0 && decided[tx]) {
          auto old_v = kvs[static_cast<size_t>(initial_owner)].Get(op.key);
          const std::string put = "PUT " + op.key + " " + op.value;
          bool logged_old = false;
          for (const smr::Command& cmd :
               logs[static_cast<size_t>(initial_owner)]) {
            for (const smr::Command& c : smr::FlattenCommand(cmd)) {
              logged_old |= c.op == put;
            }
          }
          if ((!old_v.has_value() || *old_v != op.value) && logged_old) {
            o.self_reported.push_back(
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

    for (int g = 0; g < ssm_->total_groups(); ++g) {
      PrefixCheck(ssm_->shard_group(g), "group " + std::to_string(g), &o);
    }
    PrefixCheck(ssm_->decision_group(), "decision group", &o);

    for (const std::string& v : ssm_->Violations()) {
      o.self_reported.push_back("shard system: " + v);
    }
    return o;
  }

 private:
  static constexpr int kConsensusNodes = 12;  // 3 groups x 3 + 3 decision.
  static constexpr sim::NodeId kCoordinatorId = 21;
  static constexpr sim::NodeId kMoverId = 23;
  static constexpr uint64_t kTxs = 3;

  const char* label_;
  std::unique_ptr<ShardedStateMachine> ssm_;
  std::vector<ShardTxClient::Planned> plan_;
  ShardTxClient* client_ = nullptr;
  std::string layout_error_;
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

/// The read-write transaction composition under the reshard topology:
/// typed GET/PUT/DELETE/CAS transactions — including a write-skew-prone
/// pair that shared locks must serialize — plus repeated read-only
/// snapshots, all racing one live range move under the mover-crash and
/// owner-partition envelope. On top of the usual atomicity verdicts the
/// adapter runs the serializability audit over the client-observed
/// reads: with prepare-time shared/exclusive locking no schedule may
/// produce a history with no serial explanation.
class TxnCheckAdapter : public ProtocolAdapter {
 public:
  explicit TxnCheckAdapter(const char* label = "shard_txn") : label_(label) {
    shard::ShardOptions so;  // 2 shards x 3 replicas, 3 decision replicas.
    so.spare_groups = 1;
    ssm_ = std::make_unique<ShardedStateMachine>(so);
    const std::string a0 = ssm_->KeyForShard(0, 0);
    const std::string a1 = ssm_->KeyForShard(0, 1);
    const std::string a2 = ssm_->KeyForShard(0, 2);
    const std::string b0 = ssm_->KeyForShard(1, 0);
    const std::string b1 = ssm_->KeyForShard(1, 1);
    auto plan = [this](uint64_t tx, sim::Time at, std::vector<TxOp> ops) {
      ShardTxClient::Planned p;
      p.tx_id = tx;
      p.at = at;
      p.ops = std::move(ops);
      plan_.push_back(std::move(p));
    };
    // Blind cross-shard PUT pair (the historical workload shape).
    plan(1, 300 * sim::kMillisecond,
         {TxOp::Put(a0, "t1"), TxOp::Put(b0, "t1")});
    // Concurrent write-skew-prone pair: each reads the key the other
    // writes. Shared locks force one to abort or a serial order.
    plan(2, 420 * sim::kMillisecond,
         {TxOp::Get(a1), TxOp::Put(b1, "t2")});
    plan(3, 420 * sim::kMillisecond,
         {TxOp::Get(b1), TxOp::Put(a1, "t3")});
    // Single-shard one-phase CAS: succeeds only over tx 1's value.
    plan(4, 650 * sim::kMillisecond, {TxOp::Cas(a0, "t1", "t4")});
    // Cross-shard with a delete.
    plan(5, 700 * sim::kMillisecond,
         {TxOp::Del(b0), TxOp::Put(a2, "t5")});
    // Read-only snapshots: one inside the move window, one late.
    plan(6, 500 * sim::kMillisecond, {TxOp::Get(a0), TxOp::Get(b0)});
    plan(7, 1000 * sim::kMillisecond,
         {TxOp::Get(a0), TxOp::Get(a1), TxOp::Get(b1)});
  }

  const char* name() const override { return label_; }

  FaultBounds bounds() const override {
    // Same layout as the reshard adapter: 3 groups x 3 replicas [0,9),
    // decision replicas [9,12), TMs, clients, coordinator (21), mover
    // (23).
    FaultBounds b;
    b.first_node = 0;
    b.nodes = kConsensusNodes;
    b.max_crashed = 1;
    b.restartable = true;
    b.partitionable = true;
    b.coordinator = kCoordinatorId;
    b.coordinator_window_lo = 250 * sim::kMillisecond;
    b.coordinator_window_hi = 1300 * sim::kMillisecond;
    b.coordinator_restartable = true;
    b.shard_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}};
    b.mover = kMoverId;
    b.mover_window_lo = 300 * sim::kMillisecond;
    b.mover_window_hi = 1500 * sim::kMillisecond;
    b.mover_restartable = true;
    b.move_source = 0;
    b.move_dest = 2;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ssm_->Build(sim);
    if (ssm_->coordinator_id() != kCoordinatorId ||
        ssm_->mover_id() != kMoverId) {
      layout_error_ = "txn adapter: coordinator/mover ids " +
                      std::to_string(ssm_->coordinator_id()) + "/" +
                      std::to_string(ssm_->mover_id()) +
                      " do not match the declared fault bounds";
    }
    client_ = sim->Spawn<ShardTxClient>(ssm_->coordinator_id(), plan_);
    shard::MoveSpec spec;
    spec.lo = 0;
    spec.hi = ssm_->InitialTable().entries()[1].lo;
    spec.to = 2;
    sim->Spawn<MoveDriver>(ssm_.get(), spec, 350 * sim::kMillisecond);
  }

  bool Done() const override {
    return client_ != nullptr && client_->outcomes.size() >= plan_.size() &&
           ssm_->mover()->moves_done() >= 1 && ssm_->mover()->idle();
  }

  bool ExpectTermination() const override { return true; }

  void OnProbe(sim::Simulation*) override { ssm_->Probe(); }

  Observation Observe() const override {
    Observation o;
    if (!layout_error_.empty()) o.self_reported.push_back(layout_error_);
    if (client_ == nullptr) return o;

    for (const auto& [tx, committed] : client_->outcomes) {
      o.verdicts[tx][client_->id()] = committed ? 'C' : 'A';
    }
    RecordDecisions(Replay(ssm_->decision_group()), *ssm_, plan_, &o);

    std::vector<shard::AuditTx> committed, snapshots;
    BuildAuditTxs(plan_, *client_, &committed, &snapshots);
    for (const std::string& v : shard::AuditSerializability(committed)) {
      o.self_reported.push_back(v);
    }
    for (const std::string& v :
         shard::AuditSnapshotMembership(committed, snapshots)) {
      o.self_reported.push_back(v);
    }

    for (int g = 0; g < ssm_->total_groups(); ++g) {
      PrefixCheck(ssm_->shard_group(g), "group " + std::to_string(g), &o);
    }
    PrefixCheck(ssm_->decision_group(), "decision group", &o);
    for (const std::string& v : ssm_->Violations()) {
      o.self_reported.push_back("shard system: " + v);
    }
    return o;
  }

 private:
  static constexpr int kConsensusNodes = 12;
  static constexpr sim::NodeId kCoordinatorId = 21;
  static constexpr sim::NodeId kMoverId = 23;

  const char* label_;
  std::unique_ptr<ShardedStateMachine> ssm_;
  std::vector<ShardTxClient::Planned> plan_;
  ShardTxClient* client_ = nullptr;
  std::string layout_error_;
};

/// OUT-OF-BOUNDS: the same typed-transaction machinery with the shared
/// locks GET ops normally take switched off (unsafe_no_read_locks), and
/// two concurrent write-skew clients — tx 1 reads x and writes y, tx 2
/// reads y and writes x. Without read locks neither prepare conflicts,
/// both commit having read the initial (absent) versions, and no serial
/// order explains the history: the serializability audit must flag it
/// on essentially every schedule, and the sweep pins a canonical
/// shrunken repro. Plain shard topology (no mover) keeps the repro
/// minimal.
class TxnNoReadLocksAdapter : public ProtocolAdapter {
 public:
  TxnNoReadLocksAdapter() {
    shard::ShardOptions so;
    so.unsafe_no_read_locks = true;
    ssm_ = std::make_unique<ShardedStateMachine>(so);
    const std::string x = ssm_->KeyForShard(0, 0);
    const std::string y = ssm_->KeyForShard(1, 0);
    ShardTxClient::Planned p1;
    p1.tx_id = 1;
    p1.at = 300 * sim::kMillisecond;
    p1.ops = {TxOp::Get(x), TxOp::Put(y, "t1")};
    ShardTxClient::Planned p2;
    p2.tx_id = 2;
    p2.at = 300 * sim::kMillisecond;
    p2.ops = {TxOp::Get(y), TxOp::Put(x, "t2")};
    plan_ = {std::move(p1), std::move(p2)};
  }

  const char* name() const override { return "shard_txn_unsafe"; }

  FaultBounds bounds() const override {
    // Same layout as ShardCheckAdapter: 2 shards x 3 + 3 decision
    // replicas, coordinator at 15.
    FaultBounds b;
    b.first_node = 0;
    b.nodes = kConsensusNodes;
    b.max_crashed = 1;
    b.restartable = true;
    b.partitionable = true;
    b.coordinator = kCoordinatorId;
    b.coordinator_window_lo = 250 * sim::kMillisecond;
    b.coordinator_window_hi = 1300 * sim::kMillisecond;
    b.coordinator_restartable = true;
    b.shard_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ssm_->Build(sim);
    client_ = sim->Spawn<ShardTxClient>(ssm_->coordinator_id(), plan_);
  }

  bool Done() const override {
    return client_ != nullptr && client_->outcomes.size() >= plan_.size();
  }

  bool ExpectTermination() const override { return true; }

  void OnProbe(sim::Simulation*) override { ssm_->Probe(); }

  Observation Observe() const override {
    Observation o;
    if (client_ == nullptr) return o;
    for (const auto& [tx, committed] : client_->outcomes) {
      o.verdicts[tx][client_->id()] = committed ? 'C' : 'A';
    }
    std::vector<shard::AuditTx> committed, snapshots;
    BuildAuditTxs(plan_, *client_, &committed, &snapshots);
    for (const std::string& v : shard::AuditSerializability(committed)) {
      o.self_reported.push_back(v);
    }
    return o;
  }

 private:
  static constexpr int kConsensusNodes = 9;
  static constexpr sim::NodeId kCoordinatorId = 15;

  std::unique_ptr<ShardedStateMachine> ssm_;
  std::vector<ShardTxClient::Planned> plan_;
  ShardTxClient* client_ = nullptr;
};

}  // namespace

AdapterFactory MakeShardAdapter() {
  return [](uint64_t) { return std::make_unique<ShardCheckAdapter>(); };
}

AdapterFactory MakeShardBatchedAdapter() {
  // Batching + windowing on every group and client; snapshotting stays
  // off (see MakeBatchedGroupAdapter for why the prefix invariant needs
  // full prefixes). Node layout is unchanged — tuning adds no processes
  // — so the declared fault bounds still hold.
  return [](uint64_t) {
    shard::ShardOptions so;
    so.client_window = 4;
    so.batch_size = 4;
    so.batch_delay = 1 * sim::kMillisecond;
    return std::make_unique<ShardCheckAdapter>("shard_batched", so);
  };
}

AdapterFactory MakeShardReshardAdapter() {
  return [](uint64_t) { return std::make_unique<ReshardCheckAdapter>(); };
}

AdapterFactory MakeShardTxnAdapter() {
  return [](uint64_t) { return std::make_unique<TxnCheckAdapter>(); };
}

AdapterFactory MakeShardTxnNoReadLocksAdapter() {
  return [](uint64_t) { return std::make_unique<TxnNoReadLocksAdapter>(); };
}

AdapterFactory MakeShardReshardOutOfBoundsAdapter() {
  // The mover flips the routing epoch BEFORE freezing/draining the old
  // owner: transactions still in flight there apply their writes after
  // the copy snapshot and behind the fence — a committed write that
  // exists at no owner. The checker must find and shrink this.
  return [](uint64_t) {
    return std::make_unique<ReshardCheckAdapter>("shard_reshard_unsafe",
                                                 /*unsafe_flip=*/true);
  };
}

}  // namespace consensus40::check
