// Outside-in per-layer tracing for the end-to-end benchmark.
//
// Nothing here reaches inside the program. Virtual-time spans come from
// the public Simulation::SetTraceFn delivery hook and the public message
// structs of the shard and consensus layers; wall time comes from timing
// each Simulation::Step() and charging it to the layer of the node the
// delivery went to (or to the engine's timers when no delivery fired).
// A handler's self time therefore includes the engine calls it makes
// (sends, timer arms), and the replica rows include the state-machine
// apply the replicas run inline.

#ifndef CONSENSUS40_BENCH_E2E_TRACER_H_
#define CONSENSUS40_BENCH_E2E_TRACER_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/replica_group.h"
#include "paxos/multi_paxos.h"
#include "raft/raft.h"
#include "shard/shard.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace consensus40::e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Who a node is, by the process type that handles its deliveries.
enum class Layer : uint8_t {
  kReplica,  ///< Raft / Multi-Paxos replica (shard or decision group).
  kClient,   ///< consensus::GroupClient, including lazily spawned readers.
  kTm,       ///< shard::TxManager.
  kCoord,    ///< shard::TxCoordinator.
  kMover,    ///< shard::ShardMover.
  kDriver,   ///< shard::WorkloadDriver.
  kTimers,   ///< Steps with no delivery: timers, callbacks, dropped messages.
};
constexpr int kLayers = 7;

inline const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kReplica: return "replica";
    case Layer::kClient: return "client";
    case Layer::kTm: return "tm";
    case Layer::kCoord: return "coord";
    case Layer::kMover: return "mover";
    case Layer::kDriver: return "driver";
    case Layer::kTimers: return "timers";
  }
  return "?";
}

/// Role of a replica-bound message type, shared by Raft and Multi-Paxos.
/// Elections and anything else fall under kOther.
enum class ReplicaRole : uint8_t { kRequest, kReplicate, kAck, kOther };

inline ReplicaRole RoleOfType(const char* type) {
  static const char* const kReplicate[] = {"append-entries", "install-snapshot",
                                           "accept", "commit", "catchup-reply",
                                           "snapshot"};
  static const char* const kAck[] = {"append-reply", "accepted",
                                     "catchup-request"};
  if (std::strcmp(type, "request") == 0) return ReplicaRole::kRequest;
  for (const char* t : kReplicate) {
    if (std::strcmp(type, t) == 0) return ReplicaRole::kReplicate;
  }
  for (const char* t : kAck) {
    if (std::strcmp(type, t) == 0) return ReplicaRole::kAck;
  }
  return ReplicaRole::kOther;
}

/// Self wall time charged to one (layer, message type).
struct WallRow {
  Layer layer;
  std::string type;
  bool decision_group = false;  ///< Replica rows: the decision group's.
  int64_t ns = 0;
  uint64_t events = 0;
};

/// One cross-shard attempt split at message boundaries that tile it:
/// BeginTx send -> first prepare send -> last vote delivered before the
/// outcome was sent -> outcome send -> outcome delivered.
struct XtxnPhases {
  sim::Duration begin_hop = 0;
  sim::Duration prepare = 0;
  sim::Duration decide = 0;
  sim::Duration reply_hop = 0;
};

/// Everything the traced rounds of one run accumulate.
struct TraceTotals {
  std::vector<WallRow> rows;
  int64_t hook_ns = 0;
  uint64_t deliveries = 0;
  int64_t hop_us_sum = 0;
  uint64_t redirects = 0;
  uint64_t resends = 0;
  /// Client commands that went through a log: every write, and reads in
  /// protocols without a read-index path (all but Raft).
  uint64_t logged_cmds = 0;
  std::vector<int64_t> write_commit_us;  ///< Shard-group leader spans.
  std::vector<int64_t> read_us;
  std::vector<int64_t> txn_prepare_us;   ///< One-phase prepare -> vote.
  std::vector<int64_t> snap_read_us;     ///< Coordinator snapshot round.
  std::vector<int64_t> lock_release_us;  ///< Decision send -> last ack.
  std::array<std::vector<int64_t>, 4> xtxn_us;  ///< Per phase, tiled ops.
  int64_t xtxn_e2e_us_sum = 0;  ///< Driver-measured latency, same ops.
  uint64_t xtxn_untiled = 0;    ///< First-attempt cross ops not tiled.
  size_t lock_table_peak = 0;
};

/// Delivery hook plus per-step wall attribution for one traced round.
/// Construct per round; results accumulate into a shared TraceTotals.
class Tracer {
 public:
  explicit Tracer(TraceTotals* totals) : totals_(totals) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  sim::Simulation::TraceFn Hook() {
    return [this](const sim::Envelope& env, sim::Time t) { OnDeliver(env, t); };
  }

  /// Learns the node layout. Runs before the first event fires.
  void Bind(const System& s) {
    ssm_ = s.ssm.get();
    const int n = s.sim->num_processes();
    layer_.assign(static_cast<size_t>(n), Layer::kClient);
    group_of_.assign(static_cast<size_t>(n), -1);
    groups_ = s.Groups();
    for (size_t g = 0; g < groups_.size(); ++g) {
      for (sim::NodeId id : groups_[g]->members()) {
        layer_[static_cast<size_t>(id)] = Layer::kReplica;
        group_of_[static_cast<size_t>(id)] = static_cast<int>(g);
      }
    }
    decision_index_ = static_cast<int>(groups_.size()) - 1;
    for (int sh = 0; sh < ssm_->total_groups(); ++sh) {
      layer_[static_cast<size_t>(ssm_->tm_id(sh))] = Layer::kTm;
    }
    layer_[static_cast<size_t>(ssm_->coordinator_id())] = Layer::kCoord;
    layer_[static_cast<size_t>(ssm_->mover_id())] = Layer::kMover;
  }

  /// Starts the measured phase; the driver exists from here on.
  void Start(sim::NodeId driver) {
    driver_ = driver;
    active_ = true;
  }

  void BeforeStep() {
    step_row_ = -1;
    step_node_ = sim::kInvalidNode;
    hook_ns_ = 0;
    step_phases_.reset();
  }

  /// Charges a step's wall time, less the hook's own, to its row.
  void AfterStep(int64_t step_ns) {
    totals_->hook_ns += hook_ns_;
    const int row = step_row_ >= 0 ? step_row_ : TimerRow();
    totals_->rows[static_cast<size_t>(row)].ns += step_ns - hook_ns_;
    totals_->rows[static_cast<size_t>(row)].events++;
    if (step_node_ != sim::kInvalidNode && LayerOf(step_node_) == Layer::kTm) {
      for (int sh = 0; sh < ssm_->total_groups(); ++sh) {
        if (ssm_->tm_id(sh) == step_node_) {
          totals_->lock_table_peak = std::max(
              totals_->lock_table_peak, ssm_->tx_manager(sh)->lock_table_size());
        }
      }
    }
  }

  /// Phases of the first-attempt cross-shard transaction whose outcome
  /// reached the driver in this step, if any.
  const std::optional<XtxnPhases>& step_phases() const { return step_phases_; }

 private:
  enum class Kind : uint8_t {
    kOther, kRequest, kReply, kBeginTx, kTmPrepare, kTmVote, kTmDecision,
    kTmAck, kTxOutcome,
  };
  struct TypeInfo {
    Kind kind = Kind::kOther;
    std::array<int, kLayers * 2> row;  ///< Per layer, x2 for decision group.
  };
  /// Per transaction id: the message boundaries seen so far.
  struct TxTrace {
    int begins = 0;
    bool first_attempt = false;
    bool snapshot = false;
    bool one_phase = false;
    bool outcome_seen = false;
    int participants = 0;
    int acks = 0;
    int votes = 0;
    std::array<sim::Time, 4> vote_at{};
    sim::Time begin_send = 0;
    sim::Time begin_deliver = 0;
    sim::Time prepare_send = -1;
    sim::Time decision_send = -1;
  };
  struct PendingRequest {
    sim::Time at = 0;
    bool read = false;
  };

  Layer LayerOf(sim::NodeId id) const {
    if (id == driver_) return Layer::kDriver;
    return static_cast<size_t>(id) < layer_.size() ? layer_[static_cast<size_t>(id)]
                                                   : Layer::kClient;
  }
  int GroupOf(sim::NodeId id) const {
    return static_cast<size_t>(id) < group_of_.size()
               ? group_of_[static_cast<size_t>(id)]
               : -1;
  }

  int AddRow(Layer layer, std::string type, bool decision) {
    totals_->rows.push_back(WallRow{layer, std::move(type), decision});
    return static_cast<int>(totals_->rows.size()) - 1;
  }
  int FindOrAddRow(Layer layer, const std::string& type, bool decision) {
    for (size_t i = 0; i < totals_->rows.size(); ++i) {
      const WallRow& r = totals_->rows[i];
      if (r.layer == layer && r.type == type && r.decision_group == decision) {
        return static_cast<int>(i);
      }
    }
    return AddRow(layer, type, decision);
  }
  int TimerRow() {
    if (timer_row_ < 0) timer_row_ = FindOrAddRow(Layer::kTimers, "-", false);
    return timer_row_;
  }

  TypeInfo& TypeOf(const char* name) {
    auto [it, inserted] = types_.try_emplace(name);
    if (inserted) {
      it->second.row.fill(-1);
      static const std::pair<const char*, Kind> kKinds[] = {
          {"request", Kind::kRequest},      {"reply", Kind::kReply},
          {"begin-tx", Kind::kBeginTx},     {"tm-prepare", Kind::kTmPrepare},
          {"tm-vote", Kind::kTmVote},       {"tm-decision", Kind::kTmDecision},
          {"tm-ack", Kind::kTmAck},         {"tx-outcome", Kind::kTxOutcome},
      };
      for (const auto& [n, k] : kKinds) {
        if (std::strcmp(name, n) == 0) it->second.kind = k;
      }
    }
    return it->second;
  }

  static const smr::Command* RequestCommand(const sim::Message& msg) {
    if (const auto* m = dynamic_cast<const raft::RaftReplica::RequestMsg*>(&msg)) {
      return &m->cmd;
    }
    if (const auto* m =
            dynamic_cast<const paxos::MultiPaxosReplica::RequestMsg*>(&msg)) {
      return &m->cmd;
    }
    return nullptr;
  }

  static uint64_t RequestKey(sim::NodeId replica, sim::NodeId client,
                             uint64_t seq) {
    return (static_cast<uint64_t>(replica) << 48) ^
           (static_cast<uint64_t>(client) << 32) ^ (seq & 0xFFFFFFFFull);
  }
  static uint64_t OpKey(sim::NodeId client, uint64_t seq) {
    return (static_cast<uint64_t>(client) << 32) ^ (seq & 0xFFFFFFFFull);
  }

  void OnDeliver(const sim::Envelope& env, sim::Time t) {
    if (!active_) return;
    const Clock::time_point h0 = Clock::now();
    const sim::Message& msg = *env.msg;
    TypeInfo& info = TypeOf(msg.TypeName());
    const Layer layer = LayerOf(env.to);
    const bool decision = GroupOf(env.to) == decision_index_;
    int& row = info.row[static_cast<size_t>(layer) * 2 + (decision ? 1 : 0)];
    if (row < 0) row = FindOrAddRow(layer, msg.TypeName(), decision);
    step_row_ = row;
    step_node_ = env.to;
    totals_->deliveries++;
    totals_->hop_us_sum += t - env.send_time;
    switch (info.kind) {
      case Kind::kRequest: OnRequest(env, t); break;
      case Kind::kReply: OnReply(env); break;
      case Kind::kBeginTx: OnBeginTx(env, t); break;
      case Kind::kTmPrepare: OnPrepare(env); break;
      case Kind::kTmVote: OnVote(env, t); break;
      case Kind::kTmDecision: OnDecision(env); break;
      case Kind::kTmAck: OnAck(env, t); break;
      case Kind::kTxOutcome: OnOutcome(env, t); break;
      case Kind::kOther: break;
    }
    hook_ns_ += NsSince(h0);
  }

  void OnRequest(const sim::Envelope& env, sim::Time t) {
    if (GroupOf(env.to) < 0) return;
    const smr::Command* cmd = RequestCommand(*env.msg);
    if (cmd == nullptr) return;
    if (!open_ops_.insert(OpKey(env.from, cmd->client_seq)).second) {
      totals_->resends++;
    }
    requests_.try_emplace(RequestKey(env.to, env.from, cmd->client_seq),
                          PendingRequest{t, cmd->kind == smr::Command::Kind::kRead});
  }

  void OnReply(const sim::Envelope& env) {
    const int g = GroupOf(env.from);
    if (g < 0) return;
    std::optional<consensus::ReplicaGroup::Reply> reply =
        groups_[static_cast<size_t>(g)]->ParseReply(*env.msg);
    if (!reply.has_value()) return;
    auto it = requests_.find(RequestKey(env.from, env.to, reply->client_seq));
    if (reply->redirected) {
      totals_->redirects++;
      if (it != requests_.end()) requests_.erase(it);
      return;
    }
    open_ops_.erase(OpKey(env.to, reply->client_seq));
    if (it == requests_.end()) return;
    if (!it->second.read ||
        std::strcmp(groups_[static_cast<size_t>(g)]->protocol(), "raft") != 0) {
      totals_->logged_cmds++;
    }
    if (g != decision_index_) {
      (it->second.read ? totals_->read_us : totals_->write_commit_us)
          .push_back(env.send_time - it->second.at);
    }
    requests_.erase(it);
  }

  void OnBeginTx(const sim::Envelope& env, sim::Time t) {
    const auto* m = dynamic_cast<const shard::BeginTxMsg*>(env.msg.get());
    if (m == nullptr) return;
    TxTrace& x = txs_[m->tx_id];
    if (x.begins++ > 0) return;
    x.begin_send = env.send_time;
    x.begin_deliver = t;
    x.snapshot = !m->ops.empty();
    for (const shard::TxOp& op : m->ops) {
      if (op.IsWrite()) {
        x.snapshot = false;
        // The driver stamps each logical transaction's values with the id
        // of its first attempt; a reason-aware retry keeps the ops under
        // a fresh id.
        x.first_attempt = op.value == "v" + std::to_string(m->tx_id);
      }
    }
  }

  void OnPrepare(const sim::Envelope& env) {
    const auto* m = dynamic_cast<const shard::TmPrepareMsg*>(env.msg.get());
    if (m == nullptr) return;
    TxTrace& x = txs_[m->tx_id];
    x.participants++;
    x.one_phase = m->one_phase;
    if (x.prepare_send < 0 || env.send_time < x.prepare_send) {
      x.prepare_send = env.send_time;
    }
  }

  void OnVote(const sim::Envelope& env, sim::Time t) {
    const auto* m = dynamic_cast<const shard::TmVoteMsg*>(env.msg.get());
    if (m == nullptr) return;
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    TxTrace& x = it->second;
    if (x.one_phase && x.votes == 0 && x.prepare_send >= 0) {
      totals_->txn_prepare_us.push_back(t - x.prepare_send);
    }
    if (x.votes < static_cast<int>(x.vote_at.size())) {
      x.vote_at[static_cast<size_t>(x.votes)] = t;
    }
    x.votes++;
  }

  void OnDecision(const sim::Envelope& env) {
    const auto* m = dynamic_cast<const shard::TmDecisionMsg*>(env.msg.get());
    if (m == nullptr) return;
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    if (it->second.decision_send < 0 || env.send_time < it->second.decision_send) {
      it->second.decision_send = env.send_time;
    }
  }

  void OnAck(const sim::Envelope& env, sim::Time t) {
    const auto* m = dynamic_cast<const shard::TmAckMsg*>(env.msg.get());
    if (m == nullptr) return;
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    TxTrace& x = it->second;
    if (++x.acks < x.participants || x.decision_send < 0) return;
    totals_->lock_release_us.push_back(t - x.decision_send);
    if (x.outcome_seen) txs_.erase(it);
  }

  void OnOutcome(const sim::Envelope& env, sim::Time t) {
    if (env.to != driver_) return;
    const auto* m = dynamic_cast<const shard::TxOutcomeMsg*>(env.msg.get());
    if (m == nullptr) return;
    auto it = txs_.find(m->tx_id);
    if (it == txs_.end()) return;
    TxTrace& x = it->second;
    x.outcome_seen = true;
    if (x.snapshot) {
      if (x.begins == 1) totals_->snap_read_us.push_back(env.send_time - x.begin_deliver);
      txs_.erase(it);
      return;
    }
    if (x.one_phase) {
      txs_.erase(it);
      return;
    }
    if (x.first_attempt && x.begins == 1 && x.participants > 1) {
      // The vote that let the coordinator decide is the last one
      // delivered before the outcome was sent; a vote landing after an
      // early NO-decision is off the critical path.
      sim::Time last_vote = -1;
      const int seen = std::min<int>(x.votes, static_cast<int>(x.vote_at.size()));
      for (int i = 0; i < seen; ++i) {
        sim::Time v = x.vote_at[static_cast<size_t>(i)];
        if (v <= env.send_time && v > last_vote) last_vote = v;
      }
      if (last_vote >= 0 && x.prepare_send >= 0) {
        XtxnPhases p;
        p.begin_hop = x.prepare_send - x.begin_send;
        p.prepare = last_vote - x.prepare_send;
        p.decide = env.send_time - last_vote;
        p.reply_hop = t - env.send_time;
        step_phases_ = p;
      } else {
        totals_->xtxn_untiled++;
      }
    }
    if (x.acks >= x.participants && x.decision_send >= 0) txs_.erase(it);
  }

  TraceTotals* totals_;
  const shard::ShardedStateMachine* ssm_ = nullptr;
  std::vector<Layer> layer_;
  std::vector<int> group_of_;
  std::vector<const consensus::ReplicaGroup*> groups_;
  int decision_index_ = -1;
  sim::NodeId driver_ = sim::kInvalidNode;
  bool active_ = false;
  int timer_row_ = -1;
  std::unordered_map<const char*, TypeInfo> types_;
  std::unordered_map<uint64_t, TxTrace> txs_;
  std::unordered_map<uint64_t, PendingRequest> requests_;
  std::unordered_set<uint64_t> open_ops_;

  int step_row_ = -1;
  sim::NodeId step_node_ = sim::kInvalidNode;
  int64_t hook_ns_ = 0;
  std::optional<XtxnPhases> step_phases_;
};

/// Sums of the public per-replica counters over every group.
struct ReplicaCounters {
  int64_t elections = 0;  ///< Raft elections started / Paxos phase-1 rounds.
  int64_t batches = 0;    ///< Multi-command log entries cut.
  int64_t snapshots_installed = 0;
  int64_t checkpoints = 0;
  int64_t reads_served = 0;  ///< Raft read-index reads answered.

  ReplicaCounters& operator+=(const ReplicaCounters& o) {
    elections += o.elections;
    batches += o.batches;
    snapshots_installed += o.snapshots_installed;
    checkpoints += o.checkpoints;
    reads_served += o.reads_served;
    return *this;
  }
  ReplicaCounters operator-(const ReplicaCounters& o) const {
    return {elections - o.elections, batches - o.batches,
            snapshots_installed - o.snapshots_installed,
            checkpoints - o.checkpoints, reads_served - o.reads_served};
  }
};

inline ReplicaCounters CountReplicas(const System& s) {
  ReplicaCounters c;
  for (const consensus::ReplicaGroup* g : s.Groups()) {
    for (sim::NodeId id : g->members()) {
      const sim::Process* p = s.sim->process(id);
      if (const auto* r = dynamic_cast<const raft::RaftReplica*>(p)) {
        c.elections += r->elections_started();
        c.batches += r->batches_cut();
        c.snapshots_installed += r->snapshots_installed();
        c.checkpoints += r->snapshots_taken();
        c.reads_served += r->reads_served();
      } else if (const auto* m = dynamic_cast<const paxos::MultiPaxosReplica*>(p)) {
        c.elections += m->phase1_rounds();
        c.batches += m->batches_cut();
        c.snapshots_installed += m->snapshots_installed();
        c.checkpoints += m->checkpoints_taken();
      }
    }
  }
  return c;
}

}  // namespace consensus40::e2e

#endif  // CONSENSUS40_BENCH_E2E_TRACER_H_
