/// \file
/// The uniform replication-group API the shard layer is built on.
///
/// The paper's framing of modern systems (Spanner, DynamoDB) is a
/// *composition*: per-group consensus below, a commitment layer above.
/// For the layers above to stay protocol-agnostic, every SMR-capable
/// protocol in this library exposes itself through one facade —
/// `ReplicaGroup` — that covers exactly the four things a client of a
/// replicated group needs:
///
///   1. create a roster of replicas inside a simulation,
///   2. submit a command (build the protocol's request message),
///   3. read the committed prefix and the freshest state (for invariant
///      checks / introspection),
///   4. a leader hint (where to send the next request).
///
/// Groups are obtained from a name-keyed registry ("raft",
/// "multi_paxos", ...), so code layered on top — `src/shard/`, the
/// generic checker adapter in `src/check/adapters.cc`,
/// `examples/mini_spanner.cc` — never names a protocol type.
///
/// `GroupClient` is the matching transport helper: a simulated process
/// that submits commands/reads to one group, follows leader hints and
/// redirects, retries on timeout, and hands results to a callback. The
/// shard layer's transaction managers and workload drivers are built
/// from GroupClients, which is what keeps them protocol-free.

#ifndef CONSENSUS40_CONSENSUS_REPLICA_GROUP_H_
#define CONSENSUS40_CONSENSUS_REPLICA_GROUP_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "smr/apply_ledger.h"
#include "smr/command.h"
#include "smr/pipeline.h"
#include "smr/state_machine.h"

namespace consensus40::consensus {

/// Protocol-agnostic hot-path tuning, mapped by each group onto its
/// protocol's native options before Create. The defaults reproduce the
/// untuned behaviour exactly: one command per log entry, no linger, no
/// checkpointing.
struct GroupTuning {
  /// Max client commands the leader folds into one log entry.
  int batch_size = 1;
  /// How long the leader lingers for a batch to fill (0 = cut
  /// immediately; mirrors PBFT's batch_delay).
  sim::Duration batch_delay = 0;
  /// Applied entries per state checkpoint + log prefix truncation
  /// (Raft snapshot_threshold / Multi-Paxos checkpoint_interval).
  /// 0 disables.
  uint64_t snapshot_threshold = 0;
  /// Failure-detection overrides, 0 = protocol default. Honored by
  /// crossword: under a finite-bandwidth network a multi-hundred-ms
  /// payload fan-out queues heartbeats behind it at the leader's egress
  /// port, so data-heavy configs must scale the follower timeout with
  /// the payload serialization cost or elect spurious leaders mid-round.
  sim::Duration heartbeat_interval = 0;
  sim::Duration leader_timeout = 0;
};

/// A replication group of one protocol, as seen from above the consensus
/// layer. Implementations live next to their protocol (src/raft/
/// raft_group.cc, src/paxos/multi_paxos_group.cc) so protocol authors
/// keep ownership of the mapping.
class ReplicaGroup {
 public:
  /// A decoded client-visible reply, normalized across protocols.
  struct Reply {
    uint64_t client_seq = 0;
    std::string result;
    sim::NodeId leader_hint = sim::kInvalidNode;
    /// True when the replica declined because it is not the leader; the
    /// result carries no data and the request should be re-sent (to
    /// leader_hint when valid).
    bool redirected = false;
  };

  virtual ~ReplicaGroup() = default;

  /// Registry key, e.g. "raft".
  virtual const char* protocol() const = 0;

  /// Applies hot-path tuning. Must be called before Create; protocols
  /// without a matching knob ignore the fields they cannot map.
  virtual void Configure(const GroupTuning& tuning) { tuning_ = tuning; }
  const GroupTuning& tuning() const { return tuning_; }

  /// Spawns `replicas` processes into `sim`, occupying the next ids in
  /// spawn order. Called exactly once per group.
  virtual void Create(sim::Simulation* sim, int replicas) = 0;

  /// The node ids of the group's replicas (valid after Create).
  const std::vector<sim::NodeId>& members() const { return members_; }

  /// Builds the protocol's client request message carrying `cmd`.
  /// Reads and writes arrive through this one entry point: a
  /// linearizable read is a Command with `kind == Kind::kRead` and op
  /// "GET <key>", so dedup sessions, ack floors, and batch framing see
  /// one uniform request shape. Protocols with a dedicated read path
  /// (Raft read-index) divert kRead commands around the log inside
  /// their replicas; the rest log them, which is linearizable by
  /// construction but pays a full consensus round.
  virtual sim::MessagePtr MakeRequest(const smr::Command& cmd) const = 0;

  /// Decodes a reply from one of the group's replicas; nullopt when the
  /// message is not this protocol's client reply.
  virtual std::optional<Reply> ParseReply(const sim::Message& msg) const = 0;

  /// The member currently believed to lead, or kInvalidNode.
  virtual sim::NodeId LeaderHint() const = 0;

  /// Client commands of the applied entries replica `i` still holds in
  /// its log, in order (introspection for checkers; excludes
  /// protocol-internal entries such as no-ops). Checkpoints truncate it;
  /// with checkpointing off it is the replica's whole history. Agreement
  /// over the truncated part is the apply ledger's (see Violations()).
  virtual std::vector<smr::Command> CommittedPrefix(int replica) const = 0;

  /// The state machine of the member that has applied the most entries
  /// (the first such member on a tie): the group's freshest state.
  virtual const smr::KvStore& FreshestKv() const = 0;

  /// Periodic invariant hook (the checker's probe cadence). Protocol
  /// implementations track their own invariants here — e.g. Raft's
  /// Election Safety — and report breaches through Violations().
  virtual void Probe() {}

  /// Everything the group's replicas, its apply ledger (if any) or Probe
  /// reported.
  virtual std::vector<std::string> Violations() const { return {}; }

 protected:
  std::vector<sim::NodeId> members_;
  GroupTuning tuning_;
};

/// The ReplicaGroup plumbing shared by the log-based SMR facades (Raft,
/// Multi-Paxos, Crossword): one replica type per group, whose RequestMsg
/// and ReplyMsg derive from the smr pipeline's client messages, and one
/// apply ledger (smr/apply_ledger.h) that every replica reports to.
template <class Replica>
class LogReplicaGroup : public ReplicaGroup {
 public:
  sim::MessagePtr MakeRequest(const smr::Command& cmd) const override {
    return std::make_shared<typename Replica::RequestMsg>(cmd);
  }

  std::optional<Reply> ParseReply(const sim::Message& msg) const override {
    const auto* m = dynamic_cast<const typename Replica::ReplyMsg*>(&msg);
    if (m == nullptr) return std::nullopt;
    Reply reply;
    reply.client_seq = m->client_seq;
    reply.leader_hint = m->leader_hint;
    if (m->result == smr::kRedirect) {
      reply.redirected = true;
    } else {
      reply.result = m->result;
    }
    return reply;
  }

  sim::NodeId LeaderHint() const override {
    for (const Replica* r : replicas_) {
      if (r->IsLeader()) return r->id();
    }
    return sim::kInvalidNode;
  }

  /// Applied commands, not the raw log: a batch's commands arrive one by
  /// one, and no-ops are left out.
  std::vector<smr::Command> CommittedPrefix(int replica) const override {
    return replicas_[static_cast<size_t>(replica)]->CommittedCommands();
  }

  const smr::KvStore& FreshestKv() const override {
    return replicas_[static_cast<size_t>(ledger_->Freshest())]->kv();
  }

  /// The group's apply ledger (valid after Create; for tests).
  const smr::ApplyLedger& ledger() const { return *ledger_; }

  std::vector<std::string> Violations() const override {
    std::vector<std::string> all = probe_violations_;
    if (ledger_.has_value()) {
      all.insert(all.end(), ledger_->violations().begin(),
                 ledger_->violations().end());
    }
    for (const Replica* r : replicas_) {
      const std::string who = "replica " + std::to_string(r->id());
      for (const std::string& v : r->violations()) {
        all.push_back(who + ": " + v);
      }
    }
    return all;
  }

 protected:
  /// Claims the next `replicas` process ids of `sim` as members_.
  void ClaimMembers(sim::Simulation* sim, int replicas) {
    const sim::NodeId base = sim->num_processes();
    for (int i = 0; i < replicas; ++i) members_.push_back(base + i);
  }

  /// Spawns one replica per member, in member order, each reporting to
  /// the group's apply ledger.
  template <class Options>
  void SpawnReplicas(sim::Simulation* sim, const Options& options) {
    ledger_.emplace(members_);
    for (size_t i = 0; i < members_.size(); ++i) {
      replicas_.push_back(sim->Spawn<Replica>(options));
      replicas_.back()->ReportAppliesTo(&*ledger_, static_cast<int>(i));
    }
  }

  std::vector<Replica*> replicas_;
  std::optional<smr::ApplyLedger> ledger_;  ///< Set by SpawnReplicas.
  /// Breaches Probe() found, reported ahead of the replicas' own.
  std::vector<std::string> probe_violations_;
};

using GroupFactory = std::function<std::unique_ptr<ReplicaGroup>()>;

/// Registers a protocol under `name`. Registering an existing name
/// replaces the factory (tests use this to inject instrumented groups).
void RegisterGroupProtocol(const std::string& name, GroupFactory factory);

/// Instantiates a registered protocol; nullptr for unknown names. The
/// built-in protocols (raft, multi_paxos) are registered on first use.
std::unique_ptr<ReplicaGroup> MakeGroup(const std::string& name);

/// Sorted names of every registered protocol.
std::vector<std::string> RegisteredGroupProtocols();

/// Built-in factories (defined next to their protocols); exposed so
/// callers can construct a group directly without the registry.
std::unique_ptr<ReplicaGroup> NewRaftGroup();
std::unique_ptr<ReplicaGroup> NewMultiPaxosGroup();
/// Crossword (adaptive erasure-coded Multi-Paxos) and its pinned
/// variants; see paxos/crossword_group.cc for what each key means.
std::unique_ptr<ReplicaGroup> NewCrosswordGroup();
std::unique_ptr<ReplicaGroup> NewCrosswordRsGroup();
std::unique_ptr<ReplicaGroup> NewCrosswordFullCopyGroup();
std::unique_ptr<ReplicaGroup> NewCrosswordUnsafeGroup();

/// A client endpoint for one ReplicaGroup: submits commands and
/// linearizable reads, follows redirects and leader hints, retries on
/// timeout, and invokes the owner's callback exactly once per completed
/// operation.
///
/// Transmission keeps up to `window` operations on the wire at once, in
/// seq order; further submissions queue behind the window. The deduping
/// executor's session table tolerates reordering within that bounded
/// window (see DedupingExecutor), so window > 1 stays exactly-once end
/// to end. THE WINDOWING CONTRACT: operations inside the window may
/// commit — and therefore apply — in any order, so a caller must only
/// submit an operation that depends on another's effects after that
/// predecessor's callback has fired. The default window of 1 restores
/// strict serialization.
class GroupClient : public sim::Process {
 public:
  /// (seq, result, was_read) for every completed operation, in
  /// completion order.
  using ResultFn =
      std::function<void(uint64_t seq, const std::string& result, bool read)>;

  explicit GroupClient(const ReplicaGroup* group,
                       sim::Duration retry = 300 * sim::kMillisecond,
                       int window = 1);

  /// Must be set before the first Submit/Read completes.
  void SetCallback(ResultFn fn) { on_result_ = std::move(fn); }

  /// Submits `op` as a command through the group; returns the operation
  /// sequence number passed back to the callback.
  uint64_t Submit(const std::string& op);

  /// Issues a linearizable read of `key`.
  uint64_t Read(const std::string& key);

  /// Pending operations (in flight + queued behind the window).
  size_t inflight() const { return pending_.size(); }
  int window() const { return window_; }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct Pending {
    sim::MessagePtr msg;
    uint64_t retry_timer = 0;
    bool read = false;
    bool sent = false;  ///< Occupies a window slot (transmitted at least once).
    sim::NodeId last_target = sim::kInvalidNode;
  };

  uint64_t Issue(sim::MessagePtr msg, bool read);
  /// Cumulative ack to piggyback on the op numbered `next`: the seq below
  /// the lowest pending operation (all earlier replies were consumed).
  uint64_t AckedFrontier(uint64_t next) const;
  void SendTo(uint64_t seq, sim::NodeId target);
  void ArmRetry(uint64_t seq);
  /// Transmits queued operations (in seq order) until `window_` are on
  /// the wire.
  void PumpWindow();
  sim::NodeId PickTarget();

  const ReplicaGroup* group_;
  sim::Duration retry_;
  int window_;
  ResultFn on_result_;
  uint64_t next_seq_ = 0;
  size_t rotate_ = 0;  ///< Round-robin cursor for leaderless retries.
  /// False after a retry timer fires until a successful (non-redirect)
  /// reply arrives: the group's leader hint led to a silent target — a
  /// crashed or partitioned leader whose omniscient hint may not have
  /// caught up — so new transmissions rotate instead of re-preferring it.
  bool trust_hint_ = true;
  size_t sent_count_ = 0;  ///< Pending operations currently on the wire.
  std::map<uint64_t, Pending> pending_;
};

}  // namespace consensus40::consensus

#endif  // CONSENSUS40_CONSENSUS_REPLICA_GROUP_H_
