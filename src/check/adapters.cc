#include "check/adapters.h"

#include <memory>
#include <string>
#include <utility>

#include "consensus/replica_group.h"
#include "smr/signed_replica.h"

namespace consensus40::check {
namespace {

/// Protocol-agnostic SMR checker adapter: builds a replication group
/// through the consensus::ReplicaGroup registry and drives it with one
/// closed-loop GroupClient mixing writes and linearizable reads.
/// Observables are the per-replica committed prefixes plus whatever the
/// group self-reports (RaftGroup's Probe tracks Election Safety, for
/// instance). One implementation covers every registered SMR protocol —
/// the per-protocol adapter files this replaces were near-duplicates.
class GroupCheckAdapter : public ProtocolAdapter {
 public:
  GroupCheckAdapter(std::string label, std::string protocol,
                    consensus::GroupTuning tuning, int client_window,
                    int num_ops = kOps)
      : label_(std::move(label)),
        protocol_(std::move(protocol)),
        tuning_(tuning),
        client_window_(client_window),
        num_ops_(num_ops) {}

  const char* name() const override { return label_.c_str(); }

  FaultBounds bounds() const override {
    FaultBounds b;
    b.nodes = kN;
    b.max_crashed = (kN - 1) / 2;
    b.restartable = true;  // SMR protocols here persist across OnRestart.
    b.partitionable = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    group_ = consensus::MakeGroup(protocol_);
    group_->Configure(tuning_);
    group_->Create(sim, kN);
    client_ = sim->Spawn<consensus::GroupClient>(
        group_.get(), 300 * sim::kMillisecond, client_window_);
    client_->SetCallback(
        [this](uint64_t, const std::string&, bool) { ++completed_; });
    // The whole workload queues up front; the client keeps at most its
    // window on the wire (one, by default) and drains the rest as
    // replies come back. The operations are mutually independent, so a
    // window > 1 (the batched variant) is within the windowing contract.
    // The mix covers the write path and the protocol's read path (Raft
    // answers the reads via read-index, Multi-Paxos through the log).
    for (int i = 0; i < num_ops_; ++i) {
      if (i % 3 == 2) {
        client_->Read("x" + std::to_string(i % 2));
      } else {
        client_->Submit("PUT x" + std::to_string(i % 2) + " v" +
                        std::to_string(i));
      }
    }
  }

  bool Done() const override { return completed_ >= num_ops_; }

  void OnProbe(sim::Simulation*) override { group_->Probe(); }

  Observation Observe() const override {
    Observation o;
    for (int i = 0; i < kN; ++i) {
      std::vector<std::string> log;
      for (const smr::Command& cmd : group_->CommittedPrefix(i)) {
        log.push_back(cmd.ToString());
      }
      o.logs.push_back(std::move(log));
    }
    for (const std::string& v : group_->Violations()) {
      o.self_reported.push_back(protocol_ + ": " + v);
    }
    return o;
  }

 private:
  static constexpr int kN = 5;
  static constexpr int kOps = 6;
  std::string label_;
  std::string protocol_;
  consensus::GroupTuning tuning_;
  int client_window_ = 1;
  int num_ops_ = kOps;
  std::unique_ptr<consensus::ReplicaGroup> group_;
  consensus::GroupClient* client_ = nullptr;
  int completed_ = 0;
};

/// The one adapter of the Byzantine-fault family (see SignedProtocol).
class SignedReplicaAdapter : public ProtocolAdapter {
 public:
  SignedReplicaAdapter(std::shared_ptr<const SignedProtocol> protocol,
                       bool twin, uint64_t seed)
      : protocol_(std::move(protocol)),
        name_(twin ? protocol_->name + "_byz" : protocol_->name),
        bounds_(twin ? protocol_->twin_bounds : protocol_->bounds),
        ops_(twin ? kTwinOps : kOps),
        registry_(seed, protocol_->n + 4),
        usig_(&registry_),
        byz_(twin && protocol_->twin_hooks
                 ? protocol_->twin_hooks(&registry_)
                 : sim::ByzantineInterposer::Hooks{}) {}

  const char* name() const override { return name_.c_str(); }

  FaultBounds bounds() const override { return bounds_; }

  void Build(sim::Simulation* sim) override {
    for (int i = 0; i < protocol_->n; ++i) {
      replicas_.push_back(protocol_->spawn_replica(sim, &registry_, &usig_));
    }
    results_ = protocol_->spawn_client(sim, &registry_, ops_);
    if (bounds_.max_byzantine > 0) byz_.Attach(sim);
  }

  bool Done() const override {
    return static_cast<int>(results_->size()) >= ops_;
  }

  Observation Observe() const override {
    Observation o;
    for (const smr::SignedReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
      for (const std::string& v : r->violations()) {
        o.self_reported.push_back(protocol_->name + " replica " +
                                  std::to_string(r->id()) + ": " + v);
      }
    }
    // Every op increments x on a fresh store, so the client must have
    // been told "1", "2", ... in order.
    for (size_t i = 0; i < results_->size(); ++i) {
      const std::string want = std::to_string(i + 1);
      if ((*results_)[i] != want) {
        o.self_reported.push_back(protocol_->name + " client: op " + want +
                                  " answered \"" + (*results_)[i] +
                                  "\", not \"" + want + "\"");
        break;
      }
    }
    return o;
  }

 private:
  static constexpr int kOps = 4;
  static constexpr int kTwinOps = 12;
  std::shared_ptr<const SignedProtocol> protocol_;
  std::string name_;
  FaultBounds bounds_;
  int ops_;
  crypto::KeyRegistry registry_;
  crypto::Usig usig_;
  sim::ByzantineInterposer byz_;
  std::vector<smr::SignedReplica*> replicas_;
  const std::vector<std::string>* results_ = nullptr;
};

}  // namespace

std::vector<std::string> ExecutedLog(const smr::SignedReplica& replica) {
  std::vector<std::string> log;
  for (const smr::Command& cmd : replica.executed_commands()) {
    log.push_back(cmd.ToString());
  }
  return log;
}

AdapterFactory MakeSignedAdapter(SignedProtocol protocol, bool twin) {
  return [protocol = std::make_shared<const SignedProtocol>(
              std::move(protocol)),
          twin](uint64_t seed) {
    return std::make_unique<SignedReplicaAdapter>(protocol, twin, seed);
  };
}

AdapterFactory MakeGroupAdapter(std::string protocol, int num_ops) {
  return [protocol = std::move(protocol), num_ops](uint64_t) {
    return std::make_unique<GroupCheckAdapter>(protocol, protocol,
                                               consensus::GroupTuning{},
                                               /*client_window=*/1, num_ops);
  };
}

AdapterFactory MakeBatchedGroupAdapter(std::string protocol) {
  // Snapshotting stays off here: after a snapshot install a replica's
  // committed prefix is suffix-only, which the pairwise prefix invariant
  // would misread as divergence. Snapshot+window interplay is covered by
  // dedicated regression tests instead.
  consensus::GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 1 * sim::kMillisecond;
  return [protocol = std::move(protocol), tuning](uint64_t) {
    return std::make_unique<GroupCheckAdapter>(protocol + "_batched", protocol,
                                               tuning, /*client_window=*/4);
  };
}

AdapterFactory MakeRaftAdapter() { return MakeGroupAdapter("raft"); }

// The Crossword adapters run 40 ops instead of the default 6: coded
// entries are only under-replicated while followers hold fragments, so
// the dangerous state exists between a sharded commit and its
// reconstruction — the workload must still be in flight when the
// schedule's first fault lands (>= horizon/20) to exercise it.
AdapterFactory MakeCrosswordAdapter() {
  return MakeGroupAdapter("crossword", /*num_ops=*/40);
}

AdapterFactory MakeCrosswordRsAdapter() {
  return MakeGroupAdapter("crossword_rs", /*num_ops=*/40);
}

AdapterFactory MakeCrosswordOutOfBoundsAdapter() {
  return MakeGroupAdapter("crossword_unsafe", /*num_ops=*/40);
}

AdapterFactory MakeMultiPaxosAdapter() {
  return MakeGroupAdapter("multi_paxos");
}

std::vector<std::pair<const char*, AdapterFactory>> AllInBoundsAdapters() {
  return {
      {"paxos", MakePaxosAdapter()},
      {"multi_paxos", MakeMultiPaxosAdapter()},
      {"fast_paxos", MakeFastPaxosAdapter()},
      {"raft", MakeRaftAdapter()},
      {"pbft", MakePbftAdapter()},
      {"minbft", MakeMinBftAdapter()},
      {"hotstuff", MakeHotStuffAdapter()},
      {"xft", MakeXftAdapter()},
      {"zyzzyva", MakeZyzzyvaAdapter()},
      {"cheapbft", MakeCheapBftAdapter()},
      {"2pc", MakeTwoPhaseCommitAdapter()},
      {"3pc", MakeThreePhaseCommitAdapter()},
      {"benor", MakeBenOrAdapter()},
      {"floodset", MakeFloodSetAdapter()},
      {"crossword", MakeCrosswordAdapter()},
      {"crossword_rs", MakeCrosswordRsAdapter()},
      {"shard", MakeShardAdapter()},
      {"raft_batched", MakeBatchedGroupAdapter("raft")},
      {"multi_paxos_batched", MakeBatchedGroupAdapter("multi_paxos")},
      {"shard_batched", MakeShardBatchedAdapter()},
      {"shard_reshard", MakeShardReshardAdapter()},
      {"shard_txn", MakeShardTxnAdapter()},
      {"pbft_byz", MakePbftByzantineAdapter()},
      {"zyzzyva_byz", MakeZyzzyvaByzantineAdapter()},
      {"minbft_byz", MakeMinBftByzantineAdapter()},
      {"hotstuff_byz", MakeHotStuffByzantineAdapter()},
      {"xft_byz", MakeXftByzantineAdapter()},
      {"cheapbft_byz", MakeCheapBftByzantineAdapter()},
  };
}

}  // namespace consensus40::check
