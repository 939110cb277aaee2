/// \file
/// Raft's ReplicaGroup facade (see consensus/replica_group.h). Lives next
/// to the protocol so the message-type mapping stays with its owner.
/// Reads and writes share RequestMsg; the replica diverts kind == kRead
/// commands into the read-index path (no log entry — the ack frontier
/// rides on the next logged command instead).

#include <map>
#include <string>

#include "consensus/replica_group.h"
#include "raft/raft.h"

namespace consensus40::raft {
namespace {

class RaftGroup : public consensus::LogReplicaGroup<RaftReplica> {
 public:
  const char* protocol() const override { return "raft"; }

  void Create(sim::Simulation* sim, int replicas) override {
    ClaimMembers(sim, replicas);
    RaftOptions options;
    options.initial_config = members_;
    options.batch_size = tuning_.batch_size;
    options.batch_delay = tuning_.batch_delay;
    options.snapshot_threshold = tuning_.snapshot_threshold;
    SpawnReplicas(sim, options);
  }

  sim::NodeId LeaderHint() const override {
    // Omniscient introspection: the leader of the highest term wins (an
    // isolated stale leader may still believe in an older term).
    sim::NodeId hint = sim::kInvalidNode;
    int64_t best_term = -1;
    for (const RaftReplica* r : replicas_) {
      if (r->IsLeader() && r->current_term() > best_term) {
        best_term = r->current_term();
        hint = r->id();
      }
    }
    return hint;
  }

  void Probe() override {
    // Election Safety: at most one leader per term, across the group's
    // whole history (kept here, not in the checker, so every layer built
    // on RaftGroup gets the invariant for free).
    for (const RaftReplica* r : replicas_) {
      if (!r->IsLeader()) continue;
      auto [it, inserted] = term_leaders_.try_emplace(r->current_term(), r->id());
      if (!inserted && it->second != r->id()) {
        probe_violations_.push_back(
            "two leaders in term " + std::to_string(r->current_term()) + ": " +
            std::to_string(it->second) + " and " + std::to_string(r->id()));
      }
    }
  }

 private:
  std::map<int64_t, sim::NodeId> term_leaders_;
};

}  // namespace
}  // namespace consensus40::raft

namespace consensus40::consensus {

std::unique_ptr<ReplicaGroup> NewRaftGroup() {
  return std::make_unique<raft::RaftGroup>();
}

}  // namespace consensus40::consensus
