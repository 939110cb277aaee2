/// \file
/// Multi-Paxos's ReplicaGroup facade (see consensus/replica_group.h).
/// kRead commands are logged like any other GET, which is linearizable
/// but pays a full consensus round — the contrast with Raft's
/// read-index path is itself a measurement the bench surfaces.

#include <string>

#include "consensus/replica_group.h"
#include "paxos/multi_paxos.h"

namespace consensus40::paxos {
namespace {

class MultiPaxosGroup : public consensus::LogReplicaGroup<MultiPaxosReplica> {
 public:
  const char* protocol() const override { return "multi_paxos"; }

  void Create(sim::Simulation* sim, int replicas) override {
    ClaimMembers(sim, replicas);
    MultiPaxosOptions options;
    options.members = members_;
    options.batch_size = tuning_.batch_size;
    options.batch_delay = tuning_.batch_delay;
    options.checkpoint_interval = tuning_.snapshot_threshold;
    SpawnReplicas(sim, options);
  }
};

}  // namespace
}  // namespace consensus40::paxos

namespace consensus40::consensus {

std::unique_ptr<ReplicaGroup> NewMultiPaxosGroup() {
  return std::make_unique<paxos::MultiPaxosGroup>();
}

}  // namespace consensus40::consensus
