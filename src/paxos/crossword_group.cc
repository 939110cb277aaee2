/// \file
/// Crossword's ReplicaGroup facade (see consensus/replica_group.h).
/// Four registry keys share one implementation:
///
///   "crossword"        adaptive assignment (the tentpole protocol),
///   "crossword_rs"     pinned at 1 shard per acceptor — RS-Paxos-like,
///                      maximally exercises reconstruction and recovery,
///   "crossword_full"   pinned at full copies — classic-Paxos baseline
///                      for the bench ladder,
///   "crossword_unsafe" OUT OF BOUNDS: sharded accepts committed at a
///                      bare majority, which under-replicates shard
///                      coverage — the checker must catch it.

#include <string>

#include "consensus/replica_group.h"
#include "paxos/crossword.h"

namespace consensus40::paxos {
namespace {

class CrosswordGroup : public consensus::LogReplicaGroup<CrosswordReplica> {
 public:
  enum class Variant { kAdaptive, kRs, kFull, kUnsafe };

  explicit CrosswordGroup(Variant variant) : variant_(variant) {}

  const char* protocol() const override {
    switch (variant_) {
      case Variant::kAdaptive:
        return "crossword";
      case Variant::kRs:
        return "crossword_rs";
      case Variant::kFull:
        return "crossword_full";
      case Variant::kUnsafe:
        return "crossword_unsafe";
    }
    return "crossword";
  }

  void Create(sim::Simulation* sim, int replicas) override {
    ClaimMembers(sim, replicas);
    CrosswordOptions options;
    options.members = members_;
    options.batch_size = tuning_.batch_size;
    options.batch_delay = tuning_.batch_delay;
    options.checkpoint_interval = tuning_.snapshot_threshold;
    if (tuning_.heartbeat_interval > 0) {
      options.heartbeat_interval = tuning_.heartbeat_interval;
    }
    if (tuning_.leader_timeout > 0) {
      options.leader_timeout = tuning_.leader_timeout;
    }
    switch (variant_) {
      case Variant::kAdaptive:
        options.mode = CrosswordOptions::Mode::kAdaptive;
        break;
      case Variant::kRs:
        options.mode = CrosswordOptions::Mode::kFixedRs;
        break;
      case Variant::kFull:
        options.mode = CrosswordOptions::Mode::kFullCopy;
        break;
      case Variant::kUnsafe:
        options.mode = CrosswordOptions::Mode::kFixedRs;
        options.unsafe_majority_quorum = true;
        break;
    }
    SpawnReplicas(sim, options);
  }

 private:
  Variant variant_;
};

}  // namespace
}  // namespace consensus40::paxos

namespace consensus40::consensus {

std::unique_ptr<ReplicaGroup> NewCrosswordGroup() {
  return std::make_unique<paxos::CrosswordGroup>(
      paxos::CrosswordGroup::Variant::kAdaptive);
}

std::unique_ptr<ReplicaGroup> NewCrosswordRsGroup() {
  return std::make_unique<paxos::CrosswordGroup>(
      paxos::CrosswordGroup::Variant::kRs);
}

std::unique_ptr<ReplicaGroup> NewCrosswordFullCopyGroup() {
  return std::make_unique<paxos::CrosswordGroup>(
      paxos::CrosswordGroup::Variant::kFull);
}

std::unique_ptr<ReplicaGroup> NewCrosswordUnsafeGroup() {
  return std::make_unique<paxos::CrosswordGroup>(
      paxos::CrosswordGroup::Variant::kUnsafe);
}

}  // namespace consensus40::consensus
