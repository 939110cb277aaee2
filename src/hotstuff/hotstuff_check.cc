/// Checker adapters for HotStuff: n=3f+1=4 with rotating leaders.
/// Crash-stop faults plus delay spikes (the pacemaker absorbs asynchrony
/// bursts by rotating views).
///
/// The Byzantine twin: any one of the four replicas may withhold,
/// corrupt (generic degradation: dropped), or replay outbound traffic. A
/// silent or lying leader is absorbed by the pacemaker — views rotate
/// past it — and the three-chain commit rule plus the replica-level
/// SafeNode checks (self-reported as violations) must hold for every
/// schedule.

#include "check/adapters.h"
#include "hotstuff/hotstuff.h"

namespace consensus40::check {
namespace {

SignedProtocol HotStuff() {
  SignedProtocol p;
  p.name = "hotstuff";
  p.n = 4;
  p.bounds.nodes = p.n;
  p.bounds.max_crashed = (p.n - 1) / 3;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_nodes = p.n;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_mutate = true;
  p.twin_bounds.byz_replay = true;
  p.spawn_replica = [n = p.n](sim::Simulation* sim, auto* registry, auto*) {
    hotstuff::HotStuffOptions opts;
    opts.n = n;
    opts.registry = registry;
    return sim->Spawn<hotstuff::HotStuffReplica>(opts);
  };
  p.spawn_client = [n = p.n](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<hotstuff::HotStuffClient>(n, registry, ops)->results();
  };
  return p;
}

}  // namespace

AdapterFactory MakeHotStuffAdapter() {
  return MakeSignedAdapter(HotStuff(), /*twin=*/false);
}

AdapterFactory MakeHotStuffByzantineAdapter() {
  return MakeSignedAdapter(HotStuff(), /*twin=*/true);
}

}  // namespace consensus40::check
