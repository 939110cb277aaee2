/// Checker adapters for MinBFT: n=2f+1=3 with the shared trusted USIG.
/// Crash-stop (no restart path) — the USIG counters make a restarted
/// replica's old incarnation indistinguishable from equivocation.
///
/// The Byzantine twin: any one of the three replicas may withhold,
/// corrupt (generic degradation: dropped), or replay outbound traffic. No
/// equivocation forge — that is the whole point of the USIG: a twin
/// message would need a second UI for the same counter, which the trusted
/// component refuses to mint. Replayed captures carry stale USIG counters
/// and must bounce off the monotonicity check.

#include "check/adapters.h"
#include "minbft/minbft.h"

namespace consensus40::check {
namespace {

SignedProtocol MinBft() {
  SignedProtocol p;
  p.name = "minbft";
  p.n = 3;
  p.bounds.nodes = p.n;
  p.bounds.max_crashed = (p.n - 1) / 2;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_nodes = p.n;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_mutate = true;
  p.twin_bounds.byz_replay = true;
  p.spawn_replica = [n = p.n](sim::Simulation* sim, auto* registry,
                              auto* usig) {
    minbft::MinBftOptions opts;
    opts.n = n;
    opts.registry = registry;
    opts.usig = usig;
    return sim->Spawn<minbft::MinBftReplica>(opts);
  };
  p.spawn_client = [n = p.n](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<minbft::MinBftClient>(n, registry, ops)->results();
  };
  return p;
}

}  // namespace

AdapterFactory MakeMinBftAdapter() {
  return MakeSignedAdapter(MinBft(), /*twin=*/false);
}

AdapterFactory MakeMinBftByzantineAdapter() {
  return MakeSignedAdapter(MinBft(), /*twin=*/true);
}

}  // namespace consensus40::check
