/// Checker adapters for XFT (XPaxos): n=2f+1=5. The in-bounds model is
/// crash faults only — XFT's bet is that crash faults and partitions
/// together stay under f, and Byzantine-plus-partition "anarchy" is
/// outside the model — so schedules crash up to f replicas and spike
/// delays, but never cut the network.
///
/// The Byzantine twin: one replica may withhold or replay outbound
/// traffic — the non-anarchy slice of XFT's model, where a Byzantine
/// machine exists but the network stays connected and the combined
/// (crash + Byzantine) fault count stays under f. No mutate: a corrupted
/// message plus a delay spike is indistinguishable from the
/// partition-plus-Byzantine "anarchy" XFT explicitly does not claim.

#include "check/adapters.h"
#include "xft/xft.h"

namespace consensus40::check {
namespace {

SignedProtocol Xft() {
  SignedProtocol p;
  p.name = "xft";
  p.n = 5;
  p.bounds.nodes = p.n;
  p.bounds.max_crashed = (p.n - 1) / 2;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_nodes = p.n;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_replay = true;
  p.spawn_replica = [n = p.n](sim::Simulation* sim, auto* registry, auto*) {
    xft::XftOptions opts;
    opts.n = n;
    opts.registry = registry;
    return sim->Spawn<xft::XftReplica>(opts);
  };
  p.spawn_client = [n = p.n](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<xft::XftClient>(n, registry, ops)->results();
  };
  return p;
}

}  // namespace

AdapterFactory MakeXftAdapter() {
  return MakeSignedAdapter(Xft(), /*twin=*/false);
}

AdapterFactory MakeXftByzantineAdapter() {
  return MakeSignedAdapter(Xft(), /*twin=*/true);
}

}  // namespace consensus40::check
