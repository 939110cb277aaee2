/// Checker adapters for Zyzzyva: n=3f+1=4, speculative execution with the
/// client as commit point. The module implements the agreement protocol
/// only (no view changes), so the primary is shielded from faults and
/// schedules crash at most f backups.
///
/// The Byzantine twin: one of the three BACKUPS may withhold, corrupt
/// (generic interposer degradation: dropped), or replay its outbound
/// traffic. The primary stays both un-crashable AND un-Byzantine —
/// without a view-change path a lying primary is simply outside the
/// module's model, exactly like a crashed one (see the bounds-contract
/// test in tests/zyzzyva_test.cc). Speculative execution means a silent
/// backup pushes clients off the 3f+1 fast path onto the 2f+1
/// commit-certificate path, which is the transition worth hammering.

#include "check/adapters.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40::check {
namespace {

SignedProtocol Zyzzyva() {
  SignedProtocol p;
  p.name = "zyzzyva";
  p.n = 4;
  p.bounds.first_node = 1;  // No view change: the primary must stay up.
  p.bounds.nodes = p.n - 1;
  p.bounds.max_crashed = (p.n - 1) / 3;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_first_node = 1;  // Backups only, same window as crashes.
  p.twin_bounds.byz_nodes = p.n - 1;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_mutate = true;
  p.twin_bounds.byz_replay = true;
  p.spawn_replica = [n = p.n](sim::Simulation* sim, auto* registry, auto*) {
    zyzzyva::ZyzzyvaOptions opts;
    opts.n = n;
    opts.registry = registry;
    return sim->Spawn<zyzzyva::ZyzzyvaReplica>(opts);
  };
  p.spawn_client = [n = p.n](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<zyzzyva::ZyzzyvaClient>(n, registry, ops)->results();
  };
  return p;
}

}  // namespace

AdapterFactory MakeZyzzyvaAdapter() {
  return MakeSignedAdapter(Zyzzyva(), /*twin=*/false);
}

AdapterFactory MakeZyzzyvaByzantineAdapter() {
  return MakeSignedAdapter(Zyzzyva(), /*twin=*/true);
}

}  // namespace consensus40::check
