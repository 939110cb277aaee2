/// Checker adapters for CheapBFT: 2f+1=3 replicas, f+1 active. A crash
/// among the active set triggers PANIC -> CheapSwitch -> MinBFT fallback,
/// which is exactly the transition the sweep should hammer.
///
/// The Byzantine twin: any one replica — active or passive — may
/// withhold, corrupt (generic degradation: dropped), or replay outbound
/// traffic. A silent active replica is the protocol's signature fault:
/// clients PANIC, the cluster runs CheapSwitch, and the MinBFT fallback
/// must pick up exactly where the optimistic f+1 quorum left off. USIG
/// counters keep replayed captures inert, as in MinBFT. The pinned
/// primary stays in the Byzantine pool even though it is shielded from
/// crashes: a Byzantine window ends, so the primary comes back and
/// liveness is recoverable — a crash is forever.

#include "check/adapters.h"
#include "cheapbft/cheapbft.h"

namespace consensus40::check {
namespace {

constexpr int kF = 1;

SignedProtocol CheapBft() {
  SignedProtocol p;
  p.name = "cheapbft";
  p.n = 2 * kF + 1;
  // The CheapSwitch fallback pins the primary at replica 0 (no view
  // change: Primary() is constant in both modes), so a primary crash is
  // unrecoverable BY CONSTRUCTION and outside the implemented model.
  // Crashing replica 1 (active) or 2 (passive) stays in-model and still
  // exercises the PANIC -> CheapSwitch -> MinBFT-fallback transition.
  p.bounds.first_node = 1;
  p.bounds.nodes = p.n - 1;
  p.bounds.max_crashed = kF;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_nodes = p.n;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_mutate = true;
  p.twin_bounds.byz_replay = true;
  p.spawn_replica = [](sim::Simulation* sim, auto* registry, auto* usig) {
    cheapbft::CheapBftOptions opts;
    opts.f = kF;
    opts.registry = registry;
    opts.usig = usig;
    return sim->Spawn<cheapbft::CheapBftReplica>(opts);
  };
  // The client takes f, not n.
  p.spawn_client = [](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<cheapbft::CheapBftClient>(kF, registry, ops)->results();
  };
  return p;
}

}  // namespace

AdapterFactory MakeCheapBftAdapter() {
  return MakeSignedAdapter(CheapBft(), /*twin=*/false);
}

AdapterFactory MakeCheapBftByzantineAdapter() {
  return MakeSignedAdapter(CheapBft(), /*twin=*/true);
}

}  // namespace consensus40::check
