/// Checker adapter for CheapBFT: 2f+1=3 replicas, f+1 active. A crash
/// among the active set triggers PANIC -> CheapSwitch -> MinBFT fallback,
/// which is exactly the transition the sweep should hammer.

#include <memory>
#include <string>

#include "check/adapters.h"
#include "cheapbft/cheapbft.h"
#include "crypto/signatures.h"
#include "sim/byzantine.h"

namespace consensus40::check {
namespace {

class CheapBftCheckAdapter : public ProtocolAdapter {
 public:
  explicit CheapBftCheckAdapter(uint64_t seed, int ops = 4)
      : registry_(seed, kN + 4), usig_(&registry_), ops_(ops) {}

  const char* name() const override { return "cheapbft"; }

  FaultBounds bounds() const override {
    FaultBounds b;
    // The CheapSwitch fallback pins the primary at replica 0 (no view
    // change: Primary() is constant in both modes), so a primary crash is
    // unrecoverable BY CONSTRUCTION and outside the implemented model.
    // Crashing replica 1 (active) or 2 (passive) stays in-model and still
    // exercises the PANIC -> CheapSwitch -> MinBFT-fallback transition.
    b.first_node = 1;
    b.nodes = kN - 1;
    b.max_crashed = kF;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    cheapbft::CheapBftOptions opts;
    opts.f = kF;
    opts.registry = &registry_;
    opts.usig = &usig_;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<cheapbft::CheapBftReplica>(opts));
    }
    client_ = sim->Spawn<cheapbft::CheapBftClient>(kF, &registry_, ops_);
  }

  bool Done() const override { return client_->done(); }

  Observation Observe() const override {
    Observation o;
    for (const cheapbft::CheapBftReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
    }
    return o;
  }

 protected:
  static constexpr int kF = 1;
  static constexpr int kN = 2 * kF + 1;
  crypto::KeyRegistry registry_;
  crypto::Usig usig_;
  int ops_;
  std::vector<cheapbft::CheapBftReplica*> replicas_;
  cheapbft::CheapBftClient* client_ = nullptr;
};

/// In-bounds Byzantine CheapBFT: any one replica — active or passive —
/// may withhold, corrupt (generic degradation: dropped), or replay
/// outbound traffic. A silent active replica is the protocol's signature
/// fault: clients PANIC, the cluster runs CheapSwitch, and the MinBFT
/// fallback must pick up exactly where the optimistic f+1 quorum left
/// off. USIG counters keep replayed captures inert, as in MinBFT.
/// The pinned primary stays in the Byzantine pool even though it is
/// shielded from crashes: a Byzantine window ends, so the primary comes
/// back and liveness is recoverable — a crash is forever.
class CheapBftByzantineAdapter : public CheapBftCheckAdapter {
 public:
  explicit CheapBftByzantineAdapter(uint64_t seed)
      : CheapBftCheckAdapter(seed, /*ops=*/12) {}

  const char* name() const override { return "cheapbft_byz"; }

  FaultBounds bounds() const override {
    FaultBounds b = CheapBftCheckAdapter::bounds();
    b.max_byzantine = 1;
    b.byz_first_node = 0;
    b.byz_nodes = kN;
    b.byz_withhold = true;
    b.byz_mutate = true;
    b.byz_replay = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    CheapBftCheckAdapter::Build(sim);
    byz_.Attach(sim);
  }

 private:
  sim::ByzantineInterposer byz_;
};

}  // namespace

AdapterFactory MakeCheapBftAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<CheapBftCheckAdapter>(seed);
  };
}

AdapterFactory MakeCheapBftByzantineAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<CheapBftByzantineAdapter>(seed);
  };
}

}  // namespace consensus40::check
