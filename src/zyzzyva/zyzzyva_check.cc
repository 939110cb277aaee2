/// Checker adapter for Zyzzyva: n=3f+1=4, speculative execution with the
/// client as commit point. The module implements the agreement protocol
/// only (no view changes), so the primary is shielded from faults and
/// schedules crash at most f backups.

#include <memory>
#include <string>

#include "check/adapters.h"
#include "crypto/signatures.h"
#include "sim/byzantine.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40::check {
namespace {

class ZyzzyvaCheckAdapter : public ProtocolAdapter {
 public:
  explicit ZyzzyvaCheckAdapter(uint64_t seed, int ops = 4)
      : registry_(seed, kN + 4), ops_(ops) {}

  const char* name() const override { return "zyzzyva"; }

  FaultBounds bounds() const override {
    FaultBounds b;
    b.first_node = 1;  // No view change: the primary must stay up.
    b.nodes = kN - 1;
    b.max_crashed = (kN - 1) / 3;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    zyzzyva::ZyzzyvaOptions opts;
    opts.n = kN;
    opts.registry = &registry_;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<zyzzyva::ZyzzyvaReplica>(opts));
    }
    client_ = sim->Spawn<zyzzyva::ZyzzyvaClient>(kN, &registry_, ops_);
  }

  bool Done() const override { return client_->done(); }

  Observation Observe() const override {
    Observation o;
    for (const zyzzyva::ZyzzyvaReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
    }
    return o;
  }

 protected:
  static constexpr int kN = 4;
  crypto::KeyRegistry registry_;
  int ops_;
  std::vector<zyzzyva::ZyzzyvaReplica*> replicas_;
  zyzzyva::ZyzzyvaClient* client_ = nullptr;
};

/// In-bounds Byzantine Zyzzyva: one of the three BACKUPS may withhold,
/// corrupt (generic interposer degradation: dropped), or replay its
/// outbound traffic. The primary stays both un-crashable AND un-Byzantine
/// — without a view-change path a lying primary is simply outside the
/// module's model, exactly like a crashed one (see the bounds-contract
/// test in tests/zyzzyva_test.cc). Speculative execution means a silent
/// backup pushes clients off the 3f+1 fast path onto the 2f+1
/// commit-certificate path, which is the transition worth hammering.
class ZyzzyvaByzantineAdapter : public ZyzzyvaCheckAdapter {
 public:
  explicit ZyzzyvaByzantineAdapter(uint64_t seed)
      : ZyzzyvaCheckAdapter(seed, /*ops=*/12) {}

  const char* name() const override { return "zyzzyva_byz"; }

  FaultBounds bounds() const override {
    FaultBounds b = ZyzzyvaCheckAdapter::bounds();
    b.max_byzantine = 1;
    b.byz_first_node = 1;  // Backups only, same window as crashes.
    b.byz_nodes = kN - 1;
    b.byz_withhold = true;
    b.byz_mutate = true;
    b.byz_replay = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    ZyzzyvaCheckAdapter::Build(sim);
    byz_.Attach(sim);
  }

 private:
  sim::ByzantineInterposer byz_;
};

}  // namespace

AdapterFactory MakeZyzzyvaAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<ZyzzyvaCheckAdapter>(seed);
  };
}

AdapterFactory MakeZyzzyvaByzantineAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<ZyzzyvaByzantineAdapter>(seed);
  };
}

}  // namespace consensus40::check
