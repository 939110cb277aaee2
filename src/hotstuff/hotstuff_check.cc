/// Checker adapter for HotStuff: n=3f+1=4 with rotating leaders. Crash-stop
/// faults plus delay spikes (the pacemaker absorbs asynchrony bursts by
/// rotating views).

#include <memory>
#include <string>

#include "check/adapters.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "sim/byzantine.h"

namespace consensus40::check {
namespace {

class HotStuffCheckAdapter : public ProtocolAdapter {
 public:
  explicit HotStuffCheckAdapter(uint64_t seed, int ops = 4)
      : registry_(seed, kN + 4), ops_(ops) {}

  const char* name() const override { return "hotstuff"; }

  FaultBounds bounds() const override {
    FaultBounds b;
    b.nodes = kN;
    b.max_crashed = (kN - 1) / 3;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    hotstuff::HotStuffOptions opts;
    opts.n = kN;
    opts.registry = &registry_;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<hotstuff::HotStuffReplica>(opts));
    }
    client_ = sim->Spawn<hotstuff::HotStuffClient>(kN, &registry_, ops_);
  }

  bool Done() const override { return client_->done(); }

  Observation Observe() const override {
    Observation o;
    for (const hotstuff::HotStuffReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
      for (const std::string& v : r->violations()) {
        o.self_reported.push_back("hotstuff replica " +
                                  std::to_string(r->id()) + ": " + v);
      }
    }
    return o;
  }

 protected:
  static constexpr int kN = 4;
  crypto::KeyRegistry registry_;
  int ops_;
  std::vector<hotstuff::HotStuffReplica*> replicas_;
  hotstuff::HotStuffClient* client_ = nullptr;
};

/// In-bounds Byzantine HotStuff: any one of the four replicas may
/// withhold, corrupt (generic degradation: dropped), or replay outbound
/// traffic. A silent or lying leader is absorbed by the pacemaker — views
/// rotate past it — and the three-chain commit rule plus the
/// replica-level SafeNode checks (self-reported as violations) must hold
/// for every schedule.
class HotStuffByzantineAdapter : public HotStuffCheckAdapter {
 public:
  explicit HotStuffByzantineAdapter(uint64_t seed)
      : HotStuffCheckAdapter(seed, /*ops=*/12) {}

  const char* name() const override { return "hotstuff_byz"; }

  FaultBounds bounds() const override {
    FaultBounds b = HotStuffCheckAdapter::bounds();
    b.max_byzantine = 1;
    b.byz_first_node = 0;
    b.byz_nodes = kN;
    b.byz_withhold = true;
    b.byz_mutate = true;
    b.byz_replay = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    HotStuffCheckAdapter::Build(sim);
    byz_.Attach(sim);
  }

 private:
  sim::ByzantineInterposer byz_;
};

}  // namespace

AdapterFactory MakeHotStuffAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<HotStuffCheckAdapter>(seed);
  };
}

AdapterFactory MakeHotStuffByzantineAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<HotStuffByzantineAdapter>(seed);
  };
}

}  // namespace consensus40::check
