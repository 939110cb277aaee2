/// Checker adapter for MinBFT: n=2f+1=3 with the shared trusted USIG.
/// Crash-stop (no restart path) — the USIG counters make a restarted
/// replica's old incarnation indistinguishable from equivocation.

#include <memory>
#include <string>

#include "check/adapters.h"
#include "crypto/signatures.h"
#include "minbft/minbft.h"
#include "sim/byzantine.h"

namespace consensus40::check {
namespace {

class MinBftCheckAdapter : public ProtocolAdapter {
 public:
  explicit MinBftCheckAdapter(uint64_t seed, int ops = 4)
      : registry_(seed, kN + 4), usig_(&registry_), ops_(ops) {}

  const char* name() const override { return "minbft"; }

  FaultBounds bounds() const override {
    FaultBounds b;
    b.nodes = kN;
    b.max_crashed = (kN - 1) / 2;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    minbft::MinBftOptions opts;
    opts.n = kN;
    opts.registry = &registry_;
    opts.usig = &usig_;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<minbft::MinBftReplica>(opts));
    }
    client_ = sim->Spawn<minbft::MinBftClient>(kN, &registry_, ops_);
  }

  bool Done() const override { return client_->done(); }

  Observation Observe() const override {
    Observation o;
    for (const minbft::MinBftReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
    }
    return o;
  }

 protected:
  static constexpr int kN = 3;
  crypto::KeyRegistry registry_;
  crypto::Usig usig_;
  int ops_;
  std::vector<minbft::MinBftReplica*> replicas_;
  minbft::MinBftClient* client_ = nullptr;
};

/// In-bounds Byzantine MinBFT: any one of the three replicas may
/// withhold, corrupt (generic degradation: dropped), or replay outbound
/// traffic. No equivocation forge — that is the whole point of the USIG:
/// a twin message would need a second UI for the same counter, which the
/// trusted component refuses to mint. Replayed captures carry stale USIG
/// counters and must bounce off the monotonicity check.
class MinBftByzantineAdapter : public MinBftCheckAdapter {
 public:
  explicit MinBftByzantineAdapter(uint64_t seed)
      : MinBftCheckAdapter(seed, /*ops=*/12) {}

  const char* name() const override { return "minbft_byz"; }

  FaultBounds bounds() const override {
    FaultBounds b = MinBftCheckAdapter::bounds();
    b.max_byzantine = 1;
    b.byz_first_node = 0;
    b.byz_nodes = kN;
    b.byz_withhold = true;
    b.byz_mutate = true;
    b.byz_replay = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    MinBftCheckAdapter::Build(sim);
    byz_.Attach(sim);
  }

 private:
  sim::ByzantineInterposer byz_;
};

}  // namespace

AdapterFactory MakeMinBftAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<MinBftCheckAdapter>(seed);
  };
}

AdapterFactory MakeMinBftByzantineAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<MinBftByzantineAdapter>(seed);
  };
}

}  // namespace consensus40::check
