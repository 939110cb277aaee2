/// Checker adapter for XFT (XPaxos): n=2f+1=5. The in-bounds model is
/// crash faults only — XFT's bet is that crash faults and partitions
/// together stay under f, and Byzantine-plus-partition "anarchy" is
/// outside the model — so schedules crash up to f replicas and spike
/// delays, but never cut the network.

#include <memory>
#include <string>

#include "check/adapters.h"
#include "crypto/signatures.h"
#include "sim/byzantine.h"
#include "xft/xft.h"

namespace consensus40::check {
namespace {

class XftCheckAdapter : public ProtocolAdapter {
 public:
  explicit XftCheckAdapter(uint64_t seed, int ops = 4)
      : registry_(seed, kN + 4), ops_(ops) {}

  const char* name() const override { return "xft"; }

  FaultBounds bounds() const override {
    FaultBounds b;
    b.nodes = kN;
    b.max_crashed = (kN - 1) / 2;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    xft::XftOptions opts;
    opts.n = kN;
    opts.registry = &registry_;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<xft::XftReplica>(opts));
    }
    client_ = sim->Spawn<xft::XftClient>(kN, &registry_, ops_);
  }

  bool Done() const override { return client_->done(); }

  Observation Observe() const override {
    Observation o;
    for (const xft::XftReplica* r : replicas_) {
      o.logs.push_back(ExecutedLog(*r));
    }
    return o;
  }

 protected:
  static constexpr int kN = 5;
  crypto::KeyRegistry registry_;
  int ops_;
  std::vector<xft::XftReplica*> replicas_;
  xft::XftClient* client_ = nullptr;
};

/// In-bounds Byzantine XFT: one replica may withhold or replay outbound
/// traffic — the non-anarchy slice of XFT's model, where a Byzantine
/// machine exists but the network stays connected and the combined
/// (crash + Byzantine) fault count stays under f. No mutate: a corrupted
/// message plus a delay spike is indistinguishable from the
/// partition-plus-Byzantine "anarchy" XFT explicitly does not claim.
class XftByzantineAdapter : public XftCheckAdapter {
 public:
  explicit XftByzantineAdapter(uint64_t seed)
      : XftCheckAdapter(seed, /*ops=*/12) {}

  const char* name() const override { return "xft_byz"; }

  FaultBounds bounds() const override {
    FaultBounds b = XftCheckAdapter::bounds();
    b.max_byzantine = 1;
    b.byz_first_node = 0;
    b.byz_nodes = kN;
    b.byz_withhold = true;
    b.byz_replay = true;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    XftCheckAdapter::Build(sim);
    byz_.Attach(sim);
  }

 private:
  sim::ByzantineInterposer byz_;
};

}  // namespace

AdapterFactory MakeXftAdapter() {
  return [](uint64_t seed) { return std::make_unique<XftCheckAdapter>(seed); };
}

AdapterFactory MakeXftByzantineAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<XftByzantineAdapter>(seed);
  };
}

}  // namespace consensus40::check
