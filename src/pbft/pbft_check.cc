/// Checker adapters for PBFT: the in-bounds n=3f+1 configuration and its
/// Byzantine twin (one interposer-driven liar inside the stated f), both
/// through the signed-replica adapter, and the out-of-bounds n=3f
/// configuration (n=3, f=1) where the implementation's quorum math
/// degenerates to f'=0 — replicas commit straight from a valid
/// pre-prepare — so one equivocating primary (f'+1 liars for the
/// degenerate f'=0) forks the two honest backups.
///
/// All Byzantine behaviour rides the reusable sim::ByzantineInterposer;
/// the protocol knowledge lives in the forge/corrupt hooks built by
/// MakePbftByzantineHooks below, not in adversary subclasses.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/adapters.h"
#include "crypto/signatures.h"
#include "pbft/pbft.h"
#include "sim/byzantine.h"

namespace consensus40::check {
namespace {

/// Shared forgery material across all hooks of one cluster: real
/// client-signed commands harvested from observed pre-prepares, plus the
/// (view, seq) -> {real digest, twin digest} fork map that keeps a liar's
/// prepare/commit votes consistent with whichever pre-prepare each half of
/// the cluster received.
struct PbftForkState {
  std::map<crypto::Digest, std::pair<smr::Command, crypto::Signature>>
      commands;
  std::map<std::pair<int64_t, uint64_t>, std::pair<crypto::Digest,
                                                   crypto::Digest>>
      forks;
};

/// Re-points `vote` at the other side of the recorded fork for its
/// (view, seq) — or at a phantom digest when no fork is on record — and
/// re-signs it as `from`. The signature stays valid: this is a lie, not
/// line noise.
void FlipVote(const PbftForkState& st, const crypto::KeyRegistry* registry,
              sim::NodeId from, pbft::SignedVote* vote) {
  auto it = st.forks.find({vote->view, vote->seq});
  if (it != st.forks.end()) {
    vote->digest = vote->digest == it->second.first ? it->second.second
                                                    : it->second.first;
  } else {
    vote->digest[0] ^= 0xff;
  }
  vote->sig = registry->Sign(from, vote->SigningDigest());
}

/// Protocol hooks that make the generic interposer speak PBFT:
///  - forge_twin reorders a pre-prepare batch (or substitutes a different
///    harvested client command), re-signs it as the sender, and records
///    the fork so later votes flip consistently; checkpoints lie about the
///    state digest; view-change traffic is withheld (a coherent forged
///    view-change proof would need honest keys the liar does not have).
///  - corrupt byte-flips the digest WITHOUT re-signing, so the result
///    fails verification at honest receivers (exercises validation paths).
/// Everything is re-signed with the sender's real key via the shared
/// registry — a Byzantine node can lie, but never fabricate a client
/// request or another replica's signature.
sim::ByzantineInterposer::Hooks MakePbftByzantineHooks(
    const crypto::KeyRegistry* registry) {
  using Replica = pbft::PbftReplica;
  auto st = std::make_shared<PbftForkState>();

  sim::ByzantineInterposer::Hooks hooks;
  hooks.observe = [st](sim::NodeId, const sim::MessagePtr& m) {
    const auto* pp = dynamic_cast<const Replica::PrePrepareMsg*>(m.get());
    if (pp == nullptr) return;
    const size_t n = std::min(pp->cmds.size(), pp->client_sigs.size());
    for (size_t i = 0; i < n && st->commands.size() < 8; ++i) {
      st->commands.emplace(
          pp->cmds[i].Hash(),
          std::make_pair(pp->cmds[i], pp->client_sigs[i]));
    }
  };

  hooks.forge_twin = [st, registry](
                         sim::NodeId from,
                         const sim::MessagePtr& m) -> sim::MessagePtr {
    if (const auto* pp = dynamic_cast<const Replica::PrePrepareMsg*>(m.get())) {
      auto twin = std::make_shared<Replica::PrePrepareMsg>(*pp);
      if (twin->cmds.size() >= 2) {
        std::reverse(twin->cmds.begin(), twin->cmds.end());
        std::reverse(twin->client_sigs.begin(), twin->client_sigs.end());
      } else {
        bool swapped = false;
        for (const auto& [hash, cmd_sig] : st->commands) {
          if (!pp->cmds.empty() && hash == pp->cmds[0].Hash()) continue;
          twin->cmds = {cmd_sig.first};
          twin->client_sigs = {cmd_sig.second};
          swapped = true;
          break;
        }
        // No distinct client-signed material to equivocate with yet.
        if (!swapped) return m;
      }
      twin->digest = Replica::BatchDigest(twin->cmds);
      twin->sig = registry->Sign(
          from, Replica::PrePrepareDigest(twin->view, twin->seq, twin->digest));
      st->forks[{twin->view, twin->seq}] = {pp->digest, twin->digest};
      return twin;
    }
    if (const auto* p = dynamic_cast<const Replica::PrepareMsg*>(m.get())) {
      auto twin = std::make_shared<Replica::PrepareMsg>(*p);
      FlipVote(*st, registry, from, &twin->vote);
      return twin;
    }
    if (const auto* c = dynamic_cast<const Replica::CommitMsg*>(m.get())) {
      auto twin = std::make_shared<Replica::CommitMsg>(*c);
      FlipVote(*st, registry, from, &twin->vote);
      return twin;
    }
    if (const auto* ck = dynamic_cast<const Replica::CheckpointMsg*>(m.get())) {
      auto twin = std::make_shared<Replica::CheckpointMsg>(*ck);
      twin->vote.digest[0] ^= 0xff;
      twin->vote.sig = registry->Sign(from, twin->vote.SigningDigest());
      return twin;
    }
    if (dynamic_cast<const Replica::ViewChangeMsg*>(m.get()) != nullptr ||
        dynamic_cast<const Replica::NewViewMsg*>(m.get()) != nullptr) {
      return nullptr;
    }
    return m;
  };

  hooks.corrupt = [](sim::NodeId, const sim::MessagePtr& m) -> sim::MessagePtr {
    if (const auto* pp = dynamic_cast<const Replica::PrePrepareMsg*>(m.get())) {
      auto bad = std::make_shared<Replica::PrePrepareMsg>(*pp);
      bad->digest[0] ^= 0xff;
      return bad;
    }
    if (const auto* p = dynamic_cast<const Replica::PrepareMsg*>(m.get())) {
      auto bad = std::make_shared<Replica::PrepareMsg>(*p);
      bad->vote.digest[0] ^= 0xff;
      return bad;
    }
    if (const auto* c = dynamic_cast<const Replica::CommitMsg*>(m.get())) {
      auto bad = std::make_shared<Replica::CommitMsg>(*c);
      bad->vote.digest[0] ^= 0xff;
      return bad;
    }
    if (const auto* ck = dynamic_cast<const Replica::CheckpointMsg*>(m.get())) {
      auto bad = std::make_shared<Replica::CheckpointMsg>(*ck);
      bad->vote.digest[0] ^= 0xff;
      return bad;
    }
    return nullptr;
  };

  return hooks;
}

/// The in-bounds n=3f+1 configuration restarts, partitions and
/// checkpoints every 4 (exercising checkpointing in-sweep).
///
/// The Byzantine twin: one of the four replicas may lie — forged twin
/// pre-prepares, flipped votes, corrupted digests, withheld or replayed
/// traffic — inside seed-chosen windows, and schedules may also be
/// view-change-heavy bursts that repeatedly silence the primary. With at
/// most f=1 liar the prepare/commit quorums must still force a single
/// order, so every safety invariant must survive the sweep.
SignedProtocol Pbft() {
  SignedProtocol p;
  p.name = "pbft";
  p.n = 4;
  p.bounds.nodes = p.n;
  p.bounds.max_crashed = (p.n - 1) / 3;
  p.bounds.restartable = true;
  p.bounds.partitionable = true;
  p.twin_bounds = p.bounds;
  p.twin_bounds.max_byzantine = 1;
  p.twin_bounds.byz_nodes = p.n;
  p.twin_bounds.byz_equivocate = true;
  p.twin_bounds.byz_withhold = true;
  p.twin_bounds.byz_mutate = true;
  p.twin_bounds.byz_replay = true;
  // One request-watchdog period, so a burst of primary silencings spaced
  // one period apart forces consecutive view changes while the client
  // burst is still in flight.
  p.twin_bounds.view_change_period = pbft::PbftReplica::kRequestTimeout;
  p.twin_hooks = MakePbftByzantineHooks;
  p.spawn_replica = [n = p.n](sim::Simulation* sim, auto* registry, auto*) {
    pbft::PbftOptions opts;
    opts.n = n;
    opts.registry = registry;
    opts.checkpoint_interval = 4;
    return sim->Spawn<pbft::PbftReplica>(opts);
  };
  p.spawn_client = [n = p.n](sim::Simulation* sim, auto* registry, int ops) {
    return &sim->Spawn<pbft::PbftClient>(n, registry, ops)->results();
  };
  return p;
}

/// PBFT at n = 3, f = 1 (i.e. n = 3f): the implementation computes
/// f' = 0, so replicas commit straight from a valid pre-prepare. One
/// equivocating primary — f'+1 liars for the quorum math actually in
/// force — forks the two honest backups. Equivocation is schedule-driven
/// (kEquivocate windows on node 0) through the same interposer + hooks as
/// the in-bounds variant; two-command batches give the forge hook a
/// reorderable twin on every proposal.
class PbftOutOfBoundsAdapter : public ProtocolAdapter {
 public:
  explicit PbftOutOfBoundsAdapter(uint64_t seed)
      : registry_(seed, kN + 4), byz_(MakePbftByzantineHooks(&registry_)) {}

  const char* name() const override { return "pbft-n=3f"; }

  FaultBounds bounds() const override {
    // The Byzantine primary is the whole fault budget: no crashes and no
    // delay spikes — the point is that n=3f forks even on a calm network.
    FaultBounds b;
    b.nodes = 0;
    b.delay_spikes = false;
    b.max_byzantine = 1;
    b.byz_first_node = 0;
    b.byz_nodes = 1;  // Only the primary lies.
    b.byz_equivocate = true;
    b.horizon = 1 * sim::kSecond;
    b.quiesce = 2 * sim::kSecond;
    return b;
  }

  void Build(sim::Simulation* sim) override {
    pbft::PbftOptions opts;
    opts.n = kN;
    opts.registry = &registry_;
    opts.batch_size = 2;
    opts.batch_delay = 1 * sim::kMillisecond;
    for (int i = 0; i < kN; ++i) {
      replicas_.push_back(sim->Spawn<pbft::PbftReplica>(opts));
    }
    // Two clients keep two distinct requests in flight, so batches hold
    // reorderable pairs for most of the horizon.
    sim->Spawn<pbft::PbftClient>(kN, &registry_, kOps, "a");
    sim->Spawn<pbft::PbftClient>(kN, &registry_, kOps, "b");
    byz_.Attach(sim);
  }

  bool Done() const override {
    for (size_t i = 1; i < replicas_.size(); ++i) {
      if (replicas_[i]->executed_commands().size() <
          static_cast<size_t>(2 * kOps)) {
        return false;
      }
    }
    return true;
  }

  bool ExpectTermination() const override { return false; }

  Observation Observe() const override {
    Observation o;
    // Only the honest backups' logs count; the Byzantine primary's state
    // is unconstrained.
    for (size_t i = 1; i < replicas_.size(); ++i) {
      o.logs.push_back(ExecutedLog(*replicas_[i]));
    }
    return o;
  }

 private:
  static constexpr int kN = 3;  // = 3f for f=1: out of bounds.
  static constexpr int kOps = 24;
  crypto::KeyRegistry registry_;
  sim::ByzantineInterposer byz_;
  std::vector<pbft::PbftReplica*> replicas_;
};

}  // namespace

AdapterFactory MakePbftAdapter() {
  return MakeSignedAdapter(Pbft(), /*twin=*/false);
}

AdapterFactory MakePbftByzantineAdapter() {
  return MakeSignedAdapter(Pbft(), /*twin=*/true);
}

AdapterFactory MakePbftOutOfBoundsAdapter() {
  return [](uint64_t seed) {
    return std::make_unique<PbftOutOfBoundsAdapter>(seed);
  };
}

}  // namespace consensus40::check
