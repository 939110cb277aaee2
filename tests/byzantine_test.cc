// Systematic Byzantine adversaries across the BFT protocols: silent
// replicas, equivocating leaders, vote equivocators, lying repliers, and
// leaders that order what no client signed or rewrite what the signature
// leaves out. Every scenario asserts the same two things: honest replicas
// never diverge, and clients never accept a corrupted result.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40 {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// HotStuff: equivocating leader
// ---------------------------------------------------------------------------

/// A HotStuff leader that proposes TWO different blocks in its view, one to
/// each half of the cluster. Votes are per-view (replicas vote at most once
/// per height), so at most one block can gather a quorum certificate.
class EquivocatingHotStuffLeader : public hotstuff::HotStuffReplica {
 public:
  explicit EquivocatingHotStuffLeader(hotstuff::HotStuffOptions options)
      : HotStuffReplica(options), options_copy_(options) {}

  int equivocations = 0;

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    // Intercept our own proposal broadcasts indirectly: act honestly except
    // when we are about to propose — detected via the request path.
    HotStuffReplica::OnMessage(from, msg);
  }

  /// Called by the test to fire a double proposal at the current view.
  void DoubleProposeNow(const smr::Command& cmd_a,
                        const crypto::Signature& sig_a,
                        const smr::Command& cmd_b,
                        const crypto::Signature& sig_b) {
    ++equivocations;
    uint64_t view = current_view();
    for (int half = 0; half < 2; ++half) {
      hotstuff::Block block;
      block.height = view;
      block.parent = crypto::Digest{};  // Genesis parent (early view).
      block.justify = hotstuff::QuorumCert{};
      if (half == 0) {
        block.cmds = {cmd_a};
        block.cmd_sigs = {sig_a};
      } else {
        block.cmds = {cmd_b};
        block.cmd_sigs = {sig_b};
      }
      auto proposal = std::make_shared<ProposalMsg>();
      proposal->block = block;
      for (int r = half; r < options_copy_.n; r += 2) {
        Send(r, proposal);
      }
    }
  }

 private:
  hotstuff::HotStuffOptions options_copy_;
};

TEST(ByzantineHotStuffTest, EquivocatingLeaderCannotForkTheChain) {
  auto sim_owner = sim::Simulation::Builder(5).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(5, 16);
  hotstuff::HotStuffOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<hotstuff::HotStuffReplica*> replicas;
  auto* evil = sim.Spawn<EquivocatingHotStuffLeader>(opts);
  replicas.push_back(evil);
  sim.MarkByzantine(evil->id());
  for (int i = 1; i < 4; ++i) {
    replicas.push_back(sim.Spawn<hotstuff::HotStuffReplica>(opts));
  }
  auto* client = sim.Spawn<hotstuff::HotStuffClient>(4, &registry, 6);
  sim.Start();

  // Fire double proposals repeatedly during the run.
  smr::Command cmd_a{client->id(), 901, "PUT fork A"};
  smr::Command cmd_b{client->id(), 902, "PUT fork B"};
  crypto::Signature sig_a = registry.Sign(client->id(), cmd_a.Hash());
  crypto::Signature sig_b = registry.Sign(client->id(), cmd_b.Hash());
  for (int k = 0; k < 5; ++k) {
    sim.ScheduleAfter((50 + 100 * k) * kMillisecond, [&, k] {
      evil->DoubleProposeNow(cmd_a, sig_a, cmd_b, sig_b);
    });
  }
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 600 * kSecond));
  sim.RunFor(2 * kSecond);

  // Honest replicas share one history; "fork" never committed twice
  // divergently.
  for (size_t a = 1; a < replicas.size(); ++a) {
    for (size_t b = a + 1; b < replicas.size(); ++b) {
      const auto& ca = replicas[a]->executed_commands();
      const auto& cb = replicas[b]->executed_commands();
      size_t overlap = std::min(ca.size(), cb.size());
      for (size_t i = 0; i < overlap; ++i) {
        ASSERT_TRUE(ca[i] == cb[i]) << a << "," << b << " diverge at " << i;
      }
    }
    EXPECT_TRUE(replicas[a]->violations().empty());
  }
  EXPECT_GT(evil->equivocations, 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
}

// ---------------------------------------------------------------------------
// Lying repliers: a Byzantine replica sends corrupted results to clients
// ---------------------------------------------------------------------------

/// PBFT replica that participates honestly in agreement but LIES to the
/// client about execution results.
class LyingPbftReplica : public pbft::PbftReplica {
 public:
  explicit LyingPbftReplica(pbft::PbftOptions options)
      : PbftReplica(options) {}

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    PbftReplica::OnMessage(from, msg);
    // After honest processing, chase every request with a forged reply.
    if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
      Send(m->cmd.client, std::make_shared<ReplyMsg>(view(), m->cmd.client_seq,
                                                     id(), "666"));  // The lie.
    }
  }
};

TEST(ByzantineRepliesTest, ClientRejectsMinorityLies) {
  auto sim_owner = sim::Simulation::Builder(7).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(7, 16);
  pbft::PbftOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<pbft::PbftReplica*> replicas;
  replicas.push_back(sim.Spawn<pbft::PbftReplica>(opts));  // Honest primary.
  auto* liar = sim.Spawn<LyingPbftReplica>(opts);
  replicas.push_back(liar);
  sim.MarkByzantine(liar->id());
  for (int i = 2; i < 4; ++i) {
    replicas.push_back(sim.Spawn<pbft::PbftReplica>(opts));
  }
  auto* client = sim.Spawn<pbft::PbftClient>(4, &registry, 10);
  sim.Start();
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  // Client accepted only the true counter values: the f+1 matching-reply
  // rule filtered every "666".
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

// ---------------------------------------------------------------------------
// Silent replicas: liveness at exactly f, loss beyond f
// ---------------------------------------------------------------------------

template <typename Cluster>
struct SilenceBudget {
  int n;
  int f;
};

TEST(ByzantineSilenceTest, PbftBoundary) {
  // f silent replicas: fine. f+1: stuck. (Silence == crash for liveness.)
  for (int silent = 1; silent <= 2; ++silent) {
    auto sim_owner = sim::Simulation::Builder(9).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(9, 16);
    pbft::PbftOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    for (int i = 0; i < 4; ++i) sim.Spawn<pbft::PbftReplica>(opts);
    auto* client = sim.Spawn<pbft::PbftClient>(4, &registry, 3);
    for (int s = 0; s < silent; ++s) sim.Crash(3 - s);
    sim.Start();
    bool done = sim.RunUntil([&] { return client->done(); }, 30 * kSecond);
    if (silent <= 1) {
      EXPECT_TRUE(done) << "silent=" << silent;
    } else {
      EXPECT_FALSE(done) << "silent=" << silent;
    }
  }
}

TEST(ByzantineSilenceTest, MinBftBoundary) {
  for (int silent = 1; silent <= 2; ++silent) {
    auto sim_owner = sim::Simulation::Builder(9).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(9, 16);
    crypto::Usig usig(&registry);
    minbft::MinBftOptions opts;
    opts.n = 3;
    opts.registry = &registry;
    opts.usig = &usig;
    for (int i = 0; i < 3; ++i) sim.Spawn<minbft::MinBftReplica>(opts);
    auto* client = sim.Spawn<minbft::MinBftClient>(3, &registry, 3);
    for (int s = 0; s < silent; ++s) sim.Crash(2 - s);
    sim.Start();
    bool done = sim.RunUntil([&] { return client->done(); }, 30 * kSecond);
    if (silent <= 1) {
      EXPECT_TRUE(done) << "silent=" << silent;
    } else {
      EXPECT_FALSE(done) << "silent=" << silent;
    }
  }
}

// ---------------------------------------------------------------------------
// A leader orders only what a client signed, exactly as signed
// ---------------------------------------------------------------------------

/// MinBFT primary that, ahead of every request it orders, prepares the
/// unsigned command {client -1, "NOOP"} under a valid USIG UI. No client
/// signed it, so correct replicas must drop the prepare; executing it
/// would also address a reply to node -1.
class FillerInjectingPrimary : public minbft::MinBftReplica {
 public:
  explicit FillerInjectingPrimary(minbft::MinBftOptions options)
      : MinBftReplica(options) {}

 protected:
  bool MaybeActMaliciouslyOnRequest(const smr::Command&,
                                    const crypto::Signature&) override {
    smr::Command filler;
    filler.op = "NOOP";
    auto prepare = std::make_shared<PrepareMsg>();
    prepare->view = view();
    prepare->cmd = filler;
    crypto::Sha256 h;
    h.Update(&prepare->view, sizeof(prepare->view));
    const crypto::Digest d = filler.Hash();
    h.Update(d.data(), d.size());
    prepare->ui = options_.usig->CreateUi(id(), h.Finish());
    for (int r = 0; r < options_.n; ++r) Send(r, prepare);
    return false;  // Then order the real request as usual.
  }
};

TEST(ByzantineLeaderTest, MinBftPrimaryCannotOrderUnsignedFiller) {
  auto sim_owner = sim::Simulation::Builder(3).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(3, 16);
  crypto::Usig usig(&registry);
  minbft::MinBftOptions opts;
  opts.n = 3;
  opts.registry = &registry;
  opts.usig = &usig;
  std::vector<minbft::MinBftReplica*> replicas;
  replicas.push_back(sim.Spawn<FillerInjectingPrimary>(opts));
  sim.MarkByzantine(0);
  for (int i = 1; i < opts.n; ++i) {
    replicas.push_back(sim.Spawn<minbft::MinBftReplica>(opts));
  }
  auto* client = sim.Spawn<minbft::MinBftClient>(opts.n, &registry, 3);
  sim.Start();
  // The dropped filler leaves a counter gap; the request watchdogs then
  // depose the primary, and the next view orders the op.
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 30 * kSecond));
  EXPECT_GT(replicas[1]->view(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  for (size_t i = 1; i < replicas.size(); ++i) {
    for (const smr::Command& cmd : replicas[i]->executed_commands()) {
      EXPECT_EQ(cmd.client, client->id()) << "replica " << i << " executed "
                                          << cmd.ToString();
    }
  }
}

/// PBFT primary that orders every request with `acked` rewritten to the
/// request's own seq — "the client consumed this reply already" — on the
/// copies it sends to `forged`. Command::Hash leaves `acked` out, so the
/// client signature and the batch digest still verify everywhere.
class AckForgingPrimary : public pbft::PbftReplica {
 public:
  AckForgingPrimary(pbft::PbftOptions options, std::set<sim::NodeId> forged)
      : PbftReplica(options), forged_(std::move(forged)) {}

 protected:
  bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                    const crypto::Signature& sig) override {
    if (!ordered_.insert({cmd.client, cmd.client_seq}).second) return true;
    smr::Command rewritten = cmd;
    rewritten.acked = cmd.client_seq;
    const uint64_t seq = ordered_.size();
    for (int r = 0; r < options_.n; ++r) {
      auto pp = std::make_shared<PrePrepareMsg>();
      pp->view = view();
      pp->seq = seq;
      pp->cmds = {forged_.count(r) > 0 ? rewritten : cmd};
      pp->client_sigs = {sig};
      pp->digest = BatchDigest(pp->cmds);
      pp->sig = options_.registry->Sign(
          id(), PrePrepareDigest(pp->view, seq, pp->digest));
      Send(r, pp);
    }
    return true;
  }

 private:
  std::set<sim::NodeId> forged_;
  std::set<std::pair<int32_t, uint64_t>> ordered_;
};

/// Three INCs through an ack-forging primary: every op must return its
/// own count and every correct replica must end in the same state.
void ExpectAckForgeryHarmless(const std::set<sim::NodeId>& forged) {
  auto sim_owner = sim::Simulation::Builder(11).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(11, 16);
  pbft::PbftOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<pbft::PbftReplica*> replicas;
  replicas.push_back(sim.Spawn<AckForgingPrimary>(opts, forged));
  sim.MarkByzantine(0);
  for (int i = 1; i < opts.n; ++i) {
    replicas.push_back(sim.Spawn<pbft::PbftReplica>(opts));
  }
  auto* client = sim.Spawn<pbft::PbftClient>(opts.n, &registry, 3);
  sim.Start();
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 30 * kSecond));
  sim.RunFor(1 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  for (size_t i = 2; i < replicas.size(); ++i) {
    EXPECT_EQ(replicas[i]->kv().StateDigest(), replicas[1]->kv().StateDigest())
        << "replicas 1 and " << i;
  }
  EXPECT_EQ(replicas[1]->kv().Get("x"), "3");
}

TEST(ByzantineLeaderTest, PbftPrimaryForgingEveryAckCannotSkipOps) {
  ExpectAckForgeryHarmless({0, 1, 2, 3});
}

TEST(ByzantineLeaderTest, PbftPrimaryForgingSomeAcksCannotSplitState) {
  ExpectAckForgeryHarmless({0, 2});
}

// ---------------------------------------------------------------------------
// Zyzzyva: a replica serving divergent speculative responses
// ---------------------------------------------------------------------------

/// Zyzzyva backup that corrupts its speculative responses (wrong result +
/// wrong history). The client must never count it toward a quorum, forcing
/// case-2 commits that exclude it.
class CorruptZyzzyvaBackup : public zyzzyva::ZyzzyvaReplica {
 public:
  explicit CorruptZyzzyvaBackup(zyzzyva::ZyzzyvaOptions options)
      : ZyzzyvaReplica(options) {}

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    if (const auto* m = dynamic_cast<const OrderReqMsg*>(&msg)) {
      // Execute dishonestly: reply with garbage, signed by ourselves (the
      // signature is valid, the CONTENT is wrong).
      auto resp = std::make_shared<SpecResponseMsg>();
      resp->seq = m->seq;
      resp->client_seq = m->cmd.client_seq;
      resp->history = crypto::Sha256::Hash("fabricated history");
      resp->result = "666";
      resp->replica = id();
      resp->sig = options_.registry->Sign(id(), resp->SigningDigest());
      Send(m->cmd.client, resp);
      return;
    }
    ZyzzyvaReplica::OnMessage(from, msg);
  }
};

TEST(ByzantineZyzzyvaTest, CorruptSpeculationForcesCase2NotCorruption) {
  auto sim_owner = sim::Simulation::Builder(13).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(13, 16);
  zyzzyva::ZyzzyvaOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<zyzzyva::ZyzzyvaReplica*> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(sim.Spawn<zyzzyva::ZyzzyvaReplica>(opts));
  }
  auto* corrupt = sim.Spawn<CorruptZyzzyvaBackup>(opts);
  replicas.push_back(corrupt);
  sim.MarkByzantine(corrupt->id());
  auto* client = sim.Spawn<zyzzyva::ZyzzyvaClient>(4, &registry, 8);
  sim.Start();
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  // Every request needed the commit-certificate path (only 3 honest
  // matching responses), and every accepted result is correct.
  EXPECT_EQ(client->case1_completions(), 0);
  EXPECT_EQ(client->case2_completions(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

}  // namespace
}  // namespace consensus40
