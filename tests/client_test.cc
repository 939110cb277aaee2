// The closed-loop client the SMR protocols share, checked two ways.
//
// ClientFingerprintTest pins one seeded run per protocol: real replicas
// and that protocol's client, with a replica the client depends on
// crashed partway through wherever the protocol's fault bounds allow it,
// so retries, re-broadcasts and leader hints all run. Every completed
// op's result and completion time, the message counts (total, bytes and
// per wire type) and the number of events fold into one FNV-1a hash. A
// change that alters any client send, timer or hint moves the hash.
// Re-pin a row only with the reason stated here.
//
// Re-pinned (every row but seemore, whose run cancels no timer) when a
// cancelled timer stopped being an event: a cancel now unlinks its event,
// so the event term counts only timers that fire. With that term left
// out, every row hashed as before.
//
// ReplicaFingerprintTest pins the replica side of the same runs for the
// Byzantine-fault protocols (smr::SignedReplica), Zyzzyva included: every
// live replica's executed log and KvStore digest. A change to what a
// replica executes, or in which order, moves it.
//
// The contract tests drive a client against scripted fake replicas and
// check the client role itself: f forged replies never complete an op,
// the (f+1)-th matching reply completes it exactly once, a retry reaches
// every replica, a reply's view steers the next request, and a
// crash-fault redirect steers to the hinted leader.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cheapbft/cheapbft.h"
#include "crypto/sha256.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "paxos/multi_paxos.h"
#include "pbft/pbft.h"
#include "raft/raft.h"
#include "seemore/seemore.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "xft/xft.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40 {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

constexpr uint64_t kSeed = 2024;
constexpr int kOps = 12;
constexpr int kCrashAfter = 4;

class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  void Mix(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Runs `client` to kCrashAfter completed ops, crashes `victim()`, runs
/// it to kOps and returns the run's hash.
template <typename Client>
uint64_t Fingerprint(sim::Simulation& sim, Client* client,
                     const std::function<sim::NodeId()>& victim) {
  Fnv fnv;
  size_t seen = 0;
  uint64_t events = 0;  // RunUntil evaluates its predicate once per event.
  auto run_until = [&](int target) {
    return sim.RunUntil(
        [&] {
          ++events;
          for (; seen < client->results().size(); ++seen) {
            fnv.Mix(static_cast<uint64_t>(sim.now()));
            fnv.Mix(client->results()[seen]);
          }
          return client->completed() >= target;
        },
        sim.now() + 60 * kSecond);
  };
  sim.Start();
  EXPECT_TRUE(run_until(kCrashAfter));
  sim.Crash(victim());
  EXPECT_TRUE(run_until(kOps));
  fnv.Mix(sim.stats().messages_sent);
  fnv.Mix(sim.stats().bytes_sent);
  for (const auto& [type, count] : sim.stats().sent_by_type) {
    fnv.Mix(type);
    fnv.Mix(count);
  }
  fnv.Mix(events);
  return fnv.value();
}

/// Hash of every live replica's executed log and state digest.
template <typename Replica>
uint64_t ReplicaFingerprint(const sim::Simulation& sim,
                            const std::vector<Replica*>& replicas) {
  Fnv fnv;
  for (const Replica* r : replicas) {
    if (sim.IsCrashed(r->id())) continue;
    fnv.Mix(static_cast<uint64_t>(r->id()));
    fnv.Mix(r->executed_commands().size());
    for (const smr::Command& cmd : r->executed_commands()) {
      fnv.Mix(cmd.ToString());
    }
    for (uint8_t byte : r->kv().StateDigest()) fnv.Mix(byte);
  }
  return fnv.value();
}

/// The live replica of `replicas` that believes it leads (the one a
/// crash-fault client has stuck to), or member 0.
template <typename Replica>
sim::NodeId LeaderOf(const sim::Simulation& sim,
                     const std::vector<Replica*>& replicas) {
  for (const Replica* r : replicas) {
    if (r->IsLeader() && !sim.IsCrashed(r->id())) return r->id();
  }
  return 0;
}

/// The two fingerprints of one pinned run. `replicas` stays 0 for the
/// crash-fault protocols.
struct PinnedRun {
  uint64_t client = 0;
  uint64_t replicas = 0;
};

/// Spawns `n` replicas of type Replica built from `options`.
template <typename Replica, typename Options>
std::vector<Replica*> SpawnReplicas(sim::Simulation& sim, int n,
                                    const Options& options) {
  std::vector<Replica*> replicas;
  for (int i = 0; i < n; ++i) replicas.push_back(sim.Spawn<Replica>(options));
  return replicas;
}

PinnedRun RunPinned(const std::string& name) {
  crypto::KeyRegistry registry(kSeed, 16);
  crypto::Usig usig(&registry);
  auto sim = sim::Simulation::Builder(kSeed).AutoStart(false).Build();
  auto member0 = [] { return sim::NodeId{0}; };
  if (name == "pbft") {
    pbft::PbftOptions o;
    o.n = 4;
    o.registry = &registry;
    auto replicas = SpawnReplicas<pbft::PbftReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<pbft::PbftClient>(o.n, &registry, kOps);
    const uint64_t hash = Fingerprint(*sim, client, member0);
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "minbft") {
    minbft::MinBftOptions o;
    o.n = 3;
    o.registry = &registry;
    o.usig = &usig;
    auto replicas = SpawnReplicas<minbft::MinBftReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<minbft::MinBftClient>(o.n, &registry, kOps);
    const uint64_t hash = Fingerprint(*sim, client, member0);
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "xft") {
    xft::XftOptions o;
    o.n = 3;
    o.registry = &registry;
    auto replicas = SpawnReplicas<xft::XftReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<xft::XftClient>(o.n, &registry, kOps);
    const uint64_t hash = Fingerprint(*sim, client, member0);
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "hotstuff") {
    hotstuff::HotStuffOptions o;
    o.n = 4;
    o.registry = &registry;
    auto replicas = SpawnReplicas<hotstuff::HotStuffReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<hotstuff::HotStuffClient>(o.n, &registry, kOps);
    const uint64_t hash = Fingerprint(*sim, client, member0);
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "cheapbft") {
    // Crashing an active replica forces the PANIC-driven switch to MinBFT.
    cheapbft::CheapBftOptions o;
    o.f = 1;
    o.registry = &registry;
    o.usig = &usig;
    auto replicas =
        SpawnReplicas<cheapbft::CheapBftReplica>(*sim, 2 * o.f + 1, o);
    auto* client = sim->Spawn<cheapbft::CheapBftClient>(o.f, &registry, kOps);
    const uint64_t hash =
        Fingerprint(*sim, client, [] { return sim::NodeId{1}; });
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "seemore") {
    // SeeMoRe has no view change, so the primary stays up; a silent
    // public-cloud proxy is the fault mode 3 tolerates.
    seemore::SeeMoReOptions o;
    o.m = 1;
    o.c = 1;
    o.mode = seemore::SeeMoReMode::kMode3;
    o.registry = &registry;
    auto replicas = SpawnReplicas<seemore::SeeMoReReplica>(*sim, o.n(), o);
    auto* client = sim->Spawn<seemore::SeeMoReClient>(o, kOps);
    const sim::NodeId proxy = o.private_n() + 1;
    const uint64_t hash = Fingerprint(*sim, client, [proxy] { return proxy; });
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "zyzzyva") {
    // No view change either: a backup goes silent, which pushes every
    // later op onto the case-2 commit path.
    zyzzyva::ZyzzyvaOptions o;
    o.n = 4;
    o.registry = &registry;
    auto replicas = SpawnReplicas<zyzzyva::ZyzzyvaReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<zyzzyva::ZyzzyvaClient>(o.n, &registry, kOps);
    const uint64_t hash =
        Fingerprint(*sim, client, [] { return sim::NodeId{3}; });
    return {hash, ReplicaFingerprint(*sim, replicas)};
  }
  if (name == "raft") {
    raft::RaftOptions o;
    o.n = 3;
    auto replicas = SpawnReplicas<raft::RaftReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<raft::RaftClient>(o.n, kOps);
    return {Fingerprint(*sim, client,
                        [&] { return LeaderOf(*sim, replicas); })};
  }
  if (name == "multi_paxos") {
    paxos::MultiPaxosOptions o;
    o.n = 3;
    auto replicas = SpawnReplicas<paxos::MultiPaxosReplica>(*sim, o.n, o);
    auto* client = sim->Spawn<paxos::MultiPaxosClient>(o.n, kOps);
    return {Fingerprint(*sim, client,
                        [&] { return LeaderOf(*sim, replicas); })};
  }
  ADD_FAILURE() << "unknown protocol " << name;
  return {};
}

const char* const kClientProtocols[] = {"pbft",     "minbft",  "xft",
                                        "hotstuff", "cheapbft", "seemore",
                                        "raft",     "multi_paxos"};

class ClientFingerprintTest : public testing::TestWithParam<const char*> {};

TEST_P(ClientFingerprintTest, MatchesPinnedRun) {
  static const std::map<std::string, uint64_t> kPinned = {
      {"pbft", 0x8bd4633ba7645ee3ull},
      {"minbft", 0xe638d43b9db2778aull},
      {"xft", 0x4f9a469c509a7269ull},
      {"hotstuff", 0xa1fad46415885ebfull},
      {"cheapbft", 0x3f05e28b6ae4f888ull},
      {"seemore", 0x75c537d38a50f0aaull},
      {"raft", 0x60df31f564304d18ull},
      {"multi_paxos", 0xdee431c7e66bc2fcull},
  };
  const uint64_t got = RunPinned(GetParam()).client;
  EXPECT_EQ(got, kPinned.at(GetParam())) << std::hex << "fingerprint 0x"
                                         << got;
}

std::string ParamName(const testing::TestParamInfo<const char*>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(Protocols, ClientFingerprintTest,
                         testing::ValuesIn(kClientProtocols), ParamName);

const char* const kSignedProtocols[] = {"pbft",     "minbft",   "xft",
                                        "hotstuff", "cheapbft", "seemore",
                                        "zyzzyva"};

class ReplicaFingerprintTest : public testing::TestWithParam<const char*> {};

TEST_P(ReplicaFingerprintTest, MatchesPinnedRun) {
  // Runs that leave the same live members with the same log (one
  // client's twelve INCs, each applied once) share a value: PBFT and
  // HotStuff, MinBFT and XFT.
  static const std::map<std::string, uint64_t> kPinned = {
      {"pbft", 0x4be5c9d5a1f0d61bull},    {"minbft", 0x509cf76f3e90fea6ull},
      {"xft", 0x509cf76f3e90fea6ull},     {"hotstuff", 0x4be5c9d5a1f0d61bull},
      {"cheapbft", 0x6bf691c42bd4a827ull}, {"seemore", 0x5371b3b410d9c4f9ull},
      {"zyzzyva", 0x91de60617c1e2018ull},
  };
  const uint64_t got = RunPinned(GetParam()).replicas;
  EXPECT_EQ(got, kPinned.at(GetParam())) << std::hex << "fingerprint 0x"
                                         << got;
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReplicaFingerprintTest,
                         testing::ValuesIn(kSignedProtocols), ParamName);

// ---------------------------------------------------------------------------
// Contract, against scripted replicas
// ---------------------------------------------------------------------------

/// A replica stand-in: records every `Request` it receives and answers
/// only when the test tells it to.
template <typename Request>
class FakeReplica : public sim::Process {
 public:
  void OnMessage(sim::NodeId, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const Request*>(&msg);
    if (m == nullptr) return;
    requests.push_back(m->cmd);
    if constexpr (requires { m->client_sig; }) sigs.push_back(m->client_sig);
  }

  void Answer(sim::NodeId to, sim::MessagePtr reply) {
    Send(to, std::move(reply));
  }

  /// Requests received for `seq`.
  int Count(uint64_t seq) const {
    int count = 0;
    for (const smr::Command& cmd : requests) count += cmd.client_seq == seq;
    return count;
  }

  std::vector<smr::Command> requests;
  std::vector<crypto::Signature> sigs;
};

constexpr int kContractOps = 2;
/// Long enough for any message to land, short of every retry period.
constexpr sim::Duration kLand = 10 * kMillisecond;

struct PbftCase {
  using Client = pbft::PbftClient;
  using Request = pbft::PbftReplica::RequestMsg;
  using Reply = pbft::PbftReplica::ReplyMsg;
  static constexpr int kN = 7;
  static constexpr int kF = 2;
  static constexpr sim::Duration kRetry = 500 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    return s->Spawn<Client>(kN, r, kContractOps);
  }
};
struct MinBftCase {
  using Client = minbft::MinBftClient;
  using Request = minbft::MinBftReplica::RequestMsg;
  using Reply = minbft::MinBftReplica::ReplyMsg;
  static constexpr int kN = 5;
  static constexpr int kF = 2;
  static constexpr sim::Duration kRetry = 500 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    return s->Spawn<Client>(kN, r, kContractOps);
  }
};
struct XftCase {
  using Client = xft::XftClient;
  using Request = xft::XftReplica::RequestMsg;
  using Reply = xft::XftReplica::ReplyMsg;
  static constexpr int kN = 5;
  static constexpr int kF = 2;
  static constexpr sim::Duration kRetry = 500 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    return s->Spawn<Client>(kN, r, kContractOps);
  }
};
struct HotStuffCase {
  using Client = hotstuff::HotStuffClient;
  using Request = hotstuff::HotStuffReplica::RequestMsg;
  using Reply = hotstuff::HotStuffReplica::ReplyMsg;
  static constexpr int kN = 7;
  static constexpr int kF = 2;
  static constexpr sim::Duration kRetry = 800 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    return s->Spawn<Client>(kN, r, kContractOps);
  }
};
struct CheapBftCase {
  using Client = cheapbft::CheapBftClient;
  using Request = cheapbft::CheapBftReplica::RequestMsg;
  using Reply = cheapbft::CheapBftReplica::ReplyMsg;
  static constexpr int kN = 5;
  static constexpr int kF = 2;
  static constexpr sim::Duration kRetry = 400 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    return s->Spawn<Client>(kF, r, kContractOps);
  }
};
struct SeeMoReCase {
  using Client = seemore::SeeMoReClient;
  using Request = seemore::SeeMoReReplica::RequestMsg;
  using Reply = seemore::SeeMoReReplica::ReplyMsg;
  static constexpr int kN = 6;  // 3m + 2c + 1 with m = c = 1.
  static constexpr int kF = 1;  // m: the client needs m+1 matching.
  static constexpr sim::Duration kRetry = 500 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry* r) {
    seemore::SeeMoReOptions o;
    o.m = 1;
    o.c = 1;
    o.registry = r;
    return s->Spawn<Client>(o, kContractOps);
  }
};
struct RaftCase {
  using Client = raft::RaftClient;
  using Request = raft::RaftReplica::RequestMsg;
  using Reply = raft::RaftReplica::ReplyMsg;
  static constexpr int kN = 3;
  static constexpr sim::Duration kRetry = 300 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry*) {
    return s->Spawn<Client>(kN, kContractOps);
  }
};
struct MultiPaxosCase {
  using Client = paxos::MultiPaxosClient;
  using Request = paxos::MultiPaxosReplica::RequestMsg;
  using Reply = paxos::MultiPaxosReplica::ReplyMsg;
  static constexpr int kN = 3;
  static constexpr sim::Duration kRetry = 200 * kMillisecond;
  static Client* Spawn(sim::Simulation* s, const crypto::KeyRegistry*) {
    return s->Spawn<Client>(kN, kContractOps);
  }
};

/// Case::kN fake replicas at ids 0..kN-1 and one client, started, with
/// the first request landed.
template <typename Case>
class ClientContractTest : public testing::Test {
 protected:
  ClientContractTest()
      : registry_(1, 16),
        sim_(sim::Simulation::Builder(1).AutoStart(false).Build()) {
    for (int i = 0; i < Case::kN; ++i) {
      replicas_.push_back(
          sim_->template Spawn<FakeReplica<typename Case::Request>>());
    }
    client_ = Case::Spawn(sim_.get(), &registry_);
    sim_->Start();
    sim_->RunFor(kLand);
  }

  /// Replica `i` reports `result` for `seq` (Byzantine-fault replies).
  void Report(int i, uint64_t seq, const std::string& result,
              int64_t view = 0) {
    using Reply = typename Case::Reply;
    if constexpr (requires { &Reply::view; }) {
      replicas_[i]->Answer(client_->id(),
                           std::make_shared<Reply>(view, seq, i, result));
    } else {
      replicas_[i]->Answer(client_->id(),
                           std::make_shared<Reply>(seq, i, result));
    }
  }

  crypto::KeyRegistry registry_;
  std::unique_ptr<sim::Simulation> sim_;
  std::vector<FakeReplica<typename Case::Request>*> replicas_;
  typename Case::Client* client_ = nullptr;
};

template <typename Case>
class BftClientContractTest : public ClientContractTest<Case> {};
using BftCases = testing::Types<PbftCase, MinBftCase, XftCase, HotStuffCase,
                                CheapBftCase, SeeMoReCase>;
TYPED_TEST_SUITE(BftClientContractTest, BftCases);

TYPED_TEST(BftClientContractTest, FPlusOneMatchingRepliesCompleteExactlyOnce) {
  constexpr int kN = TypeParam::kN;
  constexpr int kF = TypeParam::kF;
  // f colluding replicas forge a result; a correct one repeats itself.
  for (int i = 0; i < kF; ++i) this->Report(kN - 1 - i, 1, "forged");
  this->Report(0, 1, "1");
  this->Report(0, 1, "1");
  this->sim_->RunFor(kLand);
  EXPECT_EQ(this->client_->completed(), 0);
  // f matching replies are not enough either.
  for (int i = 1; i < kF; ++i) this->Report(i, 1, "1");
  this->sim_->RunFor(kLand);
  EXPECT_EQ(this->client_->completed(), 0);
  // The (f+1)-th completes the op, once: late matches change nothing.
  this->Report(kF, 1, "1");
  this->sim_->RunFor(kLand);
  EXPECT_EQ(this->client_->completed(), 1);
  for (int i = kF + 1; i < kN - kF; ++i) this->Report(i, 1, "1");
  this->sim_->RunFor(kLand);
  EXPECT_EQ(this->client_->completed(), 1);
  EXPECT_EQ(this->client_->results(), std::vector<std::string>{"1"});
  int next = 0;
  for (const auto* r : this->replicas_) next += r->Count(2);
  EXPECT_GT(next, 0) << "the next op was not sent";
}

TYPED_TEST(BftClientContractTest, RetryReachesEveryReplica) {
  // Nobody answers: one retry period later every replica holds the
  // request, each copy signed by the client and carrying no ack.
  this->sim_->RunFor(TypeParam::kRetry);
  for (const auto* r : this->replicas_) {
    EXPECT_GE(r->Count(1), 1) << "replica " << r->id();
    ASSERT_EQ(r->sigs.size(), r->requests.size());
    for (size_t i = 0; i < r->requests.size(); ++i) {
      const smr::Command& cmd = r->requests[i];
      EXPECT_EQ(cmd.client, this->client_->id());
      EXPECT_EQ(cmd.op, "INC x");
      EXPECT_EQ(cmd.acked, 0u);
      EXPECT_EQ(r->sigs[i].signer, this->client_->id());
      EXPECT_TRUE(this->registry_.Verify(r->sigs[i], cmd.Hash()));
    }
  }
  EXPECT_EQ(this->client_->completed(), 0);
}

template <typename Case>
class ViewClientContractTest : public ClientContractTest<Case> {};
using ViewCases = testing::Types<PbftCase, MinBftCase, XftCase>;
TYPED_TEST_SUITE(ViewClientContractTest, ViewCases);

TYPED_TEST(ViewClientContractTest, ReplyViewSteersNextRequest) {
  constexpr int kN = TypeParam::kN;
  ASSERT_EQ(this->replicas_[0]->Count(1), 1);
  // The replies name view n+2, whose primary is member 2.
  for (int i = 0; i <= TypeParam::kF; ++i) this->Report(i, 1, "1", kN + 2);
  this->sim_->RunFor(kLand);
  ASSERT_EQ(this->client_->completed(), 1);
  for (const auto* r : this->replicas_) {
    EXPECT_EQ(r->Count(2), r->id() == 2 ? 1 : 0) << "replica " << r->id();
  }
}

template <typename Case>
class CftClientContractTest : public ClientContractTest<Case> {
 protected:
  void Answer(int i, uint64_t seq, const std::string& result,
              sim::NodeId hint) {
    this->replicas_[i]->Answer(
        this->client_->id(),
        std::make_shared<typename Case::Reply>(seq, result, hint));
  }
};
using CftCases = testing::Types<RaftCase, MultiPaxosCase>;
TYPED_TEST_SUITE(CftClientContractTest, CftCases);

TYPED_TEST(CftClientContractTest, RedirectSteersToLeaderHint) {
  auto& r = this->replicas_;
  ASSERT_EQ(r[0]->Count(1), 1);
  EXPECT_EQ(r[0]->requests[0].acked, 0u);
  // Hints naming the sender or a non-member are ignored.
  this->Answer(0, 1, smr::kRedirect, 0);
  this->Answer(0, 1, smr::kRedirect, TypeParam::kN);
  this->sim_->RunFor(kLand);
  EXPECT_EQ(r[0]->Count(1) + r[1]->Count(1) + r[2]->Count(1), 1);
  // A redirect to member 2 re-sends there at once.
  this->Answer(0, 1, smr::kRedirect, 2);
  this->sim_->RunFor(kLand);
  EXPECT_EQ(r[1]->Count(1), 0);
  ASSERT_EQ(r[2]->Count(1), 1);
  // One reply completes the op; the next sticks to the member that
  // answered and acknowledges every earlier reply.
  this->Answer(2, 1, "1", 2);
  this->sim_->RunFor(kLand);
  EXPECT_EQ(this->client_->completed(), 1);
  ASSERT_EQ(r[2]->Count(2), 1);
  EXPECT_EQ(r[2]->requests.back().acked, 1u);
  EXPECT_EQ(r[0]->Count(2) + r[1]->Count(2), 0);
}

TYPED_TEST(CftClientContractTest, RetryMovesToNextMember) {
  auto& r = this->replicas_;
  this->sim_->RunFor(TypeParam::kRetry);
  EXPECT_EQ(r[1]->Count(1), 1);
  EXPECT_EQ(r[2]->Count(1), 0);
  this->sim_->RunFor(TypeParam::kRetry);
  EXPECT_EQ(r[2]->Count(1), 1);
  EXPECT_EQ(r[0]->Count(1), 1);
  EXPECT_EQ(this->client_->completed(), 0);
}

}  // namespace
}  // namespace consensus40
