// The replica base the Byzantine-fault protocols share
// (smr::SignedReplica), checked through each of the seven protocols
// against a scripted client: a re-sent request for an op every replica
// already executed is answered by every replica with the cached result,
// and no replica applies the op a second time.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cheapbft/cheapbft.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "pbft/pbft.h"
#include "seemore/seemore.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/signed_replica.h"
#include "xft/xft.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40 {
namespace {

using sim::kSecond;

using RequestFactory = sim::MessagePtr (*)(const smr::Command&,
                                           const crypto::Signature&);

template <typename Request>
sim::MessagePtr MakeRequest(const smr::Command& cmd,
                            const crypto::Signature& sig) {
  return std::make_shared<Request>(cmd, sig);
}

/// Sends signed "INC x" requests to every replica when told to and records
/// each reply it gets.
class ScriptedClient : public sim::Process {
 public:
  struct Reply {
    sim::NodeId from;
    uint64_t client_seq;
    std::string result;
  };

  ScriptedClient(const crypto::KeyRegistry* registry, int n,
                 RequestFactory make_request)
      : registry_(registry), n_(n), make_request_(make_request) {}

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    if (const auto* m = dynamic_cast<const smr::SignedReplyMsg*>(&msg)) {
      replies.push_back({from, m->client_seq, m->result});
    } else if (const auto* m = dynamic_cast<
                   const zyzzyva::ZyzzyvaReplica::SpecResponseMsg*>(&msg)) {
      replies.push_back({from, m->client_seq, m->result});
    }
  }

  void SendToAll(uint64_t seq) {
    const smr::Command cmd{id(), seq, "INC x"};
    const crypto::Signature sig = registry_->Sign(id(), cmd.Hash());
    for (int i = 0; i < n_; ++i) Send(i, make_request_(cmd, sig));
  }

  std::vector<Reply> replies;

 private:
  const crypto::KeyRegistry* registry_;
  int n_;
  RequestFactory make_request_;
};

/// A replica group at ids 0..n-1 and how to build its requests.
struct Group {
  std::vector<const smr::SignedReplica*> replicas;
  RequestFactory make_request;
};

template <typename Replica, typename Options>
Group Spawn(sim::Simulation& sim, int n, const Options& options) {
  Group group{{}, &MakeRequest<typename Replica::RequestMsg>};
  for (int i = 0; i < n; ++i) {
    group.replicas.push_back(sim.Spawn<Replica>(options));
  }
  return group;
}

Group SpawnGroup(const std::string& name, sim::Simulation& sim,
                 const crypto::KeyRegistry* registry, crypto::Usig* usig) {
  if (name == "pbft") {
    pbft::PbftOptions o;
    o.registry = registry;
    return Spawn<pbft::PbftReplica>(sim, o.n, o);
  }
  if (name == "minbft") {
    minbft::MinBftOptions o;
    o.registry = registry;
    o.usig = usig;
    return Spawn<minbft::MinBftReplica>(sim, o.n, o);
  }
  if (name == "xft") {
    xft::XftOptions o;
    o.registry = registry;
    return Spawn<xft::XftReplica>(sim, o.n, o);
  }
  if (name == "hotstuff") {
    hotstuff::HotStuffOptions o;
    o.registry = registry;
    return Spawn<hotstuff::HotStuffReplica>(sim, o.n, o);
  }
  if (name == "cheapbft") {
    cheapbft::CheapBftOptions o;
    o.registry = registry;
    o.usig = usig;
    return Spawn<cheapbft::CheapBftReplica>(sim, 2 * o.f + 1, o);
  }
  if (name == "seemore") {
    seemore::SeeMoReOptions o;
    o.registry = registry;
    return Spawn<seemore::SeeMoReReplica>(sim, o.n(), o);
  }
  if (name == "zyzzyva") {
    zyzzyva::ZyzzyvaOptions o;
    o.registry = registry;
    return Spawn<zyzzyva::ZyzzyvaReplica>(sim, o.n, o);
  }
  ADD_FAILURE() << "unknown protocol " << name;
  return {};
}

class SignedReplicaContractTest : public testing::TestWithParam<const char*> {
};

TEST_P(SignedReplicaContractTest, RetryOfExecutedOpIsAnsweredFromCache) {
  crypto::KeyRegistry registry(1, 16);
  crypto::Usig usig(&registry);
  auto sim = sim::Simulation::Builder(1).AutoStart(false).Build();
  const Group group = SpawnGroup(GetParam(), *sim, &registry, &usig);
  const int n = static_cast<int>(group.replicas.size());
  auto* client = sim->Spawn<ScriptedClient>(&registry, n, group.make_request);
  sim->Start();
  auto expect_applied_once = [&] {
    for (const smr::SignedReplica* r : group.replicas) {
      EXPECT_EQ(r->executed_commands().size(), 1u) << "replica " << r->id();
      EXPECT_EQ(r->kv().Get("x"), "1") << "replica " << r->id();
    }
  };

  client->SendToAll(1);
  sim->RunFor(5 * kSecond);
  expect_applied_once();

  client->replies.clear();
  client->SendToAll(1);
  sim->RunFor(2 * kSecond);
  std::set<sim::NodeId> answered;
  for (const ScriptedClient::Reply& reply : client->replies) {
    EXPECT_EQ(reply.client_seq, 1u);
    EXPECT_EQ(reply.result, "1") << "replica " << reply.from;
    answered.insert(reply.from);
  }
  EXPECT_EQ(static_cast<int>(answered.size()), n);
  expect_applied_once();
}

const char* const kSignedProtocols[] = {"pbft",     "minbft",   "xft",
                                        "hotstuff", "cheapbft", "seemore",
                                        "zyzzyva"};

INSTANTIATE_TEST_SUITE_P(Protocols, SignedReplicaContractTest,
                         testing::ValuesIn(kSignedProtocols),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace consensus40
