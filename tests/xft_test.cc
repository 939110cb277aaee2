#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "xft/xft.h"

namespace consensus40::xft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct XftCluster {
  explicit XftCluster(int n, uint64_t seed = 1)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, n + 8) {
    XftOptions opts;
    opts.n = n;
    opts.registry = &registry;
    for (int i = 0; i < n; ++i) {
      replicas.push_back(sim.Spawn<XftReplica>(opts));
    }
  }

  XftClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(sim.Spawn<XftClient>(
        static_cast<int>(replicas.size()), &registry, ops, key));
    return clients.back();
  }

  void CheckSafety() const {
    for (size_t a = 0; a < replicas.size(); ++a) {
      for (size_t b = a + 1; b < replicas.size(); ++b) {
        const auto& ca = replicas[a]->executed_commands();
        const auto& cb = replicas[b]->executed_commands();
        size_t overlap = std::min(ca.size(), cb.size());
        for (size_t i = 0; i < overlap; ++i) {
          ASSERT_TRUE(ca[i] == cb[i])
              << "replicas " << a << "," << b << " diverge at " << i;
        }
      }
    }
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  std::vector<XftReplica*> replicas;
  std::vector<XftClient*> clients;
};

TEST(AnarchyPredicateTest, MatchesDeckDefinition) {
  // n = 5 (f = 2): safe while c+m+p <= 2 or m == 0.
  EXPECT_FALSE(InAnarchy(5, 0, 0, 0));
  EXPECT_FALSE(InAnarchy(5, 2, 0, 0));
  EXPECT_FALSE(InAnarchy(5, 5, 0, 0));  // Pure crashes never cause anarchy.
  EXPECT_FALSE(InAnarchy(5, 1, 1, 0));  // c+m = 2 <= floor(4/2).
  EXPECT_TRUE(InAnarchy(5, 2, 1, 0));   // 3 > 2 and m > 0.
  EXPECT_TRUE(InAnarchy(5, 0, 3, 0));
  EXPECT_TRUE(InAnarchy(5, 1, 1, 1));   // Partitioned nodes count.
  EXPECT_FALSE(InAnarchy(5, 0, 0, 5));  // No Byzantine => no anarchy.
}

TEST(XftTest, CommonCaseCommitsWithinSyncGroup) {
  XftCluster cluster(5);  // f = 2; sg = {0,1,2}.
  XftClient* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.CheckSafety();
  // Prepares only went to the synchronous group (f+1 targets per request).
  uint64_t prepares = cluster.sim.stats().sent_by_type.at("xft-prepare");
  EXPECT_LE(prepares, 10u * 3u + 6u);
}

TEST(XftTest, PassiveReplicasLearnLazily) {
  XftCluster cluster(5);
  XftClient* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  for (const XftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->executed(), 10u) << r->id();
    EXPECT_EQ(*r->kv().Get("x"), "10") << r->id();
  }
}

TEST(XftTest, PaxosGradeMessageCost) {
  // XFT's selling point: crash-tolerant cost for Byzantine-grade faults.
  // Messages per request stay linear in the group size, not n^2.
  XftCluster cluster(5);
  XftClient* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  uint64_t proto = cluster.sim.stats().sent_by_type.at("xft-prepare") +
                   cluster.sim.stats().sent_by_type.at("xft-commit");
  // Per request: 3 prepares + 2 followers x 3 commits = 9; allow slack.
  EXPECT_LE(proto / 10.0, 12.0);
}

TEST(XftTest, SyncGroupMemberCrashTriggersViewChange) {
  XftCluster cluster(5);
  XftClient* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  // Crash a follower inside sg(0) = {0,1,2}.
  cluster.sim.Crash(1);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  // The view moved to a group that excludes the crashed node... or at
  // least past view 0.
  int moved = 0;
  for (const XftReplica* r : cluster.replicas) {
    if (r->id() != 1 && r->view() > 0) ++moved;
  }
  EXPECT_GE(moved, 3);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(XftTest, LeaderCrashTriggersViewChange) {
  XftCluster cluster(5);
  XftClient* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  cluster.sim.Crash(0);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(XftTest, SmallestClusterWorks) {
  XftCluster cluster(3);  // f = 1; sg = {0,1}.
  XftClient* client = cluster.AddClient(8);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.CheckSafety();
}

// Two of five replicas crash after op 2 of a 12-op client, for each of
// the ten pairs. Views once cycled through the n windows {v, ..., v+f}
// mod n only, so when the crashed pair was not adjacent every group held
// one of them and the client never finished.
class XftCrashPairTest
    : public testing::TestWithParam<std::pair<sim::NodeId, sim::NodeId>> {};

TEST_P(XftCrashPairTest, ClientFinishesWithTwoReplicasDown) {
  const auto [a, b] = GetParam();
  XftCluster cluster(5);
  XftClient* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 2; },
                                   30 * kSecond));
  cluster.sim.Crash(a);
  cluster.sim.Crash(b);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

std::vector<std::pair<sim::NodeId, sim::NodeId>> AllPairs() {
  std::vector<std::pair<sim::NodeId, sim::NodeId>> pairs;
  for (sim::NodeId a = 0; a < 5; ++a) {
    for (sim::NodeId b = a + 1; b < 5; ++b) pairs.push_back({a, b});
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, XftCrashPairTest, testing::ValuesIn(AllPairs()),
    [](const testing::TestParamInfo<std::pair<sim::NodeId, sim::NodeId>>& i) {
      return std::to_string(i.param.first) + "_" +
             std::to_string(i.param.second);
    });

}  // namespace
}  // namespace consensus40::xft
