// Raft membership reconfiguration — the deck's "Group Membership" entry in
// the equivalent-problems slide: configuration changes flow through the
// same replicated log as ordinary commands (single-server-change rule,
// effective when appended).

#include <gtest/gtest.h>

#include <vector>
#include <memory>

#include "raft/raft.h"
#include "sim/simulation.h"

namespace consensus40::raft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct World {
  explicit World(uint64_t seed = 1) : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner) {}

  RaftReplica* SpawnReplica(const std::vector<sim::NodeId>& config,
                            bool passive, uint64_t snapshot_threshold = 0) {
    RaftOptions opts;
    opts.n = static_cast<int>(config.size());
    opts.initial_config = config;
    opts.join_passive = passive;
    opts.snapshot_threshold = snapshot_threshold;
    replicas.push_back(sim.Spawn<RaftReplica>(opts));
    return replicas.back();
  }

  RaftReplica* Leader() {
    for (RaftReplica* r : replicas) {
      if (r->IsLeader() && !sim.IsCrashed(r->id())) return r;
    }
    return nullptr;
  }

  bool WaitForLeader() {
    return sim.RunUntil([&] { return Leader() != nullptr; }, 30 * kSecond);
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  std::vector<RaftReplica*> replicas;
};

TEST(RaftMembershipTest, GrowThreeToFive) {
  World w;
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  // The two future members exist from the start but stay passive.
  std::vector<sim::NodeId> full = {0, 1, 2, 3, 4};
  w.SpawnReplica(initial, true);  // id 3: passive until contacted.
  w.SpawnReplica(initial, true);  // id 4.
  auto* client = w.sim.Spawn<RaftClient>(3, 20);
  w.sim.Start();

  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 5; },
                             60 * kSecond));
  // Add servers one at a time (the single-server-change rule).
  ASSERT_TRUE(w.WaitForLeader());
  ASSERT_TRUE(w.Leader()->ChangeConfig({0, 1, 2, 3}).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr && leader->config().size() == 4 &&
               leader->commit_index() > 0 &&
               leader->ChangeConfig({0, 1, 2, 3, 4}).ok();
      },
      60 * kSecond));

  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  w.sim.RunFor(2 * kSecond);
  // All five replicas converged on the config and the data.
  for (RaftReplica* r : w.replicas) {
    EXPECT_EQ(r->config().size(), 5u) << r->id();
    EXPECT_EQ(*r->kv().Get("x"), "20") << r->id();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
}

TEST(RaftMembershipTest, GrownClusterUsesNewMajority) {
  // After growing 3 -> 5, two crashes must still be tolerated (the old
  // 3-node cluster would have stalled).
  World w(3);
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  w.SpawnReplica(initial, true);
  w.SpawnReplica(initial, true);
  auto* client = w.sim.Spawn<RaftClient>(5, 25);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 3; },
                             60 * kSecond));
  ASSERT_TRUE(w.WaitForLeader());
  ASSERT_TRUE(w.Leader()->ChangeConfig({0, 1, 2, 3}).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr &&
               leader->ChangeConfig({0, 1, 2, 3, 4}).ok();
      },
      60 * kSecond));
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 10; },
                             120 * kSecond));
  // Kill two of the ORIGINAL members.
  sim::NodeId leader_id = w.Leader()->id();
  int killed = 0;
  for (sim::NodeId victim : {0, 1, 2}) {
    if (victim != leader_id && killed < 2) {
      w.sim.Crash(victim);
      ++killed;
    }
  }
  if (killed < 2) w.sim.Crash(leader_id);
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(RaftMembershipTest, RemoveServerShrinksQuorum) {
  World w(5);
  std::vector<sim::NodeId> initial = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) w.SpawnReplica(initial, false);
  auto* client = w.sim.Spawn<RaftClient>(5, 20);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 3; },
                             60 * kSecond));
  // Remove two followers, one at a time.
  ASSERT_TRUE(w.WaitForLeader());
  sim::NodeId leader_id = w.Leader()->id();
  std::vector<sim::NodeId> still = initial;
  std::vector<sim::NodeId> removed;
  for (sim::NodeId candidate : initial) {
    if (candidate != leader_id && removed.size() < 2) {
      removed.push_back(candidate);
    }
  }
  std::vector<sim::NodeId> after_first;
  for (sim::NodeId m : initial) {
    if (m != removed[0]) after_first.push_back(m);
  }
  std::vector<sim::NodeId> after_second;
  for (sim::NodeId m : after_first) {
    if (m != removed[1]) after_second.push_back(m);
  }
  ASSERT_TRUE(w.Leader()->ChangeConfig(after_first).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr && leader->ChangeConfig(after_second).ok();
      },
      60 * kSecond));
  // The removed servers can even be shut off entirely.
  w.sim.Crash(removed[0]);
  w.sim.Crash(removed[1]);
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  // The survivors agree on the 3-member config.
  for (sim::NodeId m : after_second) {
    EXPECT_EQ(w.replicas[m]->config().size(), 3u) << m;
  }
}

TEST(RaftMembershipTest, OnlyOneChangeInFlight) {
  World w(7);
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  w.SpawnReplica(initial, true);
  w.sim.Start();
  ASSERT_TRUE(w.WaitForLeader());
  RaftReplica* leader = w.Leader();
  ASSERT_TRUE(leader->ChangeConfig({0, 1, 2, 3}).ok());
  // Immediately trying another change must fail until the first commits.
  EXPECT_TRUE(leader->ChangeConfig({0, 1, 2}).IsFailedPrecondition());
  // Non-leaders cannot reconfigure.
  for (RaftReplica* r : w.replicas) {
    if (r != leader) {
      EXPECT_TRUE(r->ChangeConfig({0, 1}).IsFailedPrecondition());
    }
  }
  EXPECT_TRUE(leader->ChangeConfig({}).IsInvalidArgument());
}

/// `from` without `drop`.
std::vector<sim::NodeId> Without(const std::vector<sim::NodeId>& from,
                                 sim::NodeId drop) {
  std::vector<sim::NodeId> out;
  for (sim::NodeId m : from) {
    if (m != drop) out.push_back(m);
  }
  return out;
}

uint64_t LogEnd(const RaftReplica* r) {
  return r->log_start() + r->raft_log().size();
}

TEST(RaftMembershipTest, TruncationDropsAStrandedConfigChange) {
  // A leader cut off with one follower appends a config change that can
  // never commit. The majority elects a new leader and commits a write in
  // that slot; on heal the follower's suffix is truncated, and with it
  // the stranded change: its configuration is the new leader's again.
  World w(11);
  const std::vector<sim::NodeId> initial = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) w.SpawnReplica(initial, false);
  auto* warmup = w.sim.Spawn<RaftClient>(5, 3);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return warmup->done(); }, 60 * kSecond));
  w.sim.RunFor(kSecond);  // Every follower learns the commit index.
  RaftReplica* old_leader = w.Leader();
  ASSERT_NE(old_leader, nullptr);
  std::vector<sim::NodeId> majority = Without(initial, old_leader->id());
  RaftReplica* follower = w.replicas[majority.front()];
  majority.erase(majority.begin());
  w.sim.Partition({{old_leader->id(), follower->id()}, majority});

  // Removing a majority-side member needs 3 acks of 4; this side has 2.
  const std::vector<sim::NodeId> stranded = Without(initial, majority.back());
  ASSERT_TRUE(old_leader->ChangeConfig(stranded).ok());
  const uint64_t stranded_end = LogEnd(old_leader);
  w.sim.RunFor(200 * kMillisecond);
  EXPECT_EQ(follower->config(), stranded);
  EXPECT_EQ(LogEnd(follower), stranded_end);
  EXPECT_LT(old_leader->commit_index(), stranded_end);

  auto majority_leader = [&]() -> RaftReplica* {
    for (sim::NodeId m : majority) {
      if (w.replicas[m]->IsLeader()) return w.replicas[m];
    }
    return nullptr;
  };
  ASSERT_TRUE(w.sim.RunUntil([&] { return majority_leader() != nullptr; },
                             w.sim.now() + 30 * kSecond));
  // A client on the majority side writes into the stranded slot.
  auto* writer = w.sim.Spawn<RaftClient>(5, 1, "y");
  w.sim.Start();
  std::vector<sim::NodeId> majority_side = majority;
  majority_side.push_back(writer->id());
  w.sim.Partition({{old_leader->id(), follower->id()}, majority_side});
  ASSERT_TRUE(w.sim.RunUntil([&] { return writer->done(); },
                             w.sim.now() + 60 * kSecond));
  RaftReplica* new_leader = majority_leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_GE(new_leader->commit_index(), stranded_end);
  EXPECT_EQ(new_leader->config(), initial);

  w.sim.Heal();
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return follower->commit_index() >= stranded_end; },
      w.sim.now() + 30 * kSecond));
  EXPECT_EQ(follower->config(), new_leader->config());
  for (const RaftReplica::LogEntry& entry : follower->raft_log()) {
    EXPECT_EQ(entry.value.config(), nullptr);
  }
  EXPECT_TRUE(follower->violations().empty());
}

TEST(RaftMembershipTest, SnapshotInstallCarriesACommittedConfigChange) {
  // A follower that was down while a config change committed and was
  // compacted away learns the configuration from the snapshot it
  // installs: no log entry it receives carries it.
  World w(13);
  const std::vector<sim::NodeId> initial = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    w.SpawnReplica(initial, false, /*snapshot_threshold=*/4);
  }
  auto* client = w.sim.Spawn<RaftClient>(5, 30);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 3; },
                             60 * kSecond));
  ASSERT_TRUE(w.WaitForLeader());
  RaftReplica* leader = w.Leader();
  const std::vector<sim::NodeId> others = Without(initial, leader->id());
  RaftReplica* lagging = w.replicas[others[0]];
  w.sim.Crash(lagging->id());
  // Remove another follower (and stop it, so it cannot campaign).
  const std::vector<sim::NodeId> after = Without(initial, others[1]);
  ASSERT_TRUE(leader->ChangeConfig(after).ok());
  const uint64_t config_end = LogEnd(leader);
  w.sim.Crash(others[1]);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return client->done() && leader->log_start() >= config_end; },
      w.sim.now() + 120 * kSecond));
  EXPECT_EQ(lagging->config(), initial);

  w.sim.Restart(lagging->id());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        return lagging->snapshots_installed() > 0 &&
               lagging->commit_index() >= leader->commit_index();
      },
      w.sim.now() + 30 * kSecond));
  EXPECT_EQ(lagging->config(), after);
  EXPECT_EQ(lagging->config(), leader->config());
}

}  // namespace
}  // namespace consensus40::raft
