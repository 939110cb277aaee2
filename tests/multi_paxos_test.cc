#include <gtest/gtest.h>

#include <vector>
#include <memory>

#include "paxos/multi_paxos.h"
#include "sim/simulation.h"
#include "smr/state_machine.h"

namespace consensus40::paxos {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct MpCluster {
  explicit MpCluster(int n, uint64_t seed = 1,
                     MultiPaxosOptions base = MultiPaxosOptions())
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner) {
    base.n = n;
    for (int i = 0; i < n; ++i) {
      replicas.push_back(sim.Spawn<MultiPaxosReplica>(base));
    }
  }

  MultiPaxosClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(
        sim.Spawn<MultiPaxosClient>(static_cast<int>(replicas.size()), ops,
                                    key));
    return clients.back();
  }

  bool AllClientsDone() const {
    for (const MultiPaxosClient* c : clients) {
      if (!c->done()) return false;
    }
    return true;
  }

  void CheckSafety() const {
    std::vector<const smr::ReplicatedLog*> logs;
    for (const MultiPaxosReplica* r : replicas) logs.push_back(&r->log());
    EXPECT_EQ(smr::CheckPrefixConsistency(logs), "");
    for (const MultiPaxosReplica* r : replicas) {
      EXPECT_TRUE(r->violations().empty())
          << "replica " << r->id() << ": " << r->violations()[0];
    }
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  std::vector<MultiPaxosReplica*> replicas;
  std::vector<MultiPaxosClient*> clients;
};

TEST(MultiPaxosTest, ElectsSingleLeader) {
  MpCluster cluster(5);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        int leaders = 0;
        for (const MultiPaxosReplica* r : cluster.replicas) {
          leaders += r->IsLeader();
        }
        return leaders == 1;
      },
      5 * kSecond));
}

TEST(MultiPaxosTest, SingleClientCompletes) {
  MpCluster cluster(5);
  MultiPaxosClient* client = cluster.AddClient(20);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   30 * kSecond));
  // INC results are 1..20 in order: commands executed exactly once, in
  // client order (closed loop).
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.CheckSafety();
}

TEST(MultiPaxosTest, ManyClientsSerializeOnOneCounter) {
  MpCluster cluster(5);
  for (int i = 0; i < 4; ++i) cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return cluster.AllClientsDone(); },
                                   60 * kSecond));
  cluster.CheckSafety();
  // 40 INCs total: the counter on the leader's state machine reads 40.
  cluster.sim.RunFor(1 * kSecond);  // Let commits propagate.
  int max_counter = 0;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    auto v = r->kv().Get("x");
    if (v) max_counter = std::max(max_counter, std::stoi(*v));
  }
  EXPECT_EQ(max_counter, 40);
}

TEST(MultiPaxosTest, ReplicasConvergeToSameState) {
  MpCluster cluster(5);
  cluster.AddClient(15, "a");
  cluster.AddClient(15, "b");
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return cluster.AllClientsDone(); },
                                   60 * kSecond));
  cluster.sim.RunFor(2 * kSecond);  // Drain commit broadcasts.
  cluster.CheckSafety();
  // Every live replica applied the same prefix; with drained commits all
  // frontiers are equal and states identical.
  auto digest0 = cluster.replicas[0]->kv().StateDigest();
  for (const MultiPaxosReplica* r : cluster.replicas) {
    EXPECT_EQ(r->log().commit_frontier(), 30u) << "replica " << r->id();
    EXPECT_EQ(r->kv().StateDigest(), digest0) << "replica " << r->id();
  }
}

TEST(MultiPaxosTest, FailsOverOnLeaderCrash) {
  MpCluster cluster(5);
  MultiPaxosClient* client = cluster.AddClient(30);
  cluster.sim.Start();
  // Let the initial leader commit some entries, then kill it.
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 5; },
                                   30 * kSecond));
  sim::NodeId leader = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->IsLeader()) leader = r->id();
  }
  ASSERT_NE(leader, -1);
  cluster.sim.Crash(leader);

  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   120 * kSecond));
  cluster.CheckSafety();
  // Results still strictly sequential despite the failover (no lost or
  // doubly-applied increments).
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(MultiPaxosTest, CrashedLeaderRejoinsAsFollower) {
  MpCluster cluster(5);
  MultiPaxosClient* client = cluster.AddClient(20);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 5; },
                                   30 * kSecond));
  cluster.sim.Crash(0);
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 12; },
                                   60 * kSecond));
  cluster.sim.Restart(0);
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  // The restarted node catches up via commit broadcasts from the new leader.
  EXPECT_GT(cluster.replicas[0]->log().commit_frontier(), 0u);
}

TEST(MultiPaxosTest, MinorityPartitionCannotCommit) {
  MpCluster cluster(5);
  MultiPaxosClient* client = cluster.AddClient(50);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 5; },
                                   30 * kSecond));
  // Partition the current leader with one follower (minority side). The
  // client (spawned after replicas) goes to the majority side.
  sim::NodeId leader = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->IsLeader()) leader = r->id();
  }
  ASSERT_NE(leader, -1);
  std::vector<sim::NodeId> minority = {leader, (leader + 1) % 5};
  std::vector<sim::NodeId> majority;
  for (int i = 0; i < 5; ++i) {
    if (i != minority[0] && i != minority[1]) majority.push_back(i);
  }
  majority.push_back(client->id());
  cluster.sim.Partition({minority, majority});

  // The majority side elects a new leader and keeps committing.
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   240 * kSecond));
  cluster.sim.Heal();
  cluster.sim.RunFor(3 * kSecond);
  cluster.CheckSafety();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

// The deck's Multi-Paxos optimization: phase 1 only on leader change. The
// ablation (re-prepare per command) must agree on results but spend ~2 extra
// message delays and many more messages per command.
TEST(MultiPaxosAblationTest, RePreparePerCommandIsSlowerButSafe) {
  MultiPaxosOptions slow_opts;
  slow_opts.skip_phase1_when_stable = false;
  MpCluster slow(5, 1, slow_opts);
  MultiPaxosClient* slow_client = slow.AddClient(10);
  slow.sim.Start();
  ASSERT_TRUE(slow.sim.RunUntil([&] { return slow_client->done(); },
                                120 * kSecond));
  slow.CheckSafety();
  sim::Time slow_time = slow.sim.now();
  int slow_phase1 = 0;
  for (const MultiPaxosReplica* r : slow.replicas) {
    slow_phase1 += r->phase1_rounds();
  }

  MpCluster fast(5, 1);
  MultiPaxosClient* fast_client = fast.AddClient(10);
  fast.sim.Start();
  ASSERT_TRUE(fast.sim.RunUntil([&] { return fast_client->done(); },
                                120 * kSecond));
  fast.CheckSafety();
  sim::Time fast_time = fast.sim.now();
  int fast_phase1 = 0;
  for (const MultiPaxosReplica* r : fast.replicas) {
    fast_phase1 += r->phase1_rounds();
  }

  EXPECT_LT(fast_time, slow_time);
  EXPECT_LT(fast_phase1, slow_phase1);
  EXPECT_GE(slow_phase1, 10);  // At least one phase 1 per command.
  EXPECT_EQ(slow_client->results(), fast_client->results());
}

// Flexible Multi-Paxos: tiny replication quorum (q2=2) with large election
// quorum (q1=4) on n=5 — commits require only 2 acks yet stay safe across a
// leader change.
TEST(MultiPaxosFlexibleTest, SmallReplicationQuorumSurvivesLeaderChange) {
  MultiPaxosOptions opts;
  opts.q1 = 4;
  opts.q2 = 2;
  MpCluster cluster(5, 3, opts);
  MultiPaxosClient* client = cluster.AddClient(20);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 8; },
                                   30 * kSecond));
  sim::NodeId leader = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->IsLeader()) leader = r->id();
  }
  cluster.sim.Crash(leader);
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   240 * kSecond));
  cluster.CheckSafety();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

// Satellite regression: assigned-slot tracking must not leak. Every
// (client, seq) the leader assigns to a slot is erased again when the
// slot applies, so after a drained workload the map is empty on every
// replica — it is bounded by commands in flight, not commands ever run.
TEST(MultiPaxosBatchingTest, AssignedMapDrainsToEmpty) {
  MpCluster cluster(5);
  for (int i = 0; i < 3; ++i) cluster.AddClient(15);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return cluster.AllClientsDone(); },
                                   120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);  // Drain commits and applies.
  cluster.CheckSafety();
  for (const MultiPaxosReplica* r : cluster.replicas) {
    EXPECT_EQ(r->inflight_ops(), 0u) << "replica " << r->id();
  }
}

// Leader-side batching: several closed-loop clients synchronised by the
// linger timer produce multi-command entries, and the shared counter
// still counts every INC exactly once.
TEST(MultiPaxosBatchingTest, BatchedEntriesExecuteExactlyOnce) {
  MultiPaxosOptions opts;
  opts.batch_size = 3;
  opts.batch_delay = 5 * kMillisecond;
  MpCluster cluster(5, 4, opts);
  for (int i = 0; i < 4; ++i) cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return cluster.AllClientsDone(); },
                                   120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  int max_counter = 0, batches = 0;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    auto v = r->kv().Get("x");
    if (v) max_counter = std::max(max_counter, std::stoi(*v));
    batches += r->batches_cut();
  }
  EXPECT_EQ(max_counter, 40);
  EXPECT_GT(batches, 0) << "linger never produced a multi-command entry";
}

// Checkpoint truncation: with a checkpoint interval set, replicas fold
// their applied prefix into the state snapshot and drop the log slots,
// so retained-log size stays bounded while results stay exact.
TEST(MultiPaxosCheckpointTest, TruncatesAppliedPrefix) {
  MultiPaxosOptions opts;
  opts.checkpoint_interval = 10;
  MpCluster cluster(5, 1, opts);
  MultiPaxosClient* client = cluster.AddClient(40);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  int checkpoints = 0;
  uint64_t max_start = 0;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    checkpoints += r->checkpoints_taken();
    max_start = std::max(max_start, r->log().start());
    EXPECT_TRUE(r->violations().empty())
        << "replica " << r->id() << ": " << r->violations()[0];
  }
  EXPECT_GT(checkpoints, 0);
  EXPECT_GT(max_start, 0u) << "no replica ever truncated its log";
  // States converge even though the logs are now suffixes.
  auto digest0 = cluster.replicas[0]->kv().StateDigest();
  for (const MultiPaxosReplica* r : cluster.replicas) {
    EXPECT_EQ(r->kv().StateDigest(), digest0) << "replica " << r->id();
  }
}

// A follower that sleeps through a checkpoint cannot be caught up from
// the log (the entries are gone) — the leader ships a state snapshot
// with the dedup sessions, and the laggard rejoins at the frontier.
TEST(MultiPaxosCheckpointTest, LaggardBeyondTruncationInstallsSnapshot) {
  MultiPaxosOptions opts;
  opts.checkpoint_interval = 8;
  MpCluster cluster(5, 2, opts);
  MultiPaxosClient* client = cluster.AddClient(60);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 5; },
                                   30 * kSecond));
  sim::NodeId follower = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (!r->IsLeader()) follower = r->id();
  }
  ASSERT_NE(follower, -1);
  cluster.sim.Crash(follower);

  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->done(); },
                                   240 * kSecond));
  cluster.sim.Restart(follower);
  cluster.sim.RunFor(5 * kSecond);  // Heartbeat gap -> catch-up -> snapshot.

  MultiPaxosReplica* lagger = cluster.replicas[static_cast<size_t>(follower)];
  EXPECT_GE(lagger->snapshots_installed(), 1)
      << "laggard caught up without a snapshot despite truncation";
  auto v = lagger->kv().Get("x");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "60");
  for (const MultiPaxosReplica* r : cluster.replicas) {
    EXPECT_TRUE(r->violations().empty())
        << "replica " << r->id() << ": " << r->violations()[0];
  }
}

// A laggard that wins an election after the rest of the group has
// checkpoint-truncated past everything it holds must not be able to
// "choose" fresh commands at already-decided, truncated slots. The
// acceptors refuse its sub-frontier Accepts with a state snapshot; the
// stale leader installs it, re-bases its proposal cursor, and the
// workload finishes with exact (sequential) results instead of silently
// diverging from a stale state machine.
TEST(MultiPaxosCheckpointTest, StaleLeaderIsRefusedAtTruncatedSlots) {
  MultiPaxosOptions opts;
  opts.checkpoint_interval = 4;
  MpCluster cluster(3, 7, opts);
  MultiPaxosClient* client = cluster.AddClient(40);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  sim::NodeId leader = -1;
  sim::NodeId laggard = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->IsLeader()) {
      leader = r->id();
    } else {
      laggard = r->id();
    }
  }
  ASSERT_NE(leader, -1);
  ASSERT_NE(laggard, -1);
  MultiPaxosReplica* lag = cluster.replicas[static_cast<size_t>(laggard)];
  sim::NodeId follower = 3 - leader - laggard;  // The third replica.

  // Isolate the laggard while the majority keeps committing and
  // checkpointing until both peers truncated past everything it has.
  cluster.sim.Partition({{leader, follower, client->id()}, {laggard}});
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        if (client->completed() < 25) return false;
        for (sim::NodeId id : {leader, follower}) {
          if (cluster.replicas[static_cast<size_t>(id)]->log().start() <=
              lag->log().commit_frontier()) {
            return false;
          }
        }
        return true;
      },
      120 * kSecond));

  // Flip: laggard + up-to-date follower + client on one side, the old
  // leader alone on the other. The laggard's ballot counter ratcheted
  // through failed phase-1 retries all through its isolation, so it
  // out-bids the follower and wins the election — a leader whose
  // proposal cursor sits far below the group's truncation frontier.
  cluster.sim.Partition({{laggard, follower, client->id()}, {leader}});
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return lag->IsLeader(); }, 120 * kSecond));
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));

  EXPECT_GE(lag->snapshots_installed(), 1)
      << "stale leader was never pushed past the truncation frontier";
  // Exactly-once, in client order: the old blind-ACK path answers from a
  // stale state machine here and breaks the sequence.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  cluster.sim.Heal();
  cluster.sim.RunFor(5 * kSecond);
  cluster.CheckSafety();
  auto digest0 = cluster.replicas[0]->kv().StateDigest();
  for (const MultiPaxosReplica* r : cluster.replicas) {
    EXPECT_EQ(r->kv().StateDigest(), digest0) << "replica " << r->id();
  }
}

// A deposed leader must drop its proposer queues (mirroring Raft's
// BecomeFollower): commands it lingered or proposed without quorum are
// the new leader's to commit via client retries, and stale assigned_
// entries would otherwise suppress re-enqueueing forever if it ever led
// again.
TEST(MultiPaxosBatchingTest, DeposedLeaderDropsItsQueues) {
  MultiPaxosOptions opts;
  opts.batch_size = 4;
  opts.batch_delay = 50 * kMillisecond;
  MpCluster cluster(3, 5, opts);
  std::vector<MultiPaxosClient*> clients;
  for (int i = 0; i < 2; ++i) clients.push_back(cluster.AddClient(8));
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        return clients[0]->completed() + clients[1]->completed() >= 2;
      },
      30 * kSecond));
  sim::NodeId leader = -1;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->IsLeader()) leader = r->id();
  }
  ASSERT_NE(leader, -1);
  MultiPaxosReplica* old_leader = cluster.replicas[static_cast<size_t>(leader)];

  // Cut the leader off with the clients: it keeps accepting and
  // proposing their commands but can never reach quorum, so its
  // pending/assigned bookkeeping fills up.
  std::vector<sim::NodeId> rest;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    if (r->id() != leader) rest.push_back(r->id());
  }
  cluster.sim.Partition(
      {{leader, clients[0]->id(), clients[1]->id()}, rest});
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        return old_leader->inflight_ops() + old_leader->queued_ops() > 0;
      },
      60 * kSecond));

  // Flip: clients join the majority, which elects a new leader and
  // finishes the workload while the old leader sits alone.
  std::vector<sim::NodeId> majority = rest;
  majority.push_back(clients[0]->id());
  majority.push_back(clients[1]->id());
  cluster.sim.Partition({{leader}, majority});
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] { return clients[0]->done() && clients[1]->done(); },
      240 * kSecond));

  // Heal: the first higher-ballot heartbeat deposes the old leader, and
  // deposition clears every proposer queue and cancels its timers.
  cluster.sim.Heal();
  cluster.sim.RunFor(3 * kSecond);
  EXPECT_FALSE(old_leader->IsLeader());
  EXPECT_EQ(old_leader->queued_ops(), 0u);
  EXPECT_EQ(old_leader->inflight_ops(), 0u);
  cluster.CheckSafety();
  // Exactly-once across the failover: 16 INCs total, despite the old
  // leader having held (and dropped) some of them mid-flight.
  int max_counter = 0;
  for (const MultiPaxosReplica* r : cluster.replicas) {
    auto v = r->kv().Get("x");
    if (v) max_counter = std::max(max_counter, std::stoi(*v));
  }
  EXPECT_EQ(max_counter, 16);
}

TEST(MultiPaxosTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    MpCluster cluster(5, seed);
    MultiPaxosClient* client = cluster.AddClient(10);
    cluster.sim.Start();
    cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond);
    return cluster.sim.now();
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // Overwhelmingly likely.
}

}  // namespace
}  // namespace consensus40::paxos
