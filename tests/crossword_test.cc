// Crossword protocol tests (src/paxos/crossword.{h,cc}): erasure-coded
// accepts with follower-side reconstruction, the adaptive assignment
// controller under the bandwidth model, stall escalation back to full
// copies, and recovery across leader crashes and snapshot installs.

#include "paxos/crossword.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consensus/replica_group.h"
#include "sim/simulation.h"
#include "smr/command.h"

namespace consensus40::paxos {
namespace {

using consensus::GroupClient;
using consensus::GroupTuning;
using consensus::ReplicaGroup;
using sim::kMillisecond;
using sim::kSecond;

CrosswordReplica* Replica(sim::Simulation* sim, sim::NodeId id) {
  auto* r = dynamic_cast<CrosswordReplica*>(sim->process(id));
  EXPECT_NE(r, nullptr);
  return r;
}

/// Drives `ops` PUTs of `value_size`-byte values through a fresh group.
struct Harness {
  std::unique_ptr<ReplicaGroup> group;
  std::unique_ptr<sim::Simulation> sim;
  GroupClient* client = nullptr;
  std::vector<std::string> results;

  Harness(const std::string& protocol, int replicas, uint64_t seed,
          double bytes_per_ms = 0.0, GroupTuning tuning = {}) {
    group = consensus::MakeGroup(protocol);
    EXPECT_NE(group, nullptr);
    group->Configure(tuning);
    auto builder = sim::Simulation::Builder(seed).Setup(
        [&](sim::Simulation& s) {
          group->Create(&s, replicas);
          client = s.Spawn<GroupClient>(group.get());
        });
    if (bytes_per_ms > 0) builder.Bandwidth(bytes_per_ms);
    sim = builder.Build();
    client->SetCallback([this](uint64_t, const std::string& result, bool) {
      results.push_back(result);
    });
    sim->RunFor(500 * kMillisecond);  // Leader election settles.
  }

  bool RunOps(int ops, size_t value_size, sim::Duration limit = 30 * kSecond) {
    const size_t before = results.size();
    for (int i = 0; i < ops; ++i) {
      client->Submit("PUT k" + std::to_string(i % 4) + " " +
                     std::string(value_size, 'a' + static_cast<char>(i % 26)));
    }
    return sim->RunUntil(
        [&] { return results.size() >= before + static_cast<size_t>(ops); },
        sim->now() + limit);
  }

  CrosswordReplica* Leader() {
    sim::NodeId hint = group->LeaderHint();
    return hint == sim::kInvalidNode ? nullptr : Replica(sim.get(), hint);
  }

  /// Every two replicas list the commands both still hold in the same
  /// order (a checkpoint truncates each log at its own slot, so only the
  /// overlap compares; the apply ledger checked the rest), some replica
  /// holds at least `min_committed`, and nothing was reported.
  void ExpectConsistentAndClean(size_t min_committed) {
    std::vector<std::vector<smr::Command>> prefixes;
    for (size_t i = 0; i < group->members().size(); ++i) {
      prefixes.push_back(group->CommittedPrefix(static_cast<int>(i)));
    }
    size_t longest = 0;
    for (size_t i = 0; i < prefixes.size(); ++i) {
      longest = std::max(longest, prefixes[i].size());
      for (size_t j = i + 1; j < prefixes.size(); ++j) {
        EXPECT_EQ(Shared(prefixes[i], prefixes[j]),
                  Shared(prefixes[j], prefixes[i]))
            << "replicas " << i << " and " << j << " diverge";
      }
    }
    EXPECT_GE(longest, min_committed);
    EXPECT_TRUE(group->Violations().empty()) << group->Violations()[0];
  }

  /// The commands of `a` that `b` also holds, in a's order.
  static std::vector<smr::Command> Shared(const std::vector<smr::Command>& a,
                                          const std::vector<smr::Command>& b) {
    std::set<std::pair<int32_t, uint64_t>> in_b;
    for (const smr::Command& cmd : b) in_b.emplace(cmd.client, cmd.client_seq);
    std::vector<smr::Command> out;
    for (const smr::Command& cmd : a) {
      if (in_b.count({cmd.client, cmd.client_seq}) > 0) out.push_back(cmd);
    }
    return out;
  }
};

// Fixed single-shard assignment (RS-Paxos-like): every follower acks a
// one-shard window, commits happen at q2(1) = n, and every follower must
// apply via reconstruction — it never sees the full payload in an accept.
TEST(CrosswordTest, RsModeCommitsViaReconstruction) {
  Harness h("crossword_rs", 5, 21);
  ASSERT_TRUE(h.RunOps(8, 600));
  h.sim->RunFor(2 * kSecond);  // Let follower pulls finish.
  h.ExpectConsistentAndClean(8);
  int recon = 0;
  for (sim::NodeId id : h.group->members()) {
    CrosswordReplica* r = Replica(h.sim.get(), id);
    if (!r->IsLeader()) recon += r->reconstructions();
  }
  // Four followers, eight 600-byte entries: every follower slot applied
  // through shard assembly.
  EXPECT_GE(recon, 8);
}

// The adaptive controller starts at full copies and must slide to
// minimal shards once large payloads queue up the leader's finite-
// bandwidth egress port — and stay at full copies for small commands.
TEST(CrosswordTest, AdaptiveControllerSlidesWithPayloadAndBacklog) {
  {
    Harness h("crossword", 5, 33, /*bytes_per_ms=*/200.0);
    ASSERT_TRUE(h.RunOps(12, 4096, 120 * kSecond));
    CrosswordReplica* leader = h.Leader();
    ASSERT_NE(leader, nullptr);
    EXPECT_LT(leader->current_shards(), 3)
        << "controller never slid down under a congested egress";
    h.sim->RunFor(2 * kSecond);
    h.ExpectConsistentAndClean(12);
  }
  {
    Harness h("crossword", 5, 33, /*bytes_per_ms=*/200.0);
    ASSERT_TRUE(h.RunOps(12, 16, 120 * kSecond));
    CrosswordReplica* leader = h.Leader();
    ASSERT_NE(leader, nullptr);
    EXPECT_EQ(leader->current_shards(), 3)
        << "small commands must stay on the classic full-copy path";
    for (sim::NodeId id : h.group->members()) {
      EXPECT_EQ(Replica(h.sim.get(), id)->reconstructions(), 0);
    }
  }
}

// With two followers down, a one-shard round's q2(1) = 5 can never be
// met: the stall timer must escalate in-flight slots to full copies
// (q2 = majority = 3) so the group stays live.
TEST(CrosswordTest, StallEscalationKeepsShardedConfigLive) {
  Harness h("crossword_rs", 5, 55);
  // Crash two non-leader members.
  CrosswordReplica* leader = h.Leader();
  ASSERT_NE(leader, nullptr);
  int crashed = 0;
  for (sim::NodeId id : h.group->members()) {
    if (id != leader->id() && crashed < 2) {
      h.sim->Crash(id);
      ++crashed;
    }
  }
  ASSERT_TRUE(h.RunOps(4, 600, 60 * kSecond));
  leader = h.Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GT(leader->escalations(), 0);
  h.ExpectConsistentAndClean(4);
}

// Leader crash with commits in flight: the new leader must reassemble
// possibly-chosen sharded entries from promise fragments (or prove them
// unchosen) and the client's retries must land exactly once.
TEST(CrosswordTest, LeaderCrashMidFlightRecoversExactlyOnce) {
  for (uint64_t seed : {3u, 17u, 29u, 41u}) {
    Harness h("crossword_rs", 5, seed);
    CrosswordReplica* leader = h.Leader();
    ASSERT_NE(leader, nullptr);
    const sim::NodeId old_leader = leader->id();
    // Queue INCs (queued client-side; the window trickles them out) and
    // kill the leader while they replicate.
    for (int i = 0; i < 6; ++i) h.client->Submit("INC x");
    h.sim->RunFor(6 * kMillisecond);  // Some accepts/commits in flight.
    h.sim->Crash(old_leader);
    ASSERT_TRUE(h.sim->RunUntil([&] { return h.results.size() >= 6; },
                                h.sim->now() + 60 * kSecond))
        << "seed " << seed;
    h.sim->Restart(old_leader);
    h.sim->RunFor(3 * kSecond);
    // Exactly-once: INC results are a permutation of 1..6.
    std::vector<int> values;
    for (const std::string& r : h.results) values.push_back(std::stoi(r));
    std::sort(values.begin(), values.end());
    for (int i = 0; i < 6; ++i) {
      ASSERT_EQ(values[static_cast<size_t>(i)], i + 1) << "seed " << seed;
    }
    h.ExpectConsistentAndClean(6);
  }
}

// A follower that misses checkpoint-truncated history is re-based by
// snapshot install, and keeps applying sharded entries afterwards.
TEST(CrosswordTest, SnapshotInstallRebasesLaggard) {
  GroupTuning tuning;
  tuning.snapshot_threshold = 8;
  Harness h("crossword_rs", 5, 77, 0.0, tuning);
  CrosswordReplica* leader = h.Leader();
  ASSERT_NE(leader, nullptr);
  sim::NodeId follower = sim::kInvalidNode;
  for (sim::NodeId id : h.group->members()) {
    if (id != leader->id()) follower = id;
  }
  h.sim->Crash(follower);
  ASSERT_TRUE(h.RunOps(30, 400, 120 * kSecond));
  h.sim->Restart(follower);
  h.sim->RunFor(5 * kSecond);
  CrosswordReplica* lagger = Replica(h.sim.get(), follower);
  EXPECT_GE(lagger->snapshots_installed(), 1)
      << "laggard caught up without a snapshot";
  // Checkpoints leave each log a few slots, so state shows the catch-up:
  // the laggard holds the freshest value of every key written.
  h.ExpectConsistentAndClean(0);
  for (int k = 0; k < 4; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_TRUE(lagger->kv().Get(key).has_value()) << key;
    EXPECT_EQ(lagger->kv().Get(key), h.group->FreshestKv().Get(key)) << key;
  }
}

// Shard sets must never leak into committed state: followers reconstruct
// the ORIGINAL command before applying, so every replica executes the
// client's own PUTs byte for byte.
TEST(CrosswordTest, ShardFramesNeverLeakIntoCommittedState) {
  Harness h("crossword_rs", 5, 91);
  ASSERT_TRUE(h.RunOps(6, 700));
  h.sim->RunFor(2 * kSecond);
  for (size_t i = 0; i < h.group->members().size(); ++i) {
    for (const smr::Command& cmd :
         h.group->CommittedPrefix(static_cast<int>(i))) {
      EXPECT_EQ(cmd.client, h.client->id()) << cmd.ToString();
      EXPECT_EQ(cmd.op.rfind("PUT k", 0), 0u) << cmd.ToString();
      EXPECT_EQ(cmd.op.size(), 7u + 700u) << cmd.ToString();
    }
  }
  h.ExpectConsistentAndClean(6);
}

}  // namespace
}  // namespace consensus40::paxos
