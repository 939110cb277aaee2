// Tests for the consensus::ReplicaGroup facade and registry
// (src/consensus/), the Simulation::Builder construction path, and the
// Raft read-index read exposed through the group Read path. The
// round-trip test runs against EVERY registered protocol, so a protocol
// added to the registry is covered here with no new test code.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/replica_group.h"
#include "paxos/crossword.h"
#include "paxos/multi_paxos.h"
#include "raft/raft.h"
#include "sim/simulation.h"
#include "smr/command.h"

namespace consensus40::consensus {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(ReplicaGroupRegistryTest, BuiltinsAreRegistered) {
  std::vector<std::string> names = RegisteredGroupProtocols();
  EXPECT_NE(std::find(names.begin(), names.end(), "raft"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "multi_paxos"),
            names.end());
  EXPECT_EQ(MakeGroup("no_such_protocol"), nullptr);
}

TEST(ReplicaGroupRegistryTest, CustomFactoryRoundTrips) {
  RegisterGroupProtocol("raft_alias", [] { return NewRaftGroup(); });
  std::vector<std::string> names = RegisteredGroupProtocols();
  EXPECT_NE(std::find(names.begin(), names.end(), "raft_alias"),
            names.end());
  std::unique_ptr<ReplicaGroup> group = MakeGroup("raft_alias");
  ASSERT_NE(group, nullptr);
  EXPECT_STREQ(group->protocol(), "raft");  // The alias resolves to Raft.
}

/// Drives one registry-built group through writes and a linearizable
/// read, then checks client-visible results and replica agreement.
void RoundTrip(const std::string& name) {
  SCOPED_TRACE("protocol: " + name);
  std::unique_ptr<ReplicaGroup> group = MakeGroup(name);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(std::string(group->protocol()), name);

  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(42)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(group.get());
                 })
                 .Build();
  ASSERT_EQ(group->members().size(), 3u);

  std::map<uint64_t, std::string> results;
  client->SetCallback([&](uint64_t seq, const std::string& result, bool) {
    results[seq] = result;
  });
  sim->RunFor(500 * kMillisecond);  // Leader election settles.

  // The client serializes transmission, so the whole batch queues here.
  client->Submit("INC x");
  client->Submit("INC x");
  uint64_t last_write = client->Submit("INC x");
  uint64_t read = client->Read("x");
  ASSERT_TRUE(sim->RunUntil([&] { return results.count(read) > 0; },
                            sim->now() + 30 * kSecond));
  EXPECT_EQ(results[last_write], "3");
  EXPECT_EQ(results[read], "3");  // Linearizable: all prior INCs visible.

  // A leader hint, when present, names a member.
  sim::NodeId hint = group->LeaderHint();
  if (hint != sim::kInvalidNode) {
    EXPECT_NE(std::find(group->members().begin(), group->members().end(),
                        hint),
              group->members().end());
  }

  // Replica agreement: committed prefixes are pairwise consistent, and
  // all three INCs are committed somewhere.
  sim->RunFor(1 * kSecond);  // Let replication fan out.
  std::vector<std::vector<smr::Command>> prefixes;
  for (int i = 0; i < 3; ++i) prefixes.push_back(group->CommittedPrefix(i));
  size_t longest = 0;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    longest = std::max(longest, prefixes[i].size());
    for (size_t j = i + 1; j < prefixes.size(); ++j) {
      size_t common = std::min(prefixes[i].size(), prefixes[j].size());
      for (size_t k = 0; k < common; ++k) {
        EXPECT_EQ(prefixes[i][k], prefixes[j][k])
            << "replicas " << i << " and " << j << " diverge at " << k;
      }
    }
  }
  EXPECT_GE(longest, 3u);
  EXPECT_TRUE(group->Violations().empty());

  if (name == "raft") {
    // Raft's dedicated read path (read-index): the read must NOT appear
    // in the replicated log — it was served by leadership confirmation,
    // not by a consensus round.
    for (const auto& prefix : prefixes) {
      for (const smr::Command& cmd : prefix) {
        EXPECT_NE(cmd.op.rfind("GET", 0), 0u)
            << "raft read went through the log: " << cmd.ToString();
      }
    }
  } else if (name == "multi_paxos") {
    // The default Read path routes through the log as a GET command.
    bool saw_get = false;
    for (const auto& prefix : prefixes) {
      for (const smr::Command& cmd : prefix) {
        saw_get |= cmd.op.rfind("GET", 0) == 0;
      }
    }
    EXPECT_TRUE(saw_get);
  }
}

TEST(ReplicaGroupTest, RoundTripEveryRegisteredProtocol) {
  for (const std::string& name : RegisteredGroupProtocols()) {
    if (name == "raft_alias") continue;  // Registered by the test above.
    RoundTrip(name);
  }
}

TEST(ReplicaGroupTest, RaftReadIndexServesReadsWithoutLogEntries) {
  std::unique_ptr<ReplicaGroup> group = NewRaftGroup();
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(7)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(group.get());
                 })
                 .Build();
  std::map<uint64_t, std::string> results;
  client->SetCallback([&](uint64_t seq, const std::string& result, bool) {
    results[seq] = result;
  });
  sim->RunFor(500 * kMillisecond);
  client->Submit("PUT a 1");
  uint64_t r1 = client->Read("a");
  uint64_t r2 = client->Read("missing");
  ASSERT_TRUE(sim->RunUntil([&] { return results.count(r2) > 0; },
                            sim->now() + 30 * kSecond));
  EXPECT_EQ(results[r1], "1");
  EXPECT_EQ(results[r2], "NIL");

  // The replicas themselves confirm the reads went through read-index.
  uint64_t reads_served = 0;
  for (sim::NodeId id : group->members()) {
    auto* replica = dynamic_cast<raft::RaftReplica*>(sim->process(id));
    ASSERT_NE(replica, nullptr);
    reads_served += replica->reads_served();
  }
  EXPECT_EQ(reads_served, 2u);
}

// Regression for the stale-leader retry stall: a client with a deep
// pending queue keeps following the group's LeaderHint, which points at
// the crashed leader until a successor is elected. The fixed client
// distrusts the hint after a retry fires and rotates across the other
// members (skipping the target that just timed out), so the queue
// drains promptly after failover instead of hammering the corpse.
TEST(GroupClientTest, DeepQueueDrainsAfterLeaderCrash) {
  std::unique_ptr<ReplicaGroup> group = NewRaftGroup();
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(11)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(group.get());
                 })
                 .Build();
  int completed = 0;
  client->SetCallback([&](uint64_t, const std::string&, bool) { ++completed; });
  sim->RunFor(500 * kMillisecond);
  for (int i = 0; i < 12; ++i) client->Submit("INC x");
  ASSERT_TRUE(
      sim->RunUntil([&] { return completed >= 3; }, sim->now() + 30 * kSecond));

  sim::NodeId leader = group->LeaderHint();
  ASSERT_NE(leader, sim::kInvalidNode);
  sim->Crash(leader);
  // The remaining ~9 operations must complete within a handful of
  // election + retry rounds — a stalled client blows well past this.
  ASSERT_TRUE(
      sim->RunUntil([&] { return completed >= 12; }, sim->now() + 30 * kSecond));

  sim->Restart(leader);
  sim->RunFor(2 * kSecond);
  // Exactly-once despite the retries crossing the failover: twelve INCs
  // leave the counter at exactly 12 on every live replica.
  for (sim::NodeId id : group->members()) {
    auto* replica = dynamic_cast<raft::RaftReplica*>(sim->process(id));
    ASSERT_NE(replica, nullptr);
    auto v = replica->kv().Get("x");
    ASSERT_TRUE(v.has_value()) << "replica " << id;
    EXPECT_EQ(*v, "12") << "replica " << id;
  }
  EXPECT_TRUE(group->Violations().empty());
}

// The windowed client against a snapshotting group: a follower that
// crashes, misses enough committed entries for the leader to truncate
// them away, and restarts must be caught up by snapshot install — and
// the window's out-of-order arrivals must still execute exactly once
// (dedup sessions travel inside the snapshot).
TEST(GroupClientTest, WindowedClientExactlyOnceAcrossSnapshotInstall) {
  constexpr int kOps = 40;
  std::unique_ptr<ReplicaGroup> group = NewRaftGroup();
  GroupTuning tuning;
  tuning.snapshot_threshold = 8;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(5)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/8);
                 })
                 .Build();
  std::vector<std::string> results;
  client->SetCallback(
      [&](uint64_t, const std::string& result, bool) {
        results.push_back(result);
      });
  sim->RunFor(500 * kMillisecond);

  sim::NodeId leader = group->LeaderHint();
  ASSERT_NE(leader, sim::kInvalidNode);
  sim::NodeId follower = sim::kInvalidNode;
  for (sim::NodeId id : group->members()) {
    if (id != leader) follower = id;
  }
  sim->Crash(follower);

  for (int i = 0; i < kOps; ++i) client->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil(
      [&] { return results.size() >= static_cast<size_t>(kOps); },
      sim->now() + 120 * kSecond));

  sim->Restart(follower);
  sim->RunFor(3 * kSecond);  // Catch-up via snapshot + tail replication.

  // Exactly-once: the INC outputs are a permutation of 1..kOps (the
  // window reorders completion, not execution).
  std::vector<int> values;
  for (const std::string& r : results) values.push_back(std::stoi(r));
  std::sort(values.begin(), values.end());
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(values[static_cast<size_t>(i)], i + 1);
  }

  uint64_t installed = 0;
  auto* lagger = dynamic_cast<raft::RaftReplica*>(sim->process(follower));
  ASSERT_NE(lagger, nullptr);
  installed = static_cast<uint64_t>(lagger->snapshots_installed());
  EXPECT_GE(installed, 1u) << "follower caught up without a snapshot";
  auto v = lagger->kv().Get("x");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, std::to_string(kOps));
  EXPECT_TRUE(group->Violations().empty());
}

/// Batched + windowed round trip through the facade: correctness of the
/// leader-side batch path for one protocol, plus proof that batches were
/// actually cut (the tuning knob reaches the replicas).
void BatchedRoundTrip(const std::string& name) {
  SCOPED_TRACE("protocol: " + name);
  constexpr int kOps = 12;
  std::unique_ptr<ReplicaGroup> group = MakeGroup(name);
  ASSERT_NE(group, nullptr);
  GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 5 * kMillisecond;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(8)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/4);
                 })
                 .Build();
  std::vector<std::string> results;
  client->SetCallback(
      [&](uint64_t, const std::string& result, bool) {
        results.push_back(result);
      });
  sim->RunFor(500 * kMillisecond);
  for (int i = 0; i < kOps; ++i) client->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil(
      [&] { return results.size() >= static_cast<size_t>(kOps); },
      sim->now() + 60 * kSecond));

  std::vector<int> values;
  for (const std::string& r : results) values.push_back(std::stoi(r));
  std::sort(values.begin(), values.end());
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(values[static_cast<size_t>(i)], i + 1);
  }

  // With a 4-deep window feeding a 5ms linger, at least one multi-command
  // entry must have been cut (deterministic per seed).
  int batches = 0;
  for (sim::NodeId id : group->members()) {
    if (auto* r = dynamic_cast<raft::RaftReplica*>(sim->process(id))) {
      batches += r->batches_cut();
    } else if (auto* p =
                   dynamic_cast<paxos::MultiPaxosReplica*>(sim->process(id))) {
      batches += p->batches_cut();
    }
  }
  EXPECT_GT(batches, 0) << "batching tuning never reached the leader";
  EXPECT_TRUE(group->Violations().empty());
}

// End-to-end regression for the windowed reply-loss wrong-result bug: on
// a lossy network, a reply can vanish while later window seqs complete
// and get acked. The retry of the reply-lost op must receive ITS OWN
// cached result — the session floor only advances over client-acked
// seqs, so the exact result is retained however far the window slid.
// (The old floor_result scheme handed such a retry a neighbouring op's
// result, which shows up here as a duplicate INC value.)
TEST(GroupClientTest, WindowedRetriesSurviveReplyLoss) {
  constexpr int kOps = 50;
  std::unique_ptr<ReplicaGroup> group = NewRaftGroup();
  GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 2 * kMillisecond;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(13)
                 .DropRate(0.10)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/4);
                 })
                 .Build();
  std::vector<std::string> results;
  client->SetCallback([&](uint64_t, const std::string& result, bool) {
    results.push_back(result);
  });
  sim->RunFor(2 * kSecond);  // Leader election under loss.
  for (int i = 0; i < kOps; ++i) client->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil(
      [&] { return results.size() >= static_cast<size_t>(kOps); },
      sim->now() + 600 * kSecond));

  // Exactly-once AND exactly-own-result: the INC outputs must be a
  // permutation of 1..kOps — a duplicate value means some retry was
  // answered with another operation's cached result.
  std::vector<int> values;
  for (const std::string& r : results) values.push_back(std::stoi(r));
  std::sort(values.begin(), values.end());
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(values[static_cast<size_t>(i)], i + 1);
  }
  EXPECT_TRUE(group->Violations().empty());
}

TEST(GroupClientTest, BatchedRoundTripRaft) { BatchedRoundTrip("raft"); }

TEST(GroupClientTest, BatchedRoundTripMultiPaxos) {
  BatchedRoundTrip("multi_paxos");
}

// The log-based SMR protocols that share the leader pipeline.
const char* const kPipelineProtocols[] = {"raft", "multi_paxos",
                                          "crossword_full", "crossword"};

std::string ProtocolName(const testing::TestParamInfo<const char*>& info) {
  return info.param;
}

// Value discovery must surface decisions the new leader missed. m0 leads
// and commits five INCs with m1 while m2 is cut off; m0 then crashes and
// m2 (whose ballot ratcheted through failed elections while isolated)
// takes over with m1's promise. A promise that leaves out chosen slots
// hands m2 an empty log: it re-proposes fresh commands into slots 0..2,
// m1 acks them, and client B reads the counter from zero while m1
// reports the slots chosen twice.
class ValueDiscoveryTest : public testing::TestWithParam<const char*> {};

TEST_P(ValueDiscoveryTest, NewLeaderLearnsDecisionsItMissed) {
  std::unique_ptr<ReplicaGroup> group = MakeGroup(GetParam());
  ASSERT_NE(group, nullptr);
  GroupClient* a = nullptr;
  GroupClient* b = nullptr;
  auto sim = sim::Simulation::Builder(11)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   a = s.Spawn<GroupClient>(group.get());
                   b = s.Spawn<GroupClient>(group.get());
                 })
                 .Build();
  std::vector<std::string> a_results, b_results;
  a->SetCallback([&](uint64_t, const std::string& r, bool) {
    a_results.push_back(r);
  });
  b->SetCallback([&](uint64_t, const std::string& r, bool) {
    b_results.push_back(r);
  });
  const std::vector<sim::NodeId> m = group->members();
  ASSERT_TRUE(sim->RunUntil([&] { return group->LeaderHint() == m[0]; },
                            sim->now() + 30 * kSecond));

  sim->Partition({{m[0], m[1], a->id()}, {m[2]}});
  for (int i = 0; i < 5; ++i) a->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil([&] { return a_results.size() == 5; },
                            sim->now() + 30 * kSecond));
  sim->RunFor(100 * kMillisecond);
  sim->Crash(m[0]);
  sim->Heal();
  sim->RunFor(2 * kSecond);

  for (int i = 0; i < 3; ++i) b->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil([&] { return b_results.size() == 3; },
                            sim->now() + 30 * kSecond));
  EXPECT_EQ(b_results, (std::vector<std::string>{"6", "7", "8"}));
  std::vector<std::string> violations = group->Violations();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(Protocols, ValueDiscoveryTest,
                         testing::ValuesIn(kPipelineProtocols), ProtocolName);

// Differential guard for refactors of the shared leader pipeline: one
// seeded run per protocol with batching, linger, checkpointing, a 4-deep
// client window, and a leader crash/restart mid-run, folded into one
// FNV-1a hash of every op's (seq, completion time, result), the numbers
// of messages and bytes sent, and the number of events the workload phase
// ran (timers included). A change that alters any send, message size,
// timer, or RNG draw moves the hash. Re-pin a row only with the reason
// stated here.
//
// Re-pinned (every row) when the byte count joined the hash, so that a
// change to how a log entry is sized shows here too. The crossword_rs row
// joined then: at one shard per acceptor it is the only run that sends
// batch entries through the Reed-Solomon coder (adaptive Crossword ships
// batches this small as full copies).
//
// Re-pinned (every row) when a cancelled timer stopped being an event: a
// cancel now unlinks its event, so the event term counts only timers that
// fire. With that term left out, every row hashed as before.
class PipelineFingerprintTest : public testing::TestWithParam<const char*> {};

const char* const kFingerprintProtocols[] = {
    "raft", "multi_paxos", "crossword_full", "crossword", "crossword_rs"};

uint64_t PipelineFingerprint(const std::string& name) {
  constexpr int kOps = 300;
  std::unique_ptr<ReplicaGroup> group = MakeGroup(name);
  GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 1 * kMillisecond;
  tuning.snapshot_threshold = 16;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(2024)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/4);
                 })
                 .Build();
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  int completed = 0;
  client->SetCallback([&](uint64_t seq, const std::string& result, bool) {
    mix(seq);
    mix(static_cast<uint64_t>(sim->now()));
    for (char c : result) mix(static_cast<unsigned char>(c));
    ++completed;
  });
  sim->RunFor(500 * kMillisecond);
  // RunUntil evaluates its predicate once up front and once per event.
  uint64_t evaluations = 0;
  auto run_until = [&](int target, sim::Duration limit) {
    return sim->RunUntil(
        [&] {
          ++evaluations;
          return completed >= target;
        },
        sim->now() + limit);
  };
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    if (i % 3 == 2) {
      client->Read(key);
    } else {
      client->Submit("INC " + key);
    }
  }
  EXPECT_TRUE(run_until(kOps / 3, 60 * kSecond));
  const sim::NodeId leader = group->LeaderHint();
  EXPECT_NE(leader, sim::kInvalidNode);
  sim->Crash(leader);
  EXPECT_TRUE(run_until(2 * kOps / 3, 60 * kSecond));
  sim->Restart(leader);
  EXPECT_TRUE(run_until(kOps, 120 * kSecond));
  sim->RunFor(1 * kSecond);
  mix(sim->stats().messages_sent);
  mix(sim->stats().bytes_sent);
  mix(evaluations);
  std::vector<std::string> violations = group->Violations();
  EXPECT_TRUE(violations.empty()) << violations.front();
  return hash;
}

TEST_P(PipelineFingerprintTest, MatchesPinnedRun) {
  static const std::map<std::string, uint64_t> kPinned = {
      {"raft", 0xd4c2b97f56f0bf51ull},
      {"multi_paxos", 0xded962b1f945fccbull},
      {"crossword_full", 0xa3fc103a0f23a76dull},
      {"crossword", 0xa3fc103a0f23a76dull},
      {"crossword_rs", 0x063c14b9c0869d04ull},
  };
  const uint64_t got = PipelineFingerprint(GetParam());
  EXPECT_EQ(got, kPinned.at(GetParam()))
      << std::hex << "fingerprint 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(Protocols, PipelineFingerprintTest,
                         testing::ValuesIn(kFingerprintProtocols),
                         ProtocolName);

/// (queued, in flight) pipeline sizes of one replica of any protocol that
/// shares the leader pipeline, and whether it believes it leads.
struct PipelineView {
  size_t queued = 0;
  size_t inflight = 0;
  bool leader = false;
};

PipelineView ViewOf(sim::Process* p) {
  if (auto* r = dynamic_cast<raft::RaftReplica*>(p)) {
    return {r->queued_ops(), r->inflight_ops(), r->IsLeader()};
  }
  if (auto* r = dynamic_cast<paxos::MultiPaxosReplica*>(p)) {
    return {r->queued_ops(), r->inflight_ops(), r->IsLeader()};
  }
  auto* r = dynamic_cast<paxos::CrosswordReplica*>(p);
  EXPECT_NE(r, nullptr) << "not a pipeline replica";
  if (r == nullptr) return {};
  return {r->queued_ops(), r->inflight_ops(), r->IsLeader()};
}

int MaxCounter(const ReplicaGroup& group, const sim::Simulation& sim,
               const std::string& key) {
  int best = 0;
  for (sim::NodeId id : group.members()) {
    sim::Process* p = sim.process(id);
    std::optional<std::string> v;
    if (auto* r = dynamic_cast<raft::RaftReplica*>(p)) v = r->kv().Get(key);
    if (auto* r = dynamic_cast<paxos::MultiPaxosReplica*>(p)) {
      v = r->kv().Get(key);
    }
    if (auto* r = dynamic_cast<paxos::CrosswordReplica*>(p)) {
      v = r->kv().Get(key);
    }
    if (v.has_value()) best = std::max(best, std::stoi(*v));
  }
  return best;
}

// The leader-pipeline contract, held by every protocol that shares it:
// in-flight tracking is bounded by the pipeline (erased on apply), and a
// deposed leader drops its queue and in-flight set.
class PipelineContractTest : public testing::TestWithParam<const char*> {};

TEST_P(PipelineContractTest, InFlightDrainsToEmpty) {
  constexpr int kOps = 60;
  std::unique_ptr<ReplicaGroup> group = MakeGroup(GetParam());
  GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 2 * kMillisecond;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(3)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/4);
                 })
                 .Build();
  int completed = 0;
  client->SetCallback([&](uint64_t, const std::string&, bool) { ++completed; });
  sim->RunFor(500 * kMillisecond);
  for (int i = 0; i < kOps; ++i) client->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil([&] { return completed >= kOps; },
                            sim->now() + 60 * kSecond));
  sim->RunFor(2 * kSecond);  // Drain commits and applies everywhere.
  for (sim::NodeId id : group->members()) {
    PipelineView v = ViewOf(sim->process(id));
    EXPECT_EQ(v.queued, 0u) << "replica " << id;
    EXPECT_EQ(v.inflight, 0u) << "replica " << id;
  }
  EXPECT_EQ(MaxCounter(*group, *sim, "x"), kOps);
  EXPECT_TRUE(group->Violations().empty());
}

TEST_P(PipelineContractTest, DeposedLeaderDropsItsQueues) {
  constexpr int kOps = 16;
  std::unique_ptr<ReplicaGroup> group = MakeGroup(GetParam());
  GroupTuning tuning;
  tuning.batch_size = 4;
  tuning.batch_delay = 50 * kMillisecond;
  group->Configure(tuning);
  GroupClient* client = nullptr;
  auto sim = sim::Simulation::Builder(5)
                 .Setup([&](sim::Simulation& s) {
                   group->Create(&s, 3);
                   client = s.Spawn<GroupClient>(
                       group.get(), 300 * kMillisecond, /*window=*/4);
                 })
                 .Build();
  int completed = 0;
  client->SetCallback([&](uint64_t, const std::string&, bool) { ++completed; });
  sim->RunFor(500 * kMillisecond);
  for (int i = 0; i < kOps; ++i) client->Submit("INC x");
  ASSERT_TRUE(sim->RunUntil([&] { return completed >= 2; },
                            sim->now() + 30 * kSecond));
  const sim::NodeId leader = group->LeaderHint();
  ASSERT_NE(leader, sim::kInvalidNode);
  std::vector<sim::NodeId> rest;
  for (sim::NodeId id : group->members()) {
    if (id != leader) rest.push_back(id);
  }

  // Cut the leader off with the client: it keeps taking commands but can
  // never reach quorum, so its queue or in-flight set fills up.
  sim->Partition({{leader, client->id()}, rest});
  ASSERT_TRUE(sim->RunUntil(
      [&] {
        PipelineView v = ViewOf(sim->process(leader));
        return v.queued + v.inflight > 0;
      },
      sim->now() + 60 * kSecond));

  // Flip: the client joins the majority, which elects a new leader and
  // finishes the workload while the old leader sits alone.
  std::vector<sim::NodeId> majority = rest;
  majority.push_back(client->id());
  sim->Partition({{leader}, majority});
  ASSERT_TRUE(sim->RunUntil([&] { return completed >= kOps; },
                            sim->now() + 240 * kSecond));

  // Heal: the new leader's traffic deposes the old one, which must drop
  // every queued and in-flight command at once — not merely drain them
  // later as catch-up applies the commands the new leader committed.
  sim->Heal();
  ASSERT_TRUE(sim->RunUntil(
      [&] { return !ViewOf(sim->process(leader)).leader; },
      sim->now() + 30 * kSecond));
  PipelineView old = ViewOf(sim->process(leader));
  EXPECT_EQ(old.queued, 0u);
  EXPECT_EQ(old.inflight, 0u);
  sim->RunFor(3 * kSecond);
  EXPECT_EQ(MaxCounter(*group, *sim, "x"), kOps);  // Exactly once.
  EXPECT_TRUE(group->Violations().empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, PipelineContractTest,
                         testing::ValuesIn(kPipelineProtocols), ProtocolName);

TEST(SimulationBuilderTest, HooksRunInOrderAndFaultsFire) {
  std::vector<std::string> order;
  auto sim = sim::Simulation::Builder(1)
                 .Delay(1 * kMillisecond, 1 * kMillisecond)
                 .Setup([&](sim::Simulation&) { order.push_back("setup1"); })
                 .Setup([&](sim::Simulation&) { order.push_back("setup2"); })
                 .At(5 * kMillisecond,
                     [&](sim::Simulation&) { order.push_back("at5ms"); })
                 .Build();
  ASSERT_EQ(order.size(), 2u);  // At-hooks are scheduled, not run, here.
  EXPECT_EQ(order[0], "setup1");
  EXPECT_EQ(order[1], "setup2");
  EXPECT_EQ(sim->options().min_delay, 1 * kMillisecond);
  sim->RunFor(10 * kMillisecond);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "at5ms");
}

TEST(SimulationBuilderTest, AutoStartOffDefersOnStart) {
  int started = 0;
  struct Probe : sim::Process {
    explicit Probe(int* counter) : counter_(counter) {}
    void OnStart() override { ++*counter_; }
    void OnMessage(sim::NodeId, const sim::Message&) override {}
    int* counter_;
  };
  auto sim = sim::Simulation::Builder(1)
                 .Setup([&](sim::Simulation& s) { s.Spawn<Probe>(&started); })
                 .AutoStart(false)
                 .Build();
  EXPECT_EQ(started, 0);
  sim->Start();
  EXPECT_EQ(started, 1);
}

}  // namespace
}  // namespace consensus40::consensus
