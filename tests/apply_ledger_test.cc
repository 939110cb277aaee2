// The apply ledger (smr/apply_ledger.h): the online agreement check that
// replaced the replicas' executed-command histories. Unit cases drive a
// ledger directly with real entry digests or through leader pipelines;
// group cases run Raft and Multi-Paxos groups whose replicas report to
// their facade's ledger.

#include "smr/apply_ledger.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/replica_group.h"
#include "paxos/multi_paxos.h"
#include "raft/raft.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/pipeline.h"

namespace consensus40::smr {
namespace {

using sim::kSecond;

/// The entry every honest member applies at `position`.
uint64_t Honest(uint64_t position) {
  return Entry(Command{7, position + 1, "PUT k" + std::to_string(position)})
      .Digest();
}

/// Members 0..n-1 of a ledger over node ids 10, 11, ...
ApplyLedger Ledger(int n) {
  std::vector<sim::NodeId> members;
  for (int i = 0; i < n; ++i) members.push_back(10 + i);
  return ApplyLedger(members);
}

void ApplyHonest(ApplyLedger* ledger, int member, uint64_t from, uint64_t to) {
  for (uint64_t p = from; p < to; ++p) ledger->Applied(member, p, Honest(p));
}

TEST(ApplyLedgerTest, CorruptedApplyIsFlaggedAtItsPosition) {
  // The corrupted op differs from the honest one in its value only.
  const uint64_t corrupt = Entry(Command{7, 5, "PUT k4 x"}).Digest();
  ASSERT_NE(corrupt, Honest(4));
  for (int corrupt_first : {0, 1}) {
    ApplyLedger ledger = Ledger(3);
    if (corrupt_first == 1) {
      ApplyHonest(&ledger, 2, 0, 4);
      ledger.Applied(2, 4, corrupt);
      ApplyHonest(&ledger, 2, 5, 10);
    }
    ApplyHonest(&ledger, 0, 0, 10);
    ApplyHonest(&ledger, 1, 0, 10);
    if (corrupt_first == 0) {
      ApplyHonest(&ledger, 2, 0, 4);
      ledger.Applied(2, 4, corrupt);
      ApplyHonest(&ledger, 2, 5, 10);
    }
    ASSERT_EQ(ledger.violations().size(), 1u) << "one report per position";
    const std::string& v = ledger.violations()[0];
    EXPECT_NE(v.find("log position 4"), std::string::npos) << v;
    EXPECT_NE(v.find("12"), std::string::npos) << "names the follower: " << v;
    EXPECT_EQ(ledger.size(), 0u);
  }
}

// The pipelines' own reports: a follower whose pipeline applies a
// corrupted op is flagged at that position, and an install moves its
// frontier without a report.
TEST(ApplyLedgerTest, PipelinesReportAppliesAndInstalls) {
  ApplyLedger ledger = Ledger(2);
  LeaderPipeline leader({}, {});
  LeaderPipeline follower({}, {});
  leader.ReportAppliesTo(&ledger, 0);
  follower.ReportAppliesTo(&ledger, 1);
  for (uint64_t p = 0; p < 6; ++p) {
    const Entry entry(Command{7, p + 1, "PUT k" + std::to_string(p) + " v"});
    leader.ApplyEntry(p, entry);
    follower.ApplyEntry(p, p == 3 ? Entry(Command{7, 4, "PUT k3 x"}) : entry);
  }
  ASSERT_EQ(ledger.violations().size(), 1u);
  EXPECT_NE(ledger.violations()[0].find("log position 3"), std::string::npos)
      << ledger.violations()[0];
  for (uint64_t p = 6; p < 10; ++p) {
    leader.ApplyEntry(p, Entry(Command{7, p + 1, "PUT k v"}));
  }
  EXPECT_EQ(ledger.size(), 4u);
  follower.Install(leader.Capture(), 10);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.violations().size(), 1u);
}

TEST(ApplyLedgerTest, SnapshotInstallSkipsWithoutFalseReports) {
  ApplyLedger ledger = Ledger(3);
  ApplyHonest(&ledger, 0, 0, 20);
  ApplyHonest(&ledger, 1, 0, 20);
  ApplyHonest(&ledger, 2, 0, 3);
  ledger.Skipped(2, 16);  // Positions 3..15 never applied by member 2.
  ApplyHonest(&ledger, 2, 16, 20);
  EXPECT_TRUE(ledger.violations().empty()) << ledger.violations()[0];
  EXPECT_EQ(ledger.size(), 0u);
  // An install that lands at or behind the member's frontier is a no-op.
  ledger.Skipped(2, 5);
  ApplyHonest(&ledger, 0, 20, 22);
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(ApplyLedgerTest, RestartedMembersCatchUpIsChecked) {
  ApplyLedger ledger = Ledger(3);
  ApplyHonest(&ledger, 0, 0, 30);
  ApplyHonest(&ledger, 1, 0, 30);
  ApplyHonest(&ledger, 2, 0, 5);  // Then member 2 is down.
  EXPECT_EQ(ledger.size(), 25u) << "positions the crashed member owes";
  ApplyHonest(&ledger, 2, 5, 12);
  ledger.Applied(2, 12, Honest(13));  // Catch-up applies the wrong entry.
  ApplyHonest(&ledger, 2, 13, 30);
  ASSERT_EQ(ledger.violations().size(), 1u);
  EXPECT_NE(ledger.violations()[0].find("log position 12"), std::string::npos)
      << ledger.violations()[0];
}

TEST(ApplyLedgerTest, SizeReturnsToTheSlowestMembersLag) {
  ApplyLedger ledger = Ledger(3);
  ApplyHonest(&ledger, 0, 0, 100);
  ApplyHonest(&ledger, 1, 0, 90);
  ApplyHonest(&ledger, 2, 0, 50);
  EXPECT_EQ(ledger.size(), 50u);
  EXPECT_EQ(ledger.Freshest(), 0);
  ApplyHonest(&ledger, 2, 50, 95);
  EXPECT_EQ(ledger.size(), 10u);  // Member 1 is the slowest now.
  ApplyHonest(&ledger, 1, 90, 100);
  ApplyHonest(&ledger, 2, 95, 100);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.Freshest(), 0) << "the first member wins a tie";
  EXPECT_TRUE(ledger.violations().empty());
}

// --- Groups reporting to their facade's ledger ---

/// A 3-replica group of `protocol` with one closed-loop client.
struct GroupRun {
  GroupRun(const std::string& protocol, uint64_t snapshot_threshold) {
    group = consensus::MakeGroup(protocol);
    consensus::GroupTuning tuning;
    tuning.snapshot_threshold = snapshot_threshold;
    group->Configure(tuning);
    sim = sim::Simulation::Builder(5)
              .Setup([&](sim::Simulation& s) {
                group->Create(&s, 3);
                client = s.Spawn<consensus::GroupClient>(group.get());
              })
              .Build();
    client->SetCallback(
        [this](uint64_t, const std::string&, bool) { ++completed; });
    sim->RunFor(1 * kSecond);
  }

  bool Ops(int n) {
    const int target = completed + n;
    for (int i = 0; i < n; ++i) {
      client->Submit("PUT k" + std::to_string(i % 5) + " v" +
                     std::to_string(i));
    }
    return sim->RunUntil([&] { return completed >= target; },
                         sim->now() + 30 * kSecond);
  }

  /// A follower's node id.
  sim::NodeId Follower() const {
    const sim::NodeId leader = group->LeaderHint();
    return group->members()[0] == leader ? group->members()[1]
                                         : group->members()[0];
  }

  const ApplyLedger& ledger() const {
    using RaftFacade = consensus::LogReplicaGroup<raft::RaftReplica>;
    using PaxosFacade = consensus::LogReplicaGroup<paxos::MultiPaxosReplica>;
    if (const auto* raft = dynamic_cast<const RaftFacade*>(group.get())) {
      return raft->ledger();
    }
    return dynamic_cast<const PaxosFacade&>(*group).ledger();
  }

  int SnapshotsInstalled(sim::NodeId id) const {
    if (auto* r = dynamic_cast<raft::RaftReplica*>(sim->process(id))) {
      return r->snapshots_installed();
    }
    return dynamic_cast<paxos::MultiPaxosReplica*>(sim->process(id))
        ->snapshots_installed();
  }

  std::unique_ptr<consensus::ReplicaGroup> group;
  std::unique_ptr<sim::Simulation> sim;
  consensus::GroupClient* client = nullptr;
  int completed = 0;
};

class LedgerGroupTest : public testing::TestWithParam<const char*> {};

// A crashed follower pins the window at its frontier, so its catch-up is
// compared entry by entry; once it has caught up the window drains.
TEST_P(LedgerGroupTest, CrashedFollowerPinsTheWindowUntilCaughtUp) {
  GroupRun run(GetParam(), /*snapshot_threshold=*/0);
  ASSERT_TRUE(run.Ops(5));
  const sim::NodeId follower = run.Follower();
  run.sim->Crash(follower);
  ASSERT_TRUE(run.Ops(40));
  EXPECT_GE(run.ledger().size(), 40u);
  run.sim->Restart(follower);
  run.sim->RunFor(3 * kSecond);
  EXPECT_EQ(run.ledger().size(), 0u);
  EXPECT_TRUE(run.group->Violations().empty()) << run.group->Violations()[0];
}

// A follower that missed truncated slots catches up by snapshot: the
// install skips its frontier ahead and nothing is misreported.
TEST_P(LedgerGroupTest, SnapshotCatchUpReportsNothing) {
  GroupRun run(GetParam(), /*snapshot_threshold=*/8);
  ASSERT_TRUE(run.Ops(5));
  const sim::NodeId follower = run.Follower();
  run.sim->Crash(follower);
  ASSERT_TRUE(run.Ops(60));
  run.sim->Restart(follower);
  run.sim->RunFor(3 * kSecond);
  ASSERT_TRUE(run.Ops(10));
  run.sim->RunFor(1 * kSecond);
  EXPECT_GE(run.SnapshotsInstalled(follower), 1);
  EXPECT_EQ(run.ledger().size(), 0u);
  EXPECT_TRUE(run.group->Violations().empty()) << run.group->Violations()[0];
}

INSTANTIATE_TEST_SUITE_P(Protocols, LedgerGroupTest,
                         testing::Values("raft", "multi_paxos"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace consensus40::smr
