// Tests for src/shard/routing.* and src/shard/reshard.*: the replicated
// range-routing table and the live shard move ladder (claim -> freeze ->
// drain -> copy -> flip -> unfreeze). The crash-at-every-phase-boundary
// loop is the one the subsystem exists for: every transition is a
// write-once record in the decision group, so a restarted (memoryless)
// mover finishes any interrupted move exactly once.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shard/reshard.h"
#include "shard/routing.h"
#include "shard/shard.h"
#include "shard/workload.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/state_machine.h"

namespace consensus40::shard {
namespace {

using sim::kMillisecond;
using sim::kSecond;

constexpr uint64_t kHalf = 1ull << 63;  // Initial shard-0 / shard-1 boundary.

// ---------------------------------------------------------------------------
// RoutingTable units
// ---------------------------------------------------------------------------

TEST(RoutingTableTest, InitialSplitsTheSpaceEvenly) {
  RoutingTable t = RoutingTable::Initial(2);
  EXPECT_EQ(t.epoch(), 1u);
  ASSERT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.GroupFor(0), 0);
  EXPECT_EQ(t.GroupFor(kHalf - 1), 0);
  EXPECT_EQ(t.GroupFor(kHalf), 1);
  EXPECT_EQ(t.GroupFor(~0ull), 1);
}

TEST(RoutingTableTest, ApplyMoveSplitsARange) {
  RoutingTable t = RoutingTable::Initial(2);
  // Move the top half of shard 0's range to a spare group 2: a split.
  t.ApplyMove(1ull << 62, kHalf, 2);
  EXPECT_EQ(t.epoch(), 2u);
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.GroupFor(0), 0);
  EXPECT_EQ(t.GroupFor(1ull << 62), 2);
  EXPECT_EQ(t.GroupFor(kHalf - 1), 2);
  EXPECT_EQ(t.GroupFor(kHalf), 1);
}

TEST(RoutingTableTest, ApplyMoveToNeighbourOwnerIsAMerge) {
  RoutingTable t = RoutingTable::Initial(2);
  // Reassigning shard 0's whole range to shard 1 collapses the table to
  // a single entry (normalization merges adjacent same-group ranges).
  t.ApplyMove(0, kHalf, 1);
  EXPECT_EQ(t.epoch(), 2u);
  ASSERT_EQ(t.entries().size(), 1u);
  EXPECT_EQ(t.GroupFor(0), 1);
  EXPECT_EQ(t.GroupFor(~0ull), 1);
}

TEST(RoutingTableTest, ApplyMoveToTheEndOfTheSpace) {
  RoutingTable t = RoutingTable::Initial(2);
  t.ApplyMove(kHalf, 0, 2);  // hi == 0 means 2^64.
  ASSERT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.GroupFor(kHalf - 1), 0);
  EXPECT_EQ(t.GroupFor(kHalf), 2);
  EXPECT_EQ(t.GroupFor(~0ull), 2);
}

TEST(RoutingTableTest, EncodeDecodeRoundTrip) {
  RoutingTable t = RoutingTable::Initial(3);
  t.ApplyMove(1ull << 62, 1ull << 63, 2);
  std::optional<RoutingTable> back = RoutingTable::Decode(t.Encode(), 3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch(), t.epoch());
  ASSERT_EQ(back->entries().size(), t.entries().size());
  for (size_t i = 0; i < t.entries().size(); ++i) {
    EXPECT_EQ(back->entries()[i].lo, t.entries()[i].lo);
    EXPECT_EQ(back->entries()[i].group, t.entries()[i].group);
  }
}

TEST(RoutingTableTest, DecodeRejectsMalformed) {
  constexpr int kGroups = 8;
  auto decodes = [](const char* s) {
    return RoutingTable::Decode(s, kGroups).has_value();
  };
  EXPECT_FALSE(decodes(""));
  EXPECT_FALSE(decodes("e2"));          // No entries.
  EXPECT_FALSE(decodes("e2|1:0"));      // lo != 0.
  EXPECT_FALSE(decodes("e2|0:0,0:1"));  // Not rising.
  EXPECT_FALSE(decodes("ex|0:0"));      // Bad epoch.
  // Group tokens must parse in full and name one of the groups: adopters
  // index per-group arrays with them.
  EXPECT_FALSE(decodes("e2|0:junk"));
  EXPECT_FALSE(decodes("e2|0:"));
  EXPECT_FALSE(decodes("e2|0:-1"));
  EXPECT_FALSE(decodes("e2|0:1x"));
  EXPECT_FALSE(decodes("e2|0:99999999999999999999"));
  const std::string two_ranges = "e2|0:0,8000000000000000:7";
  EXPECT_TRUE(RoutingTable::Decode(two_ranges, 8).has_value());
  EXPECT_FALSE(RoutingTable::Decode(two_ranges, 7).has_value());  // No group 7.
  EXPECT_FALSE(RoutingTable::Decode("e2|0:0", 0).has_value());
  // Only Encode's form decodes. A lenient parse read "e-1" and an
  // overflowing epoch as 2^64 - 1, after which MaybeAdopt ignores every
  // later flip record for good.
  for (const char* bad :
       {"e-1|0:0", "e99999999999999999999|0:0", "e2|0:0,-1:1", "e2|0:+1",
        "e2|0: 1", "e02|0:0", "e2|0:0,", "e2|00:0", "e2|0:01", "e+2|0:0",
        "e2|0:0,8000000000000000:1,", "e2|0:0,800000000000000A:1",
        "e2|0:0,10000000000000000:1"}) {
    EXPECT_FALSE(decodes(bad)) << bad;
  }
  for (const char* good :
       {"e2|0:0,8000000000000000:1", "e1|0:0", "e0|0:0",
        "e18446744073709551615|0:7,ffffffffffffffff:0"}) {
    std::optional<RoutingTable> t = RoutingTable::Decode(good, kGroups);
    ASSERT_TRUE(t.has_value()) << good;
    EXPECT_EQ(t->Encode(), good);
  }
}

TEST(RoutingTableTest, MaybeAdoptIsEpochGated) {
  RoutingTable t = RoutingTable::Initial(2);
  RoutingTable newer = t;
  newer.ApplyMove(0, kHalf, 1);
  RoutingTable copy = t;
  EXPECT_TRUE(copy.MaybeAdopt(newer));
  EXPECT_EQ(copy.epoch(), 2u);
  EXPECT_FALSE(copy.MaybeAdopt(t));  // Older epoch never adopted.
  EXPECT_FALSE(copy.MaybeAdopt(newer));  // Equal epoch never adopted.
  EXPECT_EQ(copy.GroupFor(0), 1);
}

TEST(RoutingTableTest, SoleOwnerSeesRangeBoundaries) {
  RoutingTable t = RoutingTable::Initial(2);
  int owner = -1;
  EXPECT_TRUE(t.SoleOwner(0, kHalf, &owner));
  EXPECT_EQ(owner, 0);
  EXPECT_TRUE(t.SoleOwner(kHalf, 0, &owner));
  EXPECT_EQ(owner, 1);
  EXPECT_FALSE(t.SoleOwner(0, 0, &owner));       // Spans both shards.
  EXPECT_FALSE(t.SoleOwner(kHalf, kHalf, &owner));  // Empty range.
}

TEST(MoveIdTest, RoundTrip) {
  std::string id = MoveId(3, 0, kHalf);
  uint64_t epoch = 0, lo = 1, hi = 1;
  ASSERT_TRUE(ParseMoveId(id, &epoch, &lo, &hi));
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, kHalf);
  EXPECT_FALSE(ParseMoveId("nonsense", &epoch, &lo, &hi));
  EXPECT_FALSE(ParseMoveId("e3.0", &epoch, &lo, &hi));
}

// ---------------------------------------------------------------------------
// Live-move integration
// ---------------------------------------------------------------------------

/// Minimal transaction client (same shape as shard_test's).
class TestClient : public sim::Process {
 public:
  explicit TestClient(sim::NodeId coordinator,
                      sim::Duration retry = 2 * kSecond)
      : coordinator_(coordinator), retry_(retry) {}

  void Begin(uint64_t tx_id, std::vector<TxOp> ops) {
    pending_[tx_id] = ops;
    Submit(tx_id);
  }

  void OnMessage(sim::NodeId, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const TxOutcomeMsg*>(&msg);
    if (m == nullptr || pending_.count(m->tx_id) == 0) return;
    CancelTimer(timers_[m->tx_id]);
    outcomes[m->tx_id] = m->committed;
    pending_.erase(m->tx_id);
  }

  std::map<uint64_t, bool> outcomes;

 private:
  void Submit(uint64_t tx_id) {
    Send(coordinator_, std::make_shared<BeginTxMsg>(tx_id, pending_[tx_id]));
    timers_[tx_id] = SetTimer(retry_, [this, tx_id] {
      if (pending_.count(tx_id)) Submit(tx_id);
    });
  }

  sim::NodeId coordinator_;
  sim::Duration retry_;
  std::map<uint64_t, std::vector<TxOp>> pending_;
  std::map<uint64_t, uint64_t> timers_;
};

struct ReshardFixture {
  explicit ReshardFixture(uint64_t seed,
                          ShardOptions options = DefaultOptions()) {
    ssm = std::make_unique<ShardedStateMachine>(options);
    sim = sim::Simulation::Builder(seed)
              .Setup([this](sim::Simulation& s) { ssm->Build(&s); })
              .AutoStart(false)
              .Build();
    client = sim->Spawn<TestClient>(ssm->coordinator_id());
    sim->Start();
    sim->RunFor(500 * kMillisecond);  // Leader elections.
  }

  static ShardOptions DefaultOptions() {
    ShardOptions so;  // 2 shards x 3 replicas + 3 decision replicas.
    so.spare_groups = 1;
    return so;
  }

  /// The whole-initial-range-of-shard-0 move to the spare group.
  static MoveSpec Shard0ToSpare() {
    MoveSpec spec;
    spec.lo = 0;
    spec.hi = kHalf;
    spec.to = 2;
    return spec;
  }

  /// Runs until the mover reports `n` completed moves.
  bool RunUntilMovesDone(int n, sim::Duration budget = 10 * kSecond) {
    ShardMover* mover = ssm->mover();
    return sim->RunUntil([mover, n] { return mover->moves_done() >= n; },
                         sim->now() + budget);
  }

  /// Begins tx_id writing `value` to `key` and waits for the outcome.
  bool CommitSync(uint64_t tx_id, const std::string& key,
                  const std::string& value) {
    client->Begin(tx_id, {TxOp::Put(key, value)});
    if (!sim->RunUntil(
            [this, tx_id] { return client->outcomes.count(tx_id) > 0; },
            sim->now() + 5 * kSecond)) {
      return false;
    }
    return client->outcomes.at(tx_id);
  }

  std::unique_ptr<ShardedStateMachine> ssm;
  std::unique_ptr<sim::Simulation> sim;
  TestClient* client = nullptr;
};

TEST(ReshardTest, LiveMoveHappyPath) {
  ReshardFixture f(21);
  std::string key = f.ssm->KeyForShard(0, 0);
  ASSERT_TRUE(f.CommitSync(1, key, "before-move"));

  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.RunUntilMovesDone(1));
  f.sim->RunFor(1 * kSecond);  // Let replication settle.

  // The mover's adopted table routes the range to the spare group.
  EXPECT_EQ(f.ssm->mover()->table().epoch(), 2u);
  EXPECT_EQ(f.ssm->mover()->table().GroupFor(0), 2);

  // Data followed the range: the destination group holds the pre-move
  // write, the source group fences the key behind the flip epoch.
  smr::KvStore dest = f.ssm->shard_group(2)->FreshestKv();
  EXPECT_EQ(dest.Get(key).value_or("NIL"), "before-move");
  smr::KvStore source = f.ssm->shard_group(0)->FreshestKv();
  ASSERT_TRUE(source.MovedEpoch(key).has_value());
  EXPECT_EQ(*source.MovedEpoch(key), 2u);

  // The decision group carries the full write-once move record trail.
  std::string id = MoveId(1, 0, kHalf);
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_EQ(decisions.Get(MoveClaimKey(id)).value_or(""), "0,2");
  EXPECT_TRUE(decisions.Get(MovePhaseKey(id, "frozen")).has_value());
  EXPECT_TRUE(decisions.Get(MovePhaseKey(id, "drained")).has_value());
  EXPECT_TRUE(decisions.Get(MovePhaseKey(id, "flipped")).has_value());
  EXPECT_TRUE(decisions.Get(MovePhaseKey(id, "done")).has_value());
  std::optional<RoutingTable> flipped = RoutingTable::Decode(
      decisions.Get(RoutingTable::RtKey(2)).value_or(""),
      f.ssm->total_groups());
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->GroupFor(0), 2);

  // New transactions on the moved range commit at the new owner (the
  // first attempt bounces through a coordinator redirect-abort).
  uint64_t tx = 2;
  while (!f.CommitSync(tx, key, "after-move")) ++tx;
  f.sim->RunFor(1 * kSecond);
  EXPECT_EQ(f.ssm->shard_group(2)->FreshestKv().Get(key).value_or("NIL"),
            "after-move");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ReshardTest, SplitMovesHalfARangeToTheSpare) {
  ReshardFixture f(22);
  MoveSpec spec;
  spec.lo = 1ull << 62;
  spec.hi = kHalf;
  spec.to = 2;
  ASSERT_TRUE(f.ssm->mover()->StartMove(spec));
  ASSERT_TRUE(f.RunUntilMovesDone(1));

  const RoutingTable& t = f.ssm->mover()->table();
  EXPECT_EQ(t.epoch(), 2u);
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.GroupFor(0), 0);
  EXPECT_EQ(t.GroupFor(1ull << 62), 2);
  EXPECT_EQ(t.GroupFor(kHalf), 1);
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ReshardTest, MergeCollapsesAdjacentRangesOfOneOwner) {
  ReshardFixture f(23);
  MoveSpec spec;
  spec.lo = 0;
  spec.hi = kHalf;
  spec.to = 1;  // Shard 1 already owns [2^63, 2^64): this is a merge.
  ASSERT_TRUE(f.ssm->mover()->StartMove(spec));
  ASSERT_TRUE(f.RunUntilMovesDone(1));

  const RoutingTable& t = f.ssm->mover()->table();
  EXPECT_EQ(t.epoch(), 2u);
  ASSERT_EQ(t.entries().size(), 1u);
  EXPECT_EQ(t.GroupFor(0), 1);
  EXPECT_TRUE(f.ssm->Violations().empty());
}

// A -> B -> A round trip: the range must SERVE at A again. A's fence
// from the outbound move is stamped epoch 2; the returning INSTALL's
// ownership record (epoch 3) outranks it. Without that, every op on the
// range bounces "MOVED 2" forever while clients' tables route them
// straight back to A — a permanent livelock.
TEST(ReshardTest, RoundTripMoveBackToOriginalOwnerServesAgain) {
  ReshardFixture f(41);
  std::string key = f.ssm->KeyForShard(0, 0);
  ASSERT_TRUE(f.CommitSync(1, key, "v1"));

  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.RunUntilMovesDone(1));
  MoveSpec back;  // The same range, straight back to group 0.
  back.lo = 0;
  back.hi = kHalf;
  back.to = 0;
  ASSERT_TRUE(f.ssm->mover()->StartMove(back));
  ASSERT_TRUE(f.RunUntilMovesDone(2));
  f.sim->RunFor(1 * kSecond);

  EXPECT_EQ(f.ssm->mover()->table().epoch(), 3u);
  EXPECT_EQ(f.ssm->mover()->table().GroupFor(0), 0);

  // The returning owner's stale fence is outranked: the range is served,
  // not bounced, and the data followed it both ways.
  smr::KvStore source = f.ssm->shard_group(0)->FreshestKv();
  EXPECT_FALSE(source.MovedEpoch(key).has_value());
  EXPECT_EQ(source.Get(key).value_or("NIL"), "v1");

  // New transactions on the range commit at A again.
  uint64_t tx = 2;
  while (!f.CommitSync(tx, key, "v2")) {
    ASSERT_LT(tx, 10u);
    ++tx;
  }
  f.sim->RunFor(1 * kSecond);
  EXPECT_EQ(f.ssm->shard_group(0)->FreshestKv().Get(key).value_or("NIL"),
            "v2");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

// A mover that loses the flip's SETNX race to a DIFFERENT same-epoch
// table stands down — and must force-feed the established table to the
// destination TM, which it taught its losing table pre-flip. Plain
// adoption is epoch-gated, so without the forced install the TM would
// keep accepting writes for a range the authoritative table assigns
// elsewhere.
TEST(ReshardTest, FlipStandDownForceTeachesTheDestinationTm) {
  ReshardFixture f(43);
  // Plant the epoch-2 table before the mover flips, as a competing
  // (winning) mover would have published it: everything belongs to 1.
  RoutingTable established = f.ssm->InitialTable();
  established.ApplyMove(0, kHalf, 1);
  consensus::GroupClient* decider = f.sim->Spawn<consensus::GroupClient>(
      f.ssm->decision_group(), 300 * kMillisecond, 1);
  f.sim->Start();
  bool planted = false;
  decider->SetCallback([&planted](uint64_t, const std::string& result, bool) {
    planted = result == "OK";
  });
  decider->Submit("SETNX " + RoutingTable::RtKey(2) + " " +
                  established.Encode());
  ASSERT_TRUE(f.sim->RunUntil([&planted] { return planted; },
                              f.sim->now() + 5 * kSecond));

  // The shard0 -> spare move reaches the flip, loses the race, and
  // stands down (recorded as a rejection).
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.sim->RunUntil(
      [&] { return f.ssm->mover()->moves_rejected() >= 1; },
      f.sim->now() + 10 * kSecond));
  f.sim->RunFor(1 * kSecond);

  EXPECT_EQ(f.ssm->mover()->moves_done(), 0);
  EXPECT_EQ(f.ssm->tx_manager(2)->table().epoch(), 2u);
  EXPECT_EQ(f.ssm->tx_manager(2)->table().GroupFor(0), 1);
  EXPECT_EQ(f.ssm->mover()->table().GroupFor(0), 1);
}

TEST(ReshardTest, SecondMoveOfSameRangeAfterCompletionIsRejected) {
  ReshardFixture f(24);
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  // Queue the identical request behind the active move: when it runs,
  // the range is already owned by the destination — invalid, rejected.
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.RunUntilMovesDone(1));
  ASSERT_TRUE(f.sim->RunUntil(
      [&] { return f.ssm->mover()->moves_rejected() >= 1; },
      f.sim->now() + 5 * kSecond));
  EXPECT_EQ(f.ssm->mover()->moves_done(), 1);
  EXPECT_EQ(f.ssm->mover()->table().epoch(), 2u);
}

TEST(ReshardTest, DifferentMoveOfClaimedRangeIsRejectedByWriteOnceRecord) {
  ReshardFixture f(25);
  // Forge a competing claim for the same (epoch, range) with a DIFFERENT
  // destination, as a second mover would have written it.
  consensus::GroupClient* decider = f.sim->Spawn<consensus::GroupClient>(
      f.ssm->decision_group(), 300 * kMillisecond, 1);
  f.sim->Start();
  bool claimed = false;
  decider->SetCallback([&claimed](uint64_t, const std::string& result, bool) {
    claimed = result == "OK";
  });
  decider->Submit("SETNX " + MoveClaimKey(MoveId(1, 0, kHalf)) + " 0,1");
  ASSERT_TRUE(
      f.sim->RunUntil([&claimed] { return claimed; }, f.sim->now() + 5 * kSecond));

  // Our mover now proposes shard0 -> spare for the same range: the
  // write-once claim record returns the established "0,1" spec and the
  // move is rejected without touching any data.
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.sim->RunUntil(
      [&] { return f.ssm->mover()->moves_rejected() >= 1; },
      f.sim->now() + 5 * kSecond));
  EXPECT_EQ(f.ssm->mover()->moves_done(), 0);
  EXPECT_EQ(f.ssm->mover()->table().epoch(), 1u);
}

// The headline test: crash the mover at EVERY phase boundary of the
// ladder, restart it, and require the move to complete exactly once with
// the data intact — driven purely by the write-once records (plus the
// client-side re-request for crashes before the claim committed).
TEST(ReshardTest, MoverCrashAtEveryPhaseBoundaryStillCompletesExactlyOnce) {
  for (int step = static_cast<int>(ShardMover::Step::kClaim);
       step <= static_cast<int>(ShardMover::Step::kUnfreeze); ++step) {
    SCOPED_TRACE("crash at step " + std::to_string(step));
    ReshardFixture f(100 + static_cast<uint64_t>(step));
    std::string key = f.ssm->KeyForShard(0, 0);
    ASSERT_TRUE(f.CommitSync(1, key, "payload"));

    MoveSpec spec = ReshardFixture::Shard0ToSpare();
    ShardMover* mover = f.ssm->mover();
    ASSERT_TRUE(mover->StartMove(spec));
    ASSERT_TRUE(f.sim->RunUntil(
        [mover, step] { return mover->max_step_reached() >= step; },
        f.sim->now() + 5 * kSecond))
        << "ladder never reached step " << step;
    f.sim->Crash(f.ssm->mover_id());
    f.sim->RunFor(700 * kMillisecond);
    f.sim->Restart(f.ssm->mover_id());

    // Recovery: the restarted mover resumes from the active-move hint or
    // a TM nudge; a crash before the claim record committed forgets the
    // request entirely, so the "client" re-requests it.
    for (int i = 0; i < 20 && mover->moves_done() == 0; ++i) {
      f.sim->RunFor(500 * kMillisecond);
      if (!mover->crashed() && mover->idle() && mover->moves_done() == 0) {
        mover->StartMove(spec);
      }
    }
    ASSERT_GE(mover->moves_done(), 1) << "move never completed";
    f.sim->RunFor(1 * kSecond);

    // Exactly once: one flip (epoch 2, no higher), data present at the
    // destination, fence at the source.
    smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
    EXPECT_TRUE(decisions.Get(RoutingTable::RtKey(2)).has_value());
    EXPECT_FALSE(decisions.Get(RoutingTable::RtKey(3)).has_value());
    EXPECT_EQ(f.ssm->shard_group(2)->FreshestKv().Get(key).value_or("NIL"),
              "payload");
    EXPECT_TRUE(f.ssm->shard_group(0)->FreshestKv().MovedEpoch(key).has_value());
    EXPECT_TRUE(f.ssm->Violations().empty());
  }
}

// A resume AFTER the flip must skip the copy: the destination is live
// and taking writes, and a re-copied snapshot would clobber them.
TEST(ReshardTest, PostFlipResumeDoesNotClobberNewOwnerWrites) {
  ReshardFixture f(31);
  std::string key = f.ssm->KeyForShard(0, 0);
  ASSERT_TRUE(f.CommitSync(1, key, "old"));

  ShardMover* mover = f.ssm->mover();
  ASSERT_TRUE(mover->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.sim->RunUntil(
      [mover] {
        return mover->max_step_reached() >=
               static_cast<int>(ShardMover::Step::kUnfreeze);
      },
      f.sim->now() + 5 * kSecond));
  f.sim->Crash(f.ssm->mover_id());

  // The flip is committed, so the new owner serves the range (after the
  // client's redirect-retry dance) even with the mover dead.
  uint64_t tx = 2;
  while (!f.CommitSync(tx, key, "new")) {
    ASSERT_LT(tx, 10u);
    ++tx;
  }
  f.sim->RunFor(500 * kMillisecond);
  EXPECT_EQ(f.ssm->shard_group(2)->FreshestKv().Get(key).value_or("NIL"),
            "new");

  // The restarted mover resumes, sees the flipped marker, and goes
  // straight to unfreeze — no re-copy of the stale "old" snapshot.
  f.sim->Restart(f.ssm->mover_id());
  ASSERT_TRUE(f.RunUntilMovesDone(1));
  f.sim->RunFor(1 * kSecond);
  EXPECT_EQ(f.ssm->shard_group(2)->FreshestKv().Get(key).value_or("NIL"),
            "new");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

// Transactions racing the move: every outcome the client saw must match
// the data — committed writes exist at the range's authoritative owner,
// aborted writes exist nowhere. Disjoint per-transaction keys make the
// assertion exact.
TEST(ReshardTest, MoveUnderTransactionTrafficLosesNothing) {
  ReshardFixture f(33);
  constexpr int kTxs = 24;
  std::map<uint64_t, TxOp> writes;
  // Wave 1: transactions in flight when the move starts.
  for (uint64_t tx = 1; tx <= kTxs / 2; ++tx) {
    int i = static_cast<int>(tx) - 1;
    TxOp op = TxOp::Put(f.ssm->KeyForShard(0, i), "v" + std::to_string(tx));
    writes[tx] = op;
    f.client->Begin(tx, {op});
  }
  f.sim->RunFor(100 * kMillisecond);
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  // Wave 2: transactions arriving mid-move (frozen range: these abort or
  // commit at the new owner after redirects — never split, never lost).
  for (uint64_t tx = kTxs / 2 + 1; tx <= kTxs; ++tx) {
    int i = static_cast<int>(tx) - 1;
    TxOp op = TxOp::Put(f.ssm->KeyForShard(0, i), "v" + std::to_string(tx));
    writes[tx] = op;
    f.client->Begin(tx, {op});
    f.sim->RunFor(50 * kMillisecond);
  }
  ASSERT_TRUE(f.sim->RunUntil(
      [&] {
        return f.client->outcomes.size() >= kTxs &&
               f.ssm->mover()->moves_done() >= 1;
      },
      f.sim->now() + 15 * kSecond));
  f.sim->RunFor(2 * kSecond);  // Drain all replication.

  smr::KvStore source = f.ssm->shard_group(0)->FreshestKv();
  smr::KvStore dest = f.ssm->shard_group(2)->FreshestKv();
  int committed = 0, aborted = 0;
  for (const auto& [tx, op] : writes) {
    ASSERT_TRUE(f.client->outcomes.count(tx) > 0);
    bool at_source = source.Get(op.key).value_or("") == op.value;
    bool at_dest = dest.Get(op.key).value_or("") == op.value;
    if (f.client->outcomes.at(tx)) {
      ++committed;
      // Not lost: the write survives at the owner the range ended up at
      // (source writes were migrated, so they appear at dest too).
      EXPECT_TRUE(at_dest) << "tx " << tx << " committed but its write to "
                           << op.key << " is not at the new owner";
    } else {
      ++aborted;
      // No ghosts: an aborted transaction's write exists nowhere.
      EXPECT_FALSE(at_source || at_dest)
          << "tx " << tx << " aborted but its write to " << op.key
          << " is visible";
    }
  }
  // The traffic actually exercised the move: something committed, and
  // the move completed under load.
  EXPECT_GT(committed, 0);
  EXPECT_EQ(committed + aborted, kTxs);
  EXPECT_EQ(f.ssm->mover()->table().GroupFor(0), 2);
  EXPECT_TRUE(f.ssm->Violations().empty());
}

// PR 6's windowed dedup across the flip: a window-4 client INCrementing
// a counter in the moved range keeps exactly-once semantics through
// freeze, fence, and flip — retries of pre-fence INCs are answered from
// the dedup cache (their cached numeric result), post-fence INCs bounce
// with MOVED, and the final counter at the new owner equals the number
// of numeric replies the client consumed.
TEST(ReshardTest, WindowedIncsStayExactlyOnceAcrossTheMove) {
  ReshardFixture f(35);
  std::string key = f.ssm->KeyForShard(0, 0);

  consensus::GroupClient* inc = f.sim->Spawn<consensus::GroupClient>(
      f.ssm->shard_group(0), 300 * kMillisecond, 4);
  f.sim->Start();
  std::map<uint64_t, std::string> results;
  inc->SetCallback([&results](uint64_t seq, const std::string& result, bool) {
    results[seq] = result;
  });

  constexpr int kIncs = 30;
  int submitted = 0;
  for (; submitted < kIncs / 2; ++submitted) {
    inc->Submit("INC " + key);
    f.sim->RunFor(20 * kMillisecond);
  }
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  for (; submitted < kIncs; ++submitted) {
    inc->Submit("INC " + key);
    f.sim->RunFor(20 * kMillisecond);
  }
  ASSERT_TRUE(f.RunUntilMovesDone(1));
  ASSERT_TRUE(f.sim->RunUntil(
      [&results] { return results.size() >= kIncs; },
      f.sim->now() + 10 * kSecond));
  f.sim->RunFor(1 * kSecond);

  int numeric = 0, moved = 0;
  for (const auto& [seq, result] : results) {
    if (result.compare(0, 6, "MOVED ") == 0) {
      ++moved;
    } else if (!result.empty() &&
               result.find_first_not_of("0123456789") == std::string::npos) {
      ++numeric;
    } else {
      ADD_FAILURE() << "seq " << seq << ": unexpected INC result \"" << result
                    << "\"";
    }
  }
  EXPECT_EQ(numeric + moved, kIncs);
  EXPECT_GT(numeric, 0);

  // Exactly-once: the migrated counter equals the successful INC count —
  // no pre-fence increment was double-applied by a windowed retry, none
  // was lost by the copy.
  smr::KvStore dest = f.ssm->shard_group(2)->FreshestKv();
  EXPECT_EQ(dest.Get(key).value_or("0"), std::to_string(numeric));
  EXPECT_TRUE(f.ssm->Violations().empty());
}

// The workload driver's routing view: reads bounced by the fence refetch
// the flipped table from the decision group and re-route; the full mixed
// load completes across the move with zero violations.
TEST(ReshardTest, WorkloadDriverFollowsTheMove) {
  ReshardFixture f(37);
  WorkloadOptions wo;
  wo.ops = 300;
  wo.concurrency = 6;
  wo.read_fraction = 0.5;
  wo.cross_shard_fraction = 0.3;
  wo.key_space = 120;
  wo.write_space = 60;
  WorkloadDriver* driver = SpawnWorkload(f.sim.get(), f.ssm.get(), wo);
  f.sim->Start();

  f.sim->RunFor(300 * kMillisecond);
  ASSERT_TRUE(f.ssm->mover()->StartMove(ReshardFixture::Shard0ToSpare()));
  ASSERT_TRUE(f.sim->RunUntil(
      [&] { return driver->done() && f.ssm->mover()->moves_done() >= 1; },
      f.sim->now() + 60 * kSecond));

  EXPECT_EQ(driver->stats().completed(), wo.ops);
  // The driver adopted the flipped table after a MOVED bounce.
  EXPECT_EQ(driver->table().epoch(), 2u);
  EXPECT_GE(driver->stats().moved, 1);
  EXPECT_GE(driver->stats().table_refreshes, 1);
  EXPECT_TRUE(f.ssm->Violations().empty());
}

}  // namespace
}  // namespace consensus40::shard
