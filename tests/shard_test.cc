// Tests for src/shard/: the sharded state machine, 2PC-over-consensus
// commit, and the workload driver. The coordinator-failover test is the
// one the subsystem exists for: classic 2PC blocks when the coordinator
// dies between prepare and commit; here the participants terminate the
// protocol through the replicated decision group on their own.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shard/reshard.h"
#include "shard/shard.h"
#include "shard/workload.h"
#include "sim/simulation.h"
#include "smr/state_machine.h"

namespace consensus40::shard {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Minimal transaction client: Begin() transactions, collect outcomes,
/// re-submit on timeout (like a real client would across coordinator
/// crashes).
class TestClient : public sim::Process {
 public:
  explicit TestClient(sim::NodeId coordinator, sim::Duration retry = 2 * kSecond)
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
    reasons[m->tx_id] = m->reason;
    reads[m->tx_id] = m->reads;
    snapshot_epochs[m->tx_id] = m->snapshot_epoch;
    pending_.erase(m->tx_id);
  }

  std::map<uint64_t, bool> outcomes;
  std::map<uint64_t, TxAbortReason> reasons;
  std::map<uint64_t, std::vector<TxReadResult>> reads;
  std::map<uint64_t, uint64_t> snapshot_epochs;

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

struct ShardFixture {
  explicit ShardFixture(uint64_t seed, ShardOptions options = ShardOptions()) {
    ssm = std::make_unique<ShardedStateMachine>(options);
    sim = sim::Simulation::Builder(seed)
              .Setup([this](sim::Simulation& s) { ssm->Build(&s); })
              .AutoStart(false)
              .Build();
    client = sim->Spawn<TestClient>(ssm->coordinator_id());
    sim->Start();
    // Let every group elect a leader before transactions start.
    sim->RunFor(500 * kMillisecond);
  }

  std::unique_ptr<ShardedStateMachine> ssm;
  std::unique_ptr<sim::Simulation> sim;
  TestClient* client = nullptr;
};

TEST(ShardTest, SingleShardTransactionCommitsOnePhase) {
  ShardFixture f(7);
  std::string key = f.ssm->KeyForShard(0, 0);
  f.client->Begin(1, {TxOp::Put(key, "v1")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  EXPECT_TRUE(f.client->outcomes.at(1));
  f.sim->RunFor(500 * kMillisecond);  // Let replication settle.

  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  EXPECT_EQ(shard0.Get(key).value_or("NIL"), "v1");
  // One-phase: no durable prepare record, no decision record.
  EXPECT_FALSE(shard0.Get(PrepareKey(1)).has_value());
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_FALSE(decisions.Get(DecisionKey(1)).has_value());
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, CrossShardTransactionCommitsAtomically) {
  ShardFixture f(11);
  std::string k0 = f.ssm->KeyForShard(0, 0);
  std::string k1 = f.ssm->KeyForShard(1, 0);
  f.client->Begin(1, {TxOp::Put(k0, "v1"), TxOp::Put(k1, "v1")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  EXPECT_TRUE(f.client->outcomes.at(1));
  f.sim->RunFor(1 * kSecond);

  // Both shards applied their slice; the decision group holds COMMIT;
  // each shard carries the durable prepare record.
  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  smr::KvStore shard1 = f.ssm->shard_group(1)->FreshestKv();
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_EQ(shard0.Get(k0).value_or("NIL"), "v1");
  EXPECT_EQ(shard1.Get(k1).value_or("NIL"), "v1");
  EXPECT_EQ(decisions.Get(DecisionKey(1)).value_or("NIL"), "C");
  EXPECT_EQ(shard0.Get(PrepareKey(1)).value_or("NIL"), "P");
  EXPECT_EQ(shard1.Get(PrepareKey(1)).value_or("NIL"), "P");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, ConflictingTransactionAborts) {
  ShardFixture f(13);
  std::string shared = f.ssm->KeyForShard(0, 0);
  std::string k1a = f.ssm->KeyForShard(1, 0);
  std::string k1b = f.ssm->KeyForShard(1, 1);
  // Tx 1 prepares first and holds the lock on `shared` while its
  // decision round runs; tx 2 arrives mid-flight and must vote NO.
  f.client->Begin(1, {TxOp::Put(shared, "v1"), TxOp::Put(k1a, "v1")});
  f.sim->ScheduleAfter(10 * kMillisecond, [&] {
    f.client->Begin(2, {TxOp::Put(shared, "v2"), TxOp::Put(k1b, "v2")});
  });
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.size() == 2; },
                              f.sim->now() + 10 * kSecond));
  EXPECT_TRUE(f.client->outcomes.at(1));
  EXPECT_FALSE(f.client->outcomes.at(2));
  f.sim->RunFor(1 * kSecond);

  // Atomicity of the abort: NONE of tx 2's writes exist anywhere, and
  // the decision group records the abort.
  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  smr::KvStore shard1 = f.ssm->shard_group(1)->FreshestKv();
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_EQ(shard0.Get(shared).value_or("NIL"), "v1");
  EXPECT_EQ(shard1.Get(k1b).value_or("NIL"), "NIL");
  EXPECT_EQ(decisions.Get(DecisionKey(2)).value_or("NIL"), "A");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, CoordinatorCrashMidTransactionStaysAtomic) {
  ShardFixture f(17);
  std::string k0 = f.ssm->KeyForShard(0, 0);
  std::string k1 = f.ssm->KeyForShard(1, 0);
  // Crash the coordinator right after it fans out prepares — the window
  // where classic 2PC blocks forever — and restart it much later.
  sim::Time begin_at = f.sim->now();
  f.client->Begin(1, {TxOp::Put(k0, "v1"), TxOp::Put(k1, "v1")});
  sim::NodeId coordinator = f.ssm->coordinator_id();
  f.sim->ScheduleAt(begin_at + 15 * kMillisecond,
                    [&] { f.sim->Crash(coordinator); });
  f.sim->ScheduleAt(begin_at + 3 * kSecond,
                    [&] { f.sim->Restart(coordinator); });

  // The client still gets an outcome (via its retry), WITHOUT waiting
  // for the coordinator: prepared TMs terminate through the decision
  // group on their own.
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 30 * kSecond));
  f.sim->RunFor(2 * kSecond);

  bool committed = f.client->outcomes.at(1);
  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  smr::KvStore shard1 = f.ssm->shard_group(1)->FreshestKv();
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  std::string decision = decisions.Get(DecisionKey(1)).value_or("NIL");
  // Whatever was decided, it is (a) recorded durably, (b) consistent
  // with the client-visible outcome, and (c) applied on ALL shards or
  // NONE — the atomicity contract under coordinator failure.
  ASSERT_NE(decision, "NIL");
  EXPECT_EQ(decision == "C", committed);
  EXPECT_EQ(shard0.Get(k0).value_or("NIL"), committed ? "v1" : "NIL");
  EXPECT_EQ(shard1.Get(k1).value_or("NIL"), committed ? "v1" : "NIL");
  // Participant-driven termination actually ran.
  int recoveries = 0;
  for (int s = 0; s < 2; ++s) recoveries += f.ssm->tx_manager(s)->recoveries();
  EXPECT_GT(recoveries, 0);
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, WorkloadDriverRunsMixedLoad) {
  ShardOptions so;
  so.shards = 4;
  ShardFixture f(23, so);
  WorkloadOptions wo;
  wo.ops = 120;
  wo.concurrency = 6;
  wo.read_fraction = 0.4;
  wo.cross_shard_fraction = 0.5;
  wo.key_space = 200;   // Miss-heavy: reads range far beyond...
  wo.write_space = 40;  // ...the keys writes can touch.
  WorkloadDriver* driver = SpawnWorkload(f.sim.get(), f.ssm.get(), wo);
  std::map<uint64_t, bool> outcomes;
  driver->SetOutcomeFn(
      [&](uint64_t tx_id, bool committed) { outcomes[tx_id] = committed; });
  f.sim->Start();  // Start the newly spawned workload processes.

  ASSERT_TRUE(
      f.sim->RunUntil([&] { return driver->done(); }, f.sim->now() + 120 * kSecond));
  EXPECT_FALSE(outcomes.empty());
  const WorkloadStats& stats = driver->stats();
  EXPECT_EQ(stats.completed(), wo.ops);
  EXPECT_GT(stats.reads.completed, 0);
  EXPECT_GT(stats.cross.completed, 0);
  EXPECT_GT(stats.reads.misses, 0);  // The miss-heavy mix actually missed.
  EXPECT_GT(stats.cross.committed + stats.single.committed, 0);
  EXPECT_TRUE(f.ssm->Violations().empty());

  // Every committed cross-shard transaction is all-or-nothing across its
  // shards; spot-check the reported outcomes against the decision
  // group's state: a committed tx's value appears under the keys
  // it wrote unless a later committed tx overwrote them — so just assert
  // no group-level violations and consistent decision records.
  const smr::KvStore& decisions = f.ssm->decision_group()->FreshestKv();
  for (const auto& [tx_id, committed] : outcomes) {
    std::string d = decisions.Get(DecisionKey(tx_id)).value_or("NIL");
    if (d != "NIL") {
      EXPECT_EQ(d == "C", committed) << "tx " << tx_id;
    }
  }
}

TEST(ShardTest, ReadYourWritesInsideOneTransaction) {
  ShardFixture f(29);
  std::string key = f.ssm->KeyForShard(0, 0);
  // GET before the write sees the initial (absent) version; GET after
  // sees the transaction's own uncommitted write (the prepare-time
  // overlay), not the stored state.
  f.client->Begin(1, {TxOp::Get(key), TxOp::Put(key, "v1"), TxOp::Get(key)});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  ASSERT_TRUE(f.client->outcomes.at(1));
  const std::vector<TxReadResult>& reads = f.client->reads.at(1);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].op_index, 0);
  EXPECT_FALSE(reads[0].found);
  EXPECT_EQ(reads[1].op_index, 2);
  EXPECT_TRUE(reads[1].found);
  EXPECT_EQ(reads[1].value, "v1");
  f.sim->RunFor(500 * kMillisecond);
  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  EXPECT_EQ(shard0.Get(key).value_or("NIL"), "v1");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, CasValidatesAtPrepareAndMismatchAborts) {
  ShardFixture f(31);
  std::string key = f.ssm->KeyForShard(0, 0);
  f.client->Begin(1, {TxOp::Put(key, "v1")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  ASSERT_TRUE(f.client->outcomes.at(1));

  // Mismatched expectation: structured abort, nothing applied.
  f.client->Begin(2, {TxOp::Cas(key, "wrong", "v2")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(2) > 0; },
                              f.sim->now() + 5 * kSecond));
  EXPECT_FALSE(f.client->outcomes.at(2));
  EXPECT_EQ(f.client->reasons.at(2), TxAbortReason::kCasMismatch);

  // Matching expectation: commits, and — because a re-run of a one-phase
  // CAS could flip its verdict — always through a decision record, even
  // single-shard.
  f.client->Begin(3, {TxOp::Cas(key, "v1", "v3")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(3) > 0; },
                              f.sim->now() + 5 * kSecond));
  EXPECT_TRUE(f.client->outcomes.at(3));
  f.sim->RunFor(1 * kSecond);
  smr::KvStore shard0 = f.ssm->shard_group(0)->FreshestKv();
  EXPECT_EQ(shard0.Get(key).value_or("NIL"), "v3");
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_EQ(decisions.Get(DecisionKey(3)).value_or("NIL"), "C");
  EXPECT_EQ(decisions.Get(DecisionKey(2)).value_or("NIL"), "A");
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, SnapshotReadTakesNoLocksAndWritesNoRecords) {
  ShardFixture f(37);
  std::string k0 = f.ssm->KeyForShard(0, 0);
  std::string k1 = f.ssm->KeyForShard(1, 0);
  // An all-GET transaction takes the snapshot path: reads of the two
  // (absent) keys come back consistent, and the TMs never hear of it —
  // no lock-table entry, no prepare, no decision record.
  f.client->Begin(1, {TxOp::Get(k0), TxOp::Get(k1)});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  ASSERT_TRUE(f.client->outcomes.at(1));
  const std::vector<TxReadResult>& reads = f.client->reads.at(1);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_FALSE(reads[0].found);
  EXPECT_FALSE(reads[1].found);
  EXPECT_EQ(f.client->snapshot_epochs.at(1), 1u);
  EXPECT_EQ(f.ssm->coordinator()->snapshots(), 1);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(f.ssm->tx_manager(s)->lock_table_size(), 0u);
    EXPECT_EQ(f.ssm->tx_manager(s)->prepares(), 0);
  }
  f.sim->RunFor(500 * kMillisecond);
  smr::KvStore decisions = f.ssm->decision_group()->FreshestKv();
  EXPECT_FALSE(decisions.Get(DecisionKey(1)).has_value());
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, SnapshotRacingLiveMoveIsNeverTorn) {
  ShardOptions so;
  so.spare_groups = 1;
  ShardFixture f(41, so);
  std::string a0 = f.ssm->KeyForShard(0, 0);  // In the range that moves.
  std::string b0 = f.ssm->KeyForShard(1, 0);
  f.client->Begin(1, {TxOp::Put(a0, "v1"), TxOp::Put(b0, "v1")});
  ASSERT_TRUE(f.sim->RunUntil([&] { return f.client->outcomes.count(1) > 0; },
                              f.sim->now() + 5 * kSecond));
  ASSERT_TRUE(f.client->outcomes.at(1));
  f.sim->RunFor(1 * kSecond);  // Both writes applied.

  // Move shard 0's whole initial range to the spare group while
  // snapshots run back-to-back. Every snapshot must see BOTH keys with
  // the committed value — a missing read would mean the snapshot mixed
  // routing epochs (read a0 at an owner the move had already drained).
  MoveSpec spec;
  spec.lo = 0;
  spec.hi = f.ssm->InitialTable().entries()[1].lo;
  spec.to = 2;
  ASSERT_TRUE(f.ssm->mover()->StartMove(spec));
  uint64_t snap_id = 100;
  int snaps = 0;
  while (f.ssm->mover()->moves_done() < 1 && snaps < 200) {
    ++snap_id;
    ++snaps;
    f.client->Begin(snap_id, {TxOp::Get(a0), TxOp::Get(b0)});
    ASSERT_TRUE(f.sim->RunUntil(
        [&] { return f.client->outcomes.count(snap_id) > 0; },
        f.sim->now() + 10 * kSecond));
    ASSERT_TRUE(f.client->outcomes.at(snap_id));
    const std::vector<TxReadResult>& reads = f.client->reads.at(snap_id);
    ASSERT_EQ(reads.size(), 2u);
    for (const TxReadResult& r : reads) {
      EXPECT_TRUE(r.found) << "snapshot " << snap_id << " lost a read";
      EXPECT_EQ(r.value, "v1");
    }
    f.sim->RunFor(20 * kMillisecond);
  }
  EXPECT_GE(f.ssm->mover()->moves_done(), 1);
  EXPECT_GT(snaps, 1);  // The race actually happened.
  // The TMs processed tx 1's prepare but no snapshot ever locked.
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(f.ssm->tx_manager(s)->lock_table_size(), 0u);
  }
  EXPECT_TRUE(f.ssm->Violations().empty());
}

TEST(ShardTest, ShardOfIsStableAndBalanced) {
  ShardOptions so;
  so.shards = 4;
  ShardedStateMachine ssm(so);
  // Pinned hash values: ShardOf must be identical across platforms, or
  // every seeded workload and checker schedule changes meaning. The hash
  // is FNV-1a + fmix64 (KeyHash): range routing reads the top bits, which
  // raw FNV-1a leaves skewed for short sequential keys.
  EXPECT_EQ(ShardedStateMachine::HashKey("k0"), 0x0549eda7a9a2b5c9ull);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[static_cast<size_t>(ssm.ShardOf("k" + std::to_string(i)))];
  }
  for (int c : counts) EXPECT_GT(c, 40);  // No shard starves.
}

}  // namespace
}  // namespace consensus40::shard
