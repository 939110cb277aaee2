// Cross-protocol safety-checker sweep (src/check/):
//
//   1. In-bounds: every protocol adapter is swept over seeded fault
//      schedules drawn from its own stated fault bounds; no schedule may
//      violate any safety invariant. On failure the schedule is shrunk
//      and printed as a replayable repro.
//   2. Out-of-bounds: configurations the paper calls unsafe (Flexible
//      Paxos with q1+q2<=n, FloodSet at f rounds, PBFT at n=3f) must
//      yield violations the checker can find, shrink, and replay.
//   3. Regressions: seeds on which a longer workload once found a bug
//      must stay clean.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/adapters.h"
#include "check/checker.h"
#include "check/shrink.h"

namespace consensus40::check {
namespace {

constexpr int kSchedulesPerProtocol = 200;

void SweepInBounds(const char* label, const AdapterFactory& factory) {
  for (uint64_t seed = 1; seed <= kSchedulesPerProtocol; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;
    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);
    ADD_FAILURE() << label << ": safety violation at seed " << seed << ":\n  "
                  << result.violations[0] << "\n  repro: " << min.ToString();
    return;  // One shrunk repro per protocol is enough signal.
  }
}

TEST(CheckSweepInBounds, Paxos) { SweepInBounds("paxos", MakePaxosAdapter()); }

TEST(CheckSweepInBounds, MultiPaxos) {
  SweepInBounds("multi_paxos", MakeMultiPaxosAdapter());
}

TEST(CheckSweepInBounds, FastPaxos) {
  SweepInBounds("fast_paxos", MakeFastPaxosAdapter());
}

TEST(CheckSweepInBounds, Raft) { SweepInBounds("raft", MakeRaftAdapter()); }

TEST(CheckSweepInBounds, Pbft) { SweepInBounds("pbft", MakePbftAdapter()); }

TEST(CheckSweepInBounds, MinBft) {
  SweepInBounds("minbft", MakeMinBftAdapter());
}

TEST(CheckSweepInBounds, HotStuff) {
  SweepInBounds("hotstuff", MakeHotStuffAdapter());
}

TEST(CheckSweepInBounds, Xft) { SweepInBounds("xft", MakeXftAdapter()); }

TEST(CheckSweepInBounds, Zyzzyva) {
  SweepInBounds("zyzzyva", MakeZyzzyvaAdapter());
}

TEST(CheckSweepInBounds, CheapBft) {
  SweepInBounds("cheapbft", MakeCheapBftAdapter());
}

TEST(CheckSweepInBounds, TwoPhaseCommit) {
  SweepInBounds("2pc", MakeTwoPhaseCommitAdapter());
}

TEST(CheckSweepInBounds, ThreePhaseCommit) {
  SweepInBounds("3pc", MakeThreePhaseCommitAdapter());
}

TEST(CheckSweepInBounds, BenOr) { SweepInBounds("benor", MakeBenOrAdapter()); }

// The sharded 2PC-over-consensus composition: atomicity and prefix
// consistency must survive replica crashes, whole-shard partitions, AND
// the classic coordinator-crash-between-prepare-and-commit — the fault
// plain 2PC (below, out of bounds) demonstrably blocks under.
TEST(CheckSweepInBounds, ShardedTwoPhaseCommitOverConsensus) {
  SweepInBounds("shard", MakeShardAdapter());
}

// Crossword's adaptive assignment: command sizes in the generic workload
// sit below kMinPayloadToShard, so this sweeps the protocol's classic
// full-copy path plus leader-change recovery of full-value slots.
TEST(CheckSweepInBounds, Crossword) {
  SweepInBounds("crossword", MakeCrosswordAdapter());
}

// Pinned at one shard per acceptor: every accept is a coded fragment,
// every follower apply is a reconstruction, and every leader change
// reassembles possibly-chosen values from promise fragments — the
// maximum-stress configuration for the widened quorum q2(1) = n and the
// chosen-slot promise/teach machinery.
TEST(CheckSweepInBounds, CrosswordRs) {
  SweepInBounds("crossword_rs", MakeCrosswordRsAdapter());
}

TEST(CheckSweepInBounds, FloodSet) {
  SweepInBounds("floodset", MakeFloodSetAdapter());
}

// The hot-path optimisations — leader-side batching, linger timers, and
// windowed (out-of-order-tolerant) clients — must not move any protocol
// outside its safety envelope.
TEST(CheckSweepInBounds, RaftBatched) {
  SweepInBounds("raft_batched", MakeBatchedGroupAdapter("raft"));
}

TEST(CheckSweepInBounds, MultiPaxosBatched) {
  SweepInBounds("multi_paxos_batched", MakeBatchedGroupAdapter("multi_paxos"));
}

TEST(CheckSweepInBounds, ShardBatched) {
  SweepInBounds("shard_batched", MakeShardBatchedAdapter());
}

// Elastic resharding: a live range move (shard 0's whole initial range
// to a spare group) races the cross-shard transactions while schedules
// crash the mover inside the move window, cut the old or new owner off
// mid-copy, and keep the usual replica/coordinator faults. Atomicity,
// prefix consistency, no lost writes, AND termination must all hold: the
// move's transitions are write-once decision-group records, so any
// participant finishes a dead mover's move.
TEST(CheckSweepInBounds, ShardReshard) {
  SweepInBounds("shard_reshard", MakeShardReshardAdapter());
}

// Typed read-write transactions (GET/PUT/DELETE/CAS under prepare-time
// shared/exclusive locking) plus repeated read-only snapshots, racing a
// live range move under the reshard fault envelope. On top of atomicity
// and prefix consistency the adapter audits serializability: for every
// schedule the committed transactions' observed reads must admit a
// serial order, and every snapshot value must be one a committed
// transaction wrote.
TEST(CheckSweepInBounds, ShardTxn) {
  SweepInBounds("shard_txn", MakeShardTxnAdapter());
}

// --- Byzantine variants: one interposer-driven liar inside the stated f.
// Schedules may equivocate (where a forge hook exists), withhold, corrupt,
// or replay one node's outbound traffic in seed-chosen windows — and for
// PBFT may also be view-change-heavy bursts that silence consecutive
// primaries mid-client-burst. Safety must hold for every schedule.

TEST(CheckSweepInBounds, PbftByzantine) {
  SweepInBounds("pbft_byz", MakePbftByzantineAdapter());
}

TEST(CheckSweepInBounds, ZyzzyvaByzantine) {
  SweepInBounds("zyzzyva_byz", MakeZyzzyvaByzantineAdapter());
}

TEST(CheckSweepInBounds, MinBftByzantine) {
  SweepInBounds("minbft_byz", MakeMinBftByzantineAdapter());
}

TEST(CheckSweepInBounds, HotStuffByzantine) {
  SweepInBounds("hotstuff_byz", MakeHotStuffByzantineAdapter());
}

TEST(CheckSweepInBounds, XftByzantine) {
  SweepInBounds("xft_byz", MakeXftByzantineAdapter());
}

TEST(CheckSweepInBounds, CheapBftByzantine) {
  SweepInBounds("cheapbft_byz", MakeCheapBftByzantineAdapter());
}

// A lost accept once stalled Multi-Paxos for good: the leader sent each
// accept once, and the pipeline drops client retries of a command in
// flight, so nothing filled the hole at the commit frontier. Each of
// these 40-op seeds lost one; the leader now re-sends stalled accepts.
TEST(CheckRegression, MultiPaxosRepairsLostAccepts) {
  const AdapterFactory factory = MakeGroupAdapter("multi_paxos", 40);
  for (uint64_t seed : {133, 163, 176, 237, 325, 643}) {
    const RunResult result = RunSeed(factory, seed);
    EXPECT_FALSE(result.violated())
        << "seed " << seed << ": " << result.violations[0];
  }
}

TEST(CheckSweepInBounds, RosterCoversAtLeastTenProtocols) {
  EXPECT_GE(AllInBoundsAdapters().size(), 10u);
}

// ---------------------------------------------------------------------------
// Out-of-bounds: the checker must find what the paper says must break.
// ---------------------------------------------------------------------------

/// Sweeps seeds until a violating schedule is found; then shrinks it,
/// verifies the shrunk schedule still violates when replayed (twice, to
/// pin determinism), prints the repro, and checks the violation matches
/// `expect_substr`.
void ExpectViolationFound(const char* label, const AdapterFactory& factory,
                          int max_seeds, const std::string& expect_substr) {
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(max_seeds); ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    bool matched = false;
    for (const std::string& v : result.violations) {
      matched |= v.find(expect_substr) != std::string::npos;
    }
    EXPECT_TRUE(matched) << label << ": expected a \"" << expect_substr
                         << "\" violation, got: " << result.violations[0];

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);
    EXPECT_LE(min.actions.size(), schedule.actions.size());

    // The shrunk schedule is a replayable repro: deterministic violations
    // on every re-run.
    RunResult replay1 = RunSchedule(factory, seed, min);
    RunResult replay2 = RunSchedule(factory, seed, min);
    EXPECT_TRUE(replay1.violated()) << label << ": shrunk schedule lost the "
                                    << "violation: " << min.ToString();
    EXPECT_EQ(replay1.violations, replay2.violations)
        << label << ": repro is not deterministic";

    std::printf("[checker] %s: violation at seed %llu: %s\n  repro: %s\n",
                label, static_cast<unsigned long long>(seed),
                replay1.violations.empty() ? result.violations[0].c_str()
                                           : replay1.violations[0].c_str(),
                min.ToString().c_str());
    return;
  }
  ADD_FAILURE() << label << ": no violation found in " << max_seeds
                << " seeds — the checker missed a known-unsafe configuration";
}

TEST(CheckSweepOutOfBounds, FlexiblePaxosNonIntersectingQuorumsDoubleDecide) {
  ExpectViolationFound("paxos-q1+q2<=n", MakePaxosOutOfBoundsAdapter(), 400,
                       "agreement");
}

TEST(CheckSweepOutOfBounds, FloodSetAtFRoundsSplitsDecisions) {
  ExpectViolationFound("floodset-f-rounds", MakeFloodSetOutOfBoundsAdapter(),
                       400, "agreement");
}

TEST(CheckSweepOutOfBounds, PbftAtThreeFForksHonestBackups) {
  ExpectViolationFound("pbft-n=3f", MakePbftOutOfBoundsAdapter(), 50,
                       "prefix");
}

// Plain 2PC with the coordinator crashed in the decision window and never
// restarted: participants stay prepared forever. The adapter claims
// termination, so the checker must surface the blocking as a liveness
// violation — the exact contrast to the in-bounds shard sweep above.
TEST(CheckSweepOutOfBounds, PlainTwoPhaseCommitBlocksOnCoordinatorCrash) {
  ExpectViolationFound("2pc-blocking", MakeTwoPhaseCommitBlockingAdapter(), 50,
                       "liveness");
}

// Crossword with the coded-accept quorum cut to a bare majority: a
// 1-shard entry reaches "chosen" with fewer distinct fragments in the
// cluster than the k needed to reconstruct it. Partitioning away the
// leader (the only full copy) leaves the surviving majority staring at
// slots nobody can reassemble, and phase 1 cannot tell them from
// unchosen ones — the new leader re-proposes fresh client commands over
// decided indexes and the logs diverge (the safety face, asserted
// here). The same under-replication also shows a liveness face — the
// shrunk repro strands the workload on an unreconstructable slot past
// the heal — but divergence is the sharper indictment.
TEST(CheckSweepOutOfBounds, CrosswordMajorityQuorumUnderReplicatesShards) {
  ExpectViolationFound("crossword-majority-q2",
                       MakeCrosswordOutOfBoundsAdapter(), 200, "prefix");
}

// The typed-transaction composition with GET ops' shared locks switched
// off and two concurrent write-skew clients (tx 1 reads x / writes y,
// tx 2 reads y / writes x). Without read locks neither prepare
// conflicts, both commit having read the initial versions, and no
// serial order explains the history — the exact anomaly the shared
// locks exist to prevent, caught by the serializability audit.
TEST(CheckSweepOutOfBounds, TxnWithoutReadLocksAllowsWriteSkew) {
  ExpectViolationFound("shard-txn-no-read-locks",
                       MakeShardTxnNoReadLocksAdapter(), 50,
                       "no serial order");
}

// The move ladder with the flip made before freeze + drain: in-flight
// transactions at the old owner apply their writes behind the copy
// snapshot and the routing fence, so a committed write exists at no
// owner. The exact contrast to the in-bounds reshard sweep above.
TEST(CheckSweepOutOfBounds, ReshardFlipBeforeDrainLosesWrites) {
  ExpectViolationFound("reshard-flip-before-drain",
                       MakeShardReshardOutOfBoundsAdapter(), 50, "lost write");
}

// ---------------------------------------------------------------------------
// Canonicalization: repro lines must be minimal AND stable.
// ---------------------------------------------------------------------------

/// The first Flexible-Paxos violation's repro, after ddmin + the
/// canonicalization pass, is pinned byte-for-byte: action times snapped
/// to round milliseconds and aux randomness zeroed, so the line survives
/// schedule-generator refactors that preserve behaviour. If this fails
/// because the *generator* intentionally changed, re-pin the string; if
/// it fails with the same generator, canonicalization regressed.
TEST(ShrinkCanonicalize, KnownReproHasCanonicalForm) {
  AdapterFactory factory = MakePaxosOutOfBoundsAdapter();
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    ShrinkStats stats;
    FaultSchedule min = ShrinkSchedule(schedule, bounds, replay, 400, &stats);
    min = CanonicalizeSchedule(std::move(min), bounds, replay, &stats);

    // Canonical repros still violate, deterministically.
    EXPECT_TRUE(RunSchedule(factory, seed, min).violated());
    // Simulation-based adapters ignore aux, so canonicalization always
    // zeroes it; times snap to >= 1 ms grains.
    for (const FaultAction& a : min.actions) {
      EXPECT_EQ(a.aux, 0u);
      EXPECT_EQ(a.at % sim::kMillisecond, 0);
    }
    EXPECT_GT(stats.snapped, 0) << "canonicalization accepted no edits";
    // The repro keeps its heal: the shrinker may not delete the tail
    // restore (RestoreScheduleTail re-establishes it), so every printed
    // schedule is one the generator could actually emit.
    EXPECT_EQ(min.ToString(),
              "schedule --seed=29: [ partition({0,2}|{1,3})@200ms "
              "heal@1700ms ]");
    return;
  }
  FAIL() << "no Flexible-Paxos violation in 400 seeds";
}

/// The f+1-equivocator repro is pinned the same way: the first violating
/// seed of the PBFT n=3f configuration must shrink — deterministically,
/// via ddmin + canonicalization — to a single equivocation window with
/// round times and zeroed aux. Same re-pin rule as above: if the
/// *generator* intentionally changed, update the string; otherwise the
/// shrinker or the Byzantine injection path regressed.
TEST(ShrinkCanonicalize, EquivocatorReproHasCanonicalForm) {
  AdapterFactory factory = MakePbftOutOfBoundsAdapter();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);

    EXPECT_TRUE(RunSchedule(factory, seed, min).violated());
    ASSERT_EQ(min.actions.size(), 1u);
    EXPECT_EQ(min.actions[0].kind, FaultKind::kEquivocate);
    EXPECT_EQ(min.actions[0].aux, 0u);
    EXPECT_EQ(min.actions[0].at % sim::kMillisecond, 0);
    EXPECT_EQ(min.actions[0].window % sim::kMillisecond, 0);
    EXPECT_EQ(min.ToString(),
              "schedule --seed=1: [ equivocate(0,500ms)@100ms ]");
    return;
  }
  FAIL() << "no PBFT n=3f violation in 50 seeds";
}

/// The flip-before-drain lost-write repro is pinned the same way: the
/// first violating seed of the unsafe reshard ladder must shrink —
/// deterministically, via ddmin + canonicalization — to the same action
/// list with round times and zeroed aux. The shape is instructive: a
/// dest-group replica crash slows the copy just enough, and the mover
/// crash parks the move mid-ladder, for an in-flight transaction to
/// apply its write behind the already-flipped routing fence. Same re-pin
/// rule as above: if the *generator* intentionally changed, update the
/// string; otherwise the shrinker or the reshard ladder regressed.
TEST(ShrinkCanonicalize, ReshardLostWriteReproHasCanonicalForm) {
  AdapterFactory factory = MakeShardReshardOutOfBoundsAdapter();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);

    EXPECT_TRUE(RunSchedule(factory, seed, min).violated());
    for (const FaultAction& a : min.actions) {
      EXPECT_EQ(a.aux, 0u);
      EXPECT_EQ(a.at % sim::kMillisecond, 0);
    }
    EXPECT_EQ(min.ToString(),
              "schedule --seed=8: [ crash(8)@100ms mover-crash(23)@400ms "
              "restart(23)@2000ms restart(8)@2000ms ]");
    return;
  }
  FAIL() << "no flip-before-drain violation in 50 seeds";
}

/// The write-skew repro is pinned the same way — and is the starkest of
/// the set: ddmin deletes EVERY action, because the anomaly needs no
/// faults at all. With GET's shared locks off, the two concurrent
/// readers-of-each-other's-writes commit on a plain fault-free run;
/// the canonical repro is the empty schedule at the first seed whose
/// generated schedule let both transactions commit. Same re-pin rule as
/// above: update the string only when the schedule generator
/// intentionally changed; otherwise the audit or the lock path
/// regressed.
TEST(ShrinkCanonicalize, WriteSkewReproHasCanonicalForm) {
  AdapterFactory factory = MakeShardTxnNoReadLocksAdapter();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    EXPECT_NE(result.violations[0].find(
                  "no serial order of the committed transactions {1,2}"),
              std::string::npos)
        << result.violations[0];

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);

    EXPECT_TRUE(RunSchedule(factory, seed, min).violated());
    EXPECT_EQ(min.actions.size(), 0u);
    EXPECT_EQ(min.ToString(), "schedule --seed=2: [ ]");
    return;
  }
  FAIL() << "no write-skew violation in 50 seeds";
}

/// The Crossword bare-majority repro, pinned the same way. The shape
/// reads straight off the flaw: a delay spike while the 40-op workload
/// is in flight leaves sharded commits un-disseminated past the bare
/// quorum, then the partition isolates the leader-side full copies —
/// the surviving majority holds fewer than k distinct fragments of the
/// committed slots and parks forever, heal notwithstanding (the full
/// generated schedule additionally diverges the logs; shrinking keeps
/// the violation but lands on the liveness face). Same re-pin rule as
/// above: update the string only when the schedule *generator*
/// intentionally changed; any other drift means the shrinker or the
/// protocol's recovery path regressed.
TEST(ShrinkCanonicalize, CrosswordUnderReplicationReproHasCanonicalForm) {
  AdapterFactory factory = MakeCrosswordOutOfBoundsAdapter();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule schedule;
    RunResult result = RunSeed(factory, seed, &schedule);
    if (!result.violated()) continue;

    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    FaultSchedule min = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);

    EXPECT_TRUE(RunSchedule(factory, seed, min).violated());
    for (const FaultAction& a : min.actions) {
      EXPECT_EQ(a.aux, 0u);
      EXPECT_EQ(a.at % sim::kMillisecond, 0);
    }
    EXPECT_EQ(min.ToString(),
              "schedule --seed=1: [ spike(13ms..33ms)@200ms "
              "partition({0,1,4}|{2,3})@1300ms unspike@2000ms heal@2000ms ]");
    return;
  }
  FAIL() << "no crossword under-replication violation in 50 seeds";
}

}  // namespace
}  // namespace consensus40::check
