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
#include <optional>
#include <string>
#include <utility>

#include "check/adapters.h"
#include "check/checker.h"
#include "check/parallel_sweep.h"
#include "common/parallel_for.h"

namespace consensus40::check {
namespace {

constexpr uint64_t kSchedulesPerProtocol = 200;

// One instance per roster entry of AllInBoundsAdapters() (adapters.h
// says what each one runs and under which faults), named after it, so a
// new roster entry is gated without a test edit. Every entry must come
// through seeds 1-200 with no violation; a failure prints the sweep's
// shrunk repro line of every violating seed.
class CheckSweepInBounds
    : public testing::TestWithParam<std::pair<const char*, AdapterFactory>> {};

TEST_P(CheckSweepInBounds, Clean) {
  const SweepReport report =
      RunSweep({GetParam()}, kSchedulesPerProtocol, HardwareConcurrency());
  std::string repros;
  for (const std::string& line : report.protocols[0].repros) {
    repros += "\n  " + line;
  }
  EXPECT_EQ(report.total_violations(), 0u)
      << GetParam().first << ": safety violations:" << repros;
}

INSTANTIATE_TEST_SUITE_P(
    Roster, CheckSweepInBounds, testing::ValuesIn(AllInBoundsAdapters()),
    [](const testing::TestParamInfo<CheckSweepInBounds::ParamType>& info) {
      return std::string(info.param.first);
    });

TEST(CheckSweepRoster, CoversAtLeastTenProtocols) {
  EXPECT_GE(AllInBoundsAdapters().size(), 10u);
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

// ---------------------------------------------------------------------------
// Out-of-bounds: the checker must find what the paper says must break.
// ---------------------------------------------------------------------------

/// The first of seeds [1, max_seeds] whose schedule violates, checked as
/// the sweep checks it (so its repro is shrunk and canonicalized).
std::optional<SeedCheck> FirstViolation(const AdapterFactory& factory,
                                        uint64_t max_seeds) {
  for (uint64_t seed = 1; seed <= max_seeds; ++seed) {
    SeedCheck check = CheckSeed(factory, seed);
    if (check.result.violated()) return check;
  }
  return std::nullopt;
}

/// Finds the first violating seed; checks that the violation matches
/// `expect_substr`, that its shrunk repro still violates when replayed
/// (twice, to pin determinism), and prints the repro.
void ExpectViolationFound(const char* label, const AdapterFactory& factory,
                          uint64_t max_seeds, const std::string& expect_substr) {
  const std::optional<SeedCheck> found = FirstViolation(factory, max_seeds);
  if (!found.has_value()) {
    ADD_FAILURE() << label << ": no violation found in " << max_seeds
                  << " seeds — the checker missed a known-unsafe configuration";
    return;
  }
  const RunResult& result = found->result;
  const FaultSchedule& min = found->repro;

  bool matched = false;
  for (const std::string& v : result.violations) {
    matched |= v.find(expect_substr) != std::string::npos;
  }
  EXPECT_TRUE(matched) << label << ": expected a \"" << expect_substr
                       << "\" violation, got: " << result.violations[0];
  EXPECT_LE(min.actions.size(), found->schedule.actions.size());

  // The shrunk schedule is a replayable repro: deterministic violations
  // on every re-run.
  RunResult replay1 = RunSchedule(factory, min.seed, min);
  RunResult replay2 = RunSchedule(factory, min.seed, min);
  EXPECT_TRUE(replay1.violated()) << label << ": shrunk schedule lost the "
                                  << "violation: " << min.ToString();
  EXPECT_EQ(replay1.violations, replay2.violations)
      << label << ": repro is not deterministic";

  std::printf("[checker] %s: violation at seed %llu: %s\n  repro: %s\n",
              label, static_cast<unsigned long long>(min.seed),
              replay1.violations.empty() ? result.violations[0].c_str()
                                         : replay1.violations[0].c_str(),
              min.ToString().c_str());
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

/// A pinned repro must still violate when replayed, and every action in
/// it must read canonically: aux zeroed (simulation-based adapters ignore
/// it, so canonicalization always zeroes it) and times snapped to >= 1 ms
/// grains.
void ExpectCanonical(const AdapterFactory& factory, const FaultSchedule& min) {
  EXPECT_TRUE(RunSchedule(factory, min.seed, min).violated());
  for (const FaultAction& a : min.actions) {
    EXPECT_EQ(a.aux, 0u);
    EXPECT_EQ(a.at % sim::kMillisecond, 0);
  }
}

/// The first Flexible-Paxos violation's repro, after ddmin + the
/// canonicalization pass, is pinned byte-for-byte: action times snapped
/// to round milliseconds and aux randomness zeroed, so the line survives
/// schedule-generator refactors that preserve behaviour. If this fails
/// because the *generator* intentionally changed, re-pin the string; if
/// it fails with the same generator, canonicalization regressed.
TEST(ShrinkCanonicalize, KnownReproHasCanonicalForm) {
  const AdapterFactory factory = MakePaxosOutOfBoundsAdapter();
  const std::optional<SeedCheck> found = FirstViolation(factory, 400);
  ASSERT_TRUE(found.has_value()) << "no Flexible-Paxos violation in 400 seeds";
  ExpectCanonical(factory, found->repro);
  EXPECT_GT(found->shrink.snapped, 0) << "canonicalization accepted no edits";
  // The repro keeps its heal: the shrinker may not delete the tail
  // restore (RestoreScheduleTail re-establishes it), so every printed
  // schedule is one the generator could actually emit.
  EXPECT_EQ(found->repro.ToString(),
            "schedule --seed=29: [ partition({0,2}|{1,3})@200ms "
            "heal@1700ms ]");
}

/// The f+1-equivocator repro is pinned the same way: the first violating
/// seed of the PBFT n=3f configuration must shrink — deterministically,
/// via ddmin + canonicalization — to a single equivocation window with
/// round times and zeroed aux. Same re-pin rule as above: if the
/// *generator* intentionally changed, update the string; otherwise the
/// shrinker or the Byzantine injection path regressed.
TEST(ShrinkCanonicalize, EquivocatorReproHasCanonicalForm) {
  const AdapterFactory factory = MakePbftOutOfBoundsAdapter();
  const std::optional<SeedCheck> found = FirstViolation(factory, 50);
  ASSERT_TRUE(found.has_value()) << "no PBFT n=3f violation in 50 seeds";
  const FaultSchedule& min = found->repro;
  ExpectCanonical(factory, min);
  ASSERT_EQ(min.actions.size(), 1u);
  EXPECT_EQ(min.actions[0].kind, FaultKind::kEquivocate);
  EXPECT_EQ(min.actions[0].window % sim::kMillisecond, 0);
  EXPECT_EQ(min.ToString(),
            "schedule --seed=1: [ equivocate(0,500ms)@100ms ]");
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
  const AdapterFactory factory = MakeShardReshardOutOfBoundsAdapter();
  const std::optional<SeedCheck> found = FirstViolation(factory, 50);
  ASSERT_TRUE(found.has_value()) << "no flip-before-drain violation in 50 seeds";
  ExpectCanonical(factory, found->repro);
  EXPECT_EQ(found->repro.ToString(),
            "schedule --seed=8: [ crash(8)@100ms mover-crash(23)@400ms "
            "restart(23)@2000ms restart(8)@2000ms ]");
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
  const AdapterFactory factory = MakeShardTxnNoReadLocksAdapter();
  const std::optional<SeedCheck> found = FirstViolation(factory, 50);
  ASSERT_TRUE(found.has_value()) << "no write-skew violation in 50 seeds";
  EXPECT_NE(found->result.violations[0].find(
                "no serial order of the committed transactions {1,2}"),
            std::string::npos)
      << found->result.violations[0];
  ExpectCanonical(factory, found->repro);
  EXPECT_EQ(found->repro.actions.size(), 0u);
  EXPECT_EQ(found->repro.ToString(), "schedule --seed=2: [ ]");
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
  const AdapterFactory factory = MakeCrosswordOutOfBoundsAdapter();
  const std::optional<SeedCheck> found = FirstViolation(factory, 50);
  ASSERT_TRUE(found.has_value())
      << "no crossword under-replication violation in 50 seeds";
  ExpectCanonical(factory, found->repro);
  EXPECT_EQ(found->repro.ToString(),
            "schedule --seed=1: [ spike(13ms..33ms)@200ms "
            "partition({0,1,4}|{2,3})@1300ms unspike@2000ms heal@2000ms ]");
}

}  // namespace
}  // namespace consensus40::check
