// Parallel fault-schedule sweep engine (src/check/parallel_sweep.h):
//
//   1. Serial-vs-parallel equivalence: the same roster and seed range must
//      produce a byte-identical merged report on 1 worker and on N — the
//      engine's determinism contract.
//   2. Violation discovery parity: an out-of-bounds roster yields the same
//      violations, repro lines included, at every worker count.
//
// Under the tsan preset this binary doubles as the audit that nothing in
// the simulator/checker path shares mutable state across concurrent
// Simulation instances (RNG, interner, slabs, registries are per-instance).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/adapters.h"
#include "check/checker.h"
#include "check/parallel_sweep.h"

namespace consensus40::check {
namespace {

TEST(ParallelSweep, SerialAndParallelReportsAreByteIdentical) {
  constexpr uint64_t kSeeds = 50;
  const auto roster = AllInBoundsAdapters();

  SweepReport serial = RunSweep(roster, kSeeds, /*workers=*/1);
  EXPECT_EQ(serial.ToString(), RunSweep(roster, kSeeds, 4).ToString());
  EXPECT_EQ(serial.ToString(), RunSweep(roster, kSeeds, 3).ToString());

  // In-bounds sweeps must stay clean, and the totals must add up.
  EXPECT_EQ(serial.total_violations(), 0u);
  EXPECT_EQ(serial.total_schedules(), roster.size() * kSeeds);
}

TEST(ParallelSweep, OutOfBoundsViolationsIdenticalAcrossWorkerCounts) {
  // Out-of-bounds rosters exercise the violating path: shrunk and
  // canonicalized repro lines must also merge identically.
  std::vector<std::pair<const char*, AdapterFactory>> roster = {
      {"paxos-oob", MakePaxosOutOfBoundsAdapter()},
      {"floodset-oob", MakeFloodSetOutOfBoundsAdapter()},
  };
  constexpr uint64_t kSeeds = 60;

  SweepReport serial = RunSweep(roster, kSeeds, 1);
  SweepReport parallel = RunSweep(roster, kSeeds, 4);

  EXPECT_EQ(serial.ToString(), parallel.ToString());
  EXPECT_GT(serial.total_violations(), 0u)
      << "out-of-bounds roster found no violations — sweep lost coverage";
  // Every violating seed carries a repro line.
  for (const ProtocolSweepResult& p : serial.protocols) {
    EXPECT_EQ(p.repros.size(), p.violations);
  }
}

}  // namespace
}  // namespace consensus40::check
