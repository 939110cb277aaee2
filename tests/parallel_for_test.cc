// ParallelFor (common/parallel_for.h):
//
//   - every index runs exactly once, on any lane, in any order, for any
//     worker count (including more workers than indices);
//   - one worker runs the plain loop, in order, on the calling thread;
//   - an exception from an index is rethrown on the caller, lanes stop
//     taking indices after it, and a later call still works;
//   - back-to-back calls are data-race-free (the tsan preset runs this
//     binary under -fsanitize=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.h"

namespace consensus40 {
namespace {

TEST(ParallelFor, ExecutesEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    for (uint64_t n : {0, 1, 3, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(workers, n, [&](uint64_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "workers " << workers << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(ParallelFor, SingleWorkerRunsInOrderOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  bool all_inline = true;
  ParallelFor(1, 64, [&](uint64_t i) {
    order.push_back(i);
    all_inline &= std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_inline);
  ASSERT_EQ(order.size(), 64u);
  for (uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ExceptionIsRethrownAndLaterCallsWork) {
  for (int workers : {1, 4}) {
    std::atomic<uint64_t> executed{0};
    EXPECT_THROW(ParallelFor(workers, 1000,
                             [&](uint64_t i) {
                               executed.fetch_add(1);
                               if (i == 13) throw std::runtime_error("13");
                             }),
                 std::runtime_error);
    EXPECT_LE(executed.load(), 1000u);
    // The plain loop stops at the throwing index.
    if (workers == 1) {
      EXPECT_EQ(executed.load(), 14u);
    }

    std::atomic<uint64_t> sum{0};
    ParallelFor(workers, 100, [&](uint64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "workers " << workers;
  }
}

TEST(ParallelFor, LanesStopTakingIndicesAfterAThrow) {
  // Every index throws, so each lane runs at most the one index it took
  // before it saw a failure.
  std::atomic<uint64_t> executed{0};
  EXPECT_THROW(ParallelFor(4, 1000,
                           [&](uint64_t) {
                             executed.fetch_add(1);
                             throw std::runtime_error("any");
                           }),
               std::runtime_error);
  EXPECT_GE(executed.load(), 1u);
  EXPECT_LE(executed.load(), 4u);
}

TEST(ParallelFor, ManyBackToBackCallsAreRaceFree) {
  // Calls of varying size, each writing per-index slots that the caller
  // reads after the join. Under the tsan preset this is the data-race
  // gate for the cursor, the error slot and the thread joins.
  uint64_t expected = 0;
  uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    const uint64_t n = 1 + (round * 37) % 256;
    expected += n;
    std::vector<uint64_t> slots(n, 0);
    ParallelFor(4, n, [&](uint64_t i) { slots[i] = 1; });
    for (uint64_t v : slots) total += v;
  }
  EXPECT_EQ(total, expected);
}

TEST(ParallelFor, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1);
}

}  // namespace
}  // namespace consensus40
