#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace consensus40 {

int HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelFor(int workers, uint64_t n,
                 const std::function<void(uint64_t)>& fn) {
  if (workers <= 1) {
    for (uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;  // Guarded by error_mu.
  auto lane = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    // A lane per index at most; std::jthread joins on every exit from
    // this block, including a failed thread start.
    const uint64_t lanes = std::min<uint64_t>(workers, n);
    std::vector<std::jthread> threads;
    for (uint64_t t = 1; t < lanes; ++t) threads.emplace_back(lane);
    lane();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace consensus40
