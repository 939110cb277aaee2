/// \file
/// A plain parallel-for for embarrassingly-parallel index loops, built
/// for the checker's fault-schedule sweeps.
///
/// Each call starts its own threads and joins them before it returns:
/// the caller and `workers - 1` threads take indices from one shared
/// atomic cursor, one index at a time, so a lane that drew a slow index
/// (a simulation that runs to its quiesce deadline costs ~100x one that
/// finishes early) simply takes fewer of them.
///
/// Determinism contract: `fn` runs exactly once per index, but in an
/// unspecified order and from unspecified threads. Callers that need
/// deterministic output (the sweep engine) must write results into
/// per-index slots and merge in index order afterwards.

#ifndef CONSENSUS40_COMMON_PARALLEL_FOR_H_
#define CONSENSUS40_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace consensus40 {

/// The machine's hardware thread count (>= 1), the natural worker count.
int HardwareConcurrency();

/// Invokes `fn(index)` once for every index in [0, n) on `workers`
/// threads (the caller counts as one) and returns when every invocation
/// has returned. `workers` <= 1 runs the plain loop on the calling
/// thread, in index order. If an invocation throws, the lanes stop taking
/// new indices, and the first exception is rethrown here once every
/// thread has been joined.
void ParallelFor(int workers, uint64_t n,
                 const std::function<void(uint64_t)>& fn);

}  // namespace consensus40

#endif  // CONSENSUS40_COMMON_PARALLEL_FOR_H_
