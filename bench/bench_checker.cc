// C1/C2 — safety-checker throughput: seeded fault-schedule exploration
// rate per protocol adapter and its scaling across sweep workers
// (src/check/parallel_sweep.h over common/parallel_for.h), plus the
// shrinker's cost on a known out-of-bounds violation.
//
// Results go to stdout and to BENCH_checker.json in the working directory
// (same convention as bench_simcore / BENCH_simcore.json) so the perf
// trajectory is tracked across PRs. The parallel sweep's merged report is
// compared byte-for-byte against the serial one at every worker count —
// a scaling number only counts if the answer is identical.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "check/adapters.h"
#include "check/checker.h"
#include "check/parallel_sweep.h"
#include "common/parallel_for.h"
#include "common/table.h"

using namespace consensus40;

namespace {

constexpr uint64_t kSchedules = 100;  ///< Seeds per protocol per sweep.

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One worker-count column of the scaling run.
struct ScalingResult {
  int workers = 0;
  std::vector<double> per_protocol_rate;  ///< schedules/s, roster order.
  double aggregate_rate = 0;              ///< total schedules / total wall.
  bool report_identical = true;           ///< Byte-equal to the 1-worker run.
};

struct ShrinkResult {
  uint64_t seed = 0;
  size_t actions_before = 0;
  size_t actions_after = 0;
  int replays = 0;
  int snapped = 0;
  double wall_ms = 0;
};

std::vector<int> WorkerCounts() {
  std::vector<int> counts = {1, 2, 4, HardwareConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

void WriteJson(const std::vector<std::pair<const char*, check::AdapterFactory>>&
                   roster,
               const std::vector<ScalingResult>& scaling,
               const ShrinkResult& shrink) {
  FILE* f = std::fopen("BENCH_checker.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_checker: cannot write BENCH_checker.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"checker\",\n"
               "  \"schedules_per_protocol\": %llu,\n"
               "  \"hardware_workers\": %d,\n  \"protocols\": [\n",
               static_cast<unsigned long long>(kSchedules),
               HardwareConcurrency());
  for (size_t p = 0; p < roster.size(); ++p) {
    std::fprintf(f, "    {\"name\": \"%s\", \"rates\": [", roster[p].first);
    for (size_t s = 0; s < scaling.size(); ++s) {
      std::fprintf(f, "{\"workers\": %d, \"schedules_per_sec\": %.0f}%s",
                   scaling[s].workers, scaling[s].per_protocol_rate[p],
                   s + 1 < scaling.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", p + 1 < roster.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"aggregate\": [\n");
  for (size_t s = 0; s < scaling.size(); ++s) {
    std::fprintf(f,
                 "    {\"workers\": %d, \"schedules_per_sec\": %.0f, "
                 "\"speedup_vs_1\": %.2f, \"report_identical_to_serial\": "
                 "%s}%s\n",
                 scaling[s].workers, scaling[s].aggregate_rate,
                 scaling[s].aggregate_rate / scaling[0].aggregate_rate,
                 scaling[s].report_identical ? "true" : "false",
                 s + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"shrink\": {\"seed\": %llu, \"actions_before\": %zu, "
               "\"actions_after\": %zu, \"replays\": %d, \"snapped\": %d, "
               "\"wall_ms\": %.1f}\n}\n",
               static_cast<unsigned long long>(shrink.seed),
               shrink.actions_before, shrink.actions_after, shrink.replays,
               shrink.snapped, shrink.wall_ms);
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("==== C1/C2: safety-checker throughput & sweep scaling ====\n\n");

  const auto roster = check::AllInBoundsAdapters();
  const std::vector<int> counts = WorkerCounts();

  // -- Scaling sweep: every protocol at every worker count. The 1-worker
  // run is the serial reference; every other count must reproduce its
  // report byte-for-byte.
  std::vector<ScalingResult> scaling;
  std::vector<std::string> serial_reports(roster.size());
  for (int workers : counts) {
    ScalingResult r;
    r.workers = workers;
    double total_s = 0;
    for (size_t p = 0; p < roster.size(); ++p) {
      const std::vector<std::pair<const char*, check::AdapterFactory>> one = {
          roster[p]};
      auto t0 = std::chrono::steady_clock::now();
      check::SweepReport report = check::RunSweep(one, kSchedules, workers);
      const double s = Seconds(t0);
      total_s += s;
      r.per_protocol_rate.push_back(kSchedules / s);
      if (workers == counts.front()) {
        serial_reports[p] = report.ToString();
      } else if (report.ToString() != serial_reports[p]) {
        r.report_identical = false;
      }
    }
    r.aggregate_rate = static_cast<double>(kSchedules * roster.size()) /
                       total_s;
    scaling.push_back(std::move(r));
  }

  {
    std::vector<std::string> headers = {"protocol"};
    for (int w : counts) headers.push_back(std::to_string(w) + "w sched/s");
    TextTable t(headers);
    for (size_t p = 0; p < roster.size(); ++p) {
      std::vector<std::string> row = {roster[p].first};
      for (const ScalingResult& s : scaling) {
        row.push_back(TextTable::Num(s.per_protocol_rate[p], 0));
      }
      t.AddRow(row);
    }
    std::vector<std::string> agg = {"(all)"};
    std::vector<std::string> speed = {"(speedup)"};
    for (const ScalingResult& s : scaling) {
      agg.push_back(TextTable::Num(s.aggregate_rate, 0));
      speed.push_back(
          TextTable::Num(s.aggregate_rate / scaling[0].aggregate_rate, 2) +
          "x");
    }
    t.AddRow(agg);
    t.AddRow(speed);
    std::printf("-- sweep scaling (%llu seeded schedules/protocol, workers: ",
                static_cast<unsigned long long>(kSchedules));
    for (size_t i = 0; i < counts.size(); ++i) {
      std::printf("%s%d", i ? "/" : "", counts[i]);
    }
    std::printf("; %d hardware core%s) --\n", HardwareConcurrency(),
                HardwareConcurrency() == 1 ? "" : "s");
    std::printf("%s\n", t.ToString().c_str());
    bool all_identical = true;
    for (const ScalingResult& s : scaling) all_identical &= s.report_identical;
    std::printf("merged reports byte-identical across worker counts: %s\n",
                all_identical ? "yes" : "NO — DETERMINISM BROKEN");
    std::printf(
        "Each schedule is a full simulated run: build the cluster, inject\n"
        "the generated crash/partition/delay sequence, run to quiescence,\n"
        "then evaluate every safety invariant.\n\n");
  }

  // -- Shrinker cost on a real violation (Flexible Paxos, q1+q2<=n): the
  // first violating seed, checked the way a sweep checks it, so the wall
  // time covers its run, the ddmin and the canonicalization pass.
  ShrinkResult shrink;
  std::printf("-- shrinker cost on a real violation (Flexible Paxos, "
              "q1+q2<=n) --\n");
  const check::AdapterFactory factory = check::MakePaxosOutOfBoundsAdapter();
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    auto t0 = std::chrono::steady_clock::now();
    const check::SeedCheck c = check::CheckSeed(factory, seed);
    if (!c.result.violated()) continue;
    shrink.wall_ms = Seconds(t0) * 1000.0;
    shrink.seed = seed;
    shrink.actions_before = c.schedule.actions.size();
    shrink.actions_after = c.repro.actions.size();
    shrink.replays = c.shrink.runs;
    shrink.snapped = c.shrink.snapped;
    std::printf(
        "seed %llu: %zu actions -> %zu in %d replays (%.1f ms), "
        "%d canonical snaps\n  %s\n",
        static_cast<unsigned long long>(seed), shrink.actions_before,
        shrink.actions_after, shrink.replays, shrink.wall_ms, shrink.snapped,
        c.repro.ToString().c_str());
    break;
  }

  WriteJson(roster, scaling, shrink);
  std::printf("\nwrote BENCH_checker.json\n");
  return 0;
}
