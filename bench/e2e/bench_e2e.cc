// The repository's end-to-end benchmark: four sharded-KV workloads over
// the full stack (sim engine -> Raft / Multi-Paxos replicas -> consensus
// ReplicaGroup/GroupClient -> shard TxCoordinator/TxManagers -> shard
// workload driver), each run in this one process from one thread.
//
//   bench_e2e [--workload=NAME] [--seed=N] [--seconds=S] [--trace]
//             [--smoke] [--json=PATH]
//
// A run repeats rounds of the workload until --seconds of wall time are
// spent (at least one round). Each round builds a fresh system from a
// seed derived from --seed, warms it up (leader elections), then drives
// a fixed number of closed-loop ops. Everything is measured from outside
// the program:
//   - end-to-end numbers by stepping the simulation and reading the
//     driver's public stats after every step (one event completes at
//     most one op, so each delta is one op's exact latency);
//   - with --trace, each round runs a second time with the delivery
//     hook installed and every step timed (tracer.h). The traced round
//     must reproduce the untraced one's virtual-time results exactly.
// Correctness gates run on every round; any failure prints
// "FAIL <workload>: ..." and the exit code is 1.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics, or with --trace the per-layer ones.
// bench/e2e/README.md defines every metric.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stats.h"
#include "tracer.h"
#include "workloads.h"

using namespace consensus40;
using namespace consensus40::e2e;

namespace {

enum OpClass { kRead, kTxn, kXtxn, kSnap, kClasses };
const char* const kClassNames[kClasses] = {"read", "txn", "xtxn", "snap"};

constexpr sim::Duration kHorizon = 600 * sim::kSecond;

struct Args {
  std::string workload;  ///< Empty: every workload.
  uint64_t seed = 2020;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json;
};

/// One round: a fresh system driven through its ops.
struct Round {
  // Virtual-time results: a function of (workload, seed, ops) alone.
  std::array<std::vector<int64_t>, kClasses> latency_us;
  std::vector<sim::Time> completions;  ///< Relative to the measured start.
  sim::Duration measured_us = 0;
  shard::WorkloadStats stats;
  FaultLog faults;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  ReplicaCounters replicas;  ///< Deltas over the measured phase.
  int64_t recoveries = 0;
  // Wall-clock results.
  double setup_s = 0;
  double wall_s = 0;   ///< Measured phase.
  double drift = 0;    ///< Last-quarter / first-quarter wall per op.
  std::vector<std::string> failures;

  int completed() const { return stats.completed(); }
  double wall_us_per_op() const {
    return completed() > 0 ? wall_s * 1e6 / completed() : 0;
  }
  int issued() const {
    return stats.reads.issued + stats.single.issued + stats.cross.issued +
           stats.snapshots.issued;
  }
  bool SameVirtual(const Round& o) const {
    return latency_us == o.latency_us && completions == o.completions &&
           measured_us == o.measured_us && events == o.events &&
           msgs == o.msgs && bytes == o.bytes && dropped == o.dropped &&
           stats.retries == o.stats.retries &&
           stats.reason_retries == o.stats.reason_retries &&
           std::equal(std::begin(stats.aborts_by_reason),
                      std::end(stats.aborts_by_reason),
                      std::begin(o.stats.aborts_by_reason));
  }
};

std::string Fmt(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

/// Replicas of one group agree on the commands they both executed: the
/// commands common to two replicas appear in the same order with the
/// same op. (A replica that installed a snapshot skipped a stretch of
/// the log, so only the overlap can be compared.)
std::string CheckPrefixAgreement(const consensus::ReplicaGroup& g,
                                 const std::string& label) {
  auto key = [](const smr::Command& c) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(c.client)) << 32) ^
           (c.client_seq & 0xFFFFFFFFull);
  };
  const int n = static_cast<int>(g.members().size());
  std::vector<std::vector<smr::Command>> prefixes;
  for (int i = 0; i < n; ++i) prefixes.push_back(g.CommittedPrefix(i));
  for (int a = 0; a < n; ++a) {
    std::unordered_map<uint64_t, size_t> pos;
    pos.reserve(prefixes[a].size());
    for (size_t k = 0; k < prefixes[a].size(); ++k) {
      pos.try_emplace(key(prefixes[a][k]), k);
    }
    for (int b = a + 1; b < n; ++b) {
      std::unordered_set<uint64_t> seen;
      size_t last = 0;
      bool any = false;
      for (const smr::Command& c : prefixes[b]) {
        const uint64_t k = key(c);
        if (!seen.insert(k).second) continue;
        auto it = pos.find(k);
        if (it == pos.end()) continue;
        if ((any && it->second <= last) || !(prefixes[a][it->second] == c)) {
          return label + ": replicas " + std::to_string(a) + " and " +
                 std::to_string(b) + " disagree at " + c.ToString();
        }
        last = it->second;
        any = true;
      }
    }
  }
  return "";
}

void CheckRound(const Workload& w, const System& s, int ops, Round* r) {
  if (r->completed() < ops) {
    r->failures.push_back(std::to_string(ops - r->completed()) + " of " +
                          std::to_string(ops) +
                          " ops unresolved at the horizon");
  }
  for (const std::string& v : s.ssm->Violations()) {
    r->failures.push_back("invariant: " + v);
  }
  if (r->stats.snapshots.aborted != 0) {
    r->failures.push_back(std::to_string(r->stats.snapshots.aborted) +
                          " snapshot transaction(s) aborted");
  }
  std::vector<const consensus::ReplicaGroup*> groups = s.Groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    std::string label = g + 1 == groups.size() ? "decision group"
                                               : "shard " + std::to_string(g);
    std::string err = CheckPrefixAgreement(*groups[g], label);
    if (!err.empty()) r->failures.push_back(err);
  }
  if (w.failover) {
    if (r->faults.restarts.empty()) {
      r->failures.push_back("no leader was crashed and restarted");
    }
    const sim::Time start = s.sim->now() - r->measured_us;
    for (sim::Time restart : r->faults.restarts) {
      const sim::Time rel = restart - start;
      if (!std::any_of(r->completions.begin(), r->completions.end(),
                       [&](sim::Time c) { return c > rel; })) {
        r->failures.push_back("no op completed after the restart at " +
                              Fmt(static_cast<double>(rel) / 1000) + " ms");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

Round RunRound(const Workload& w, uint64_t seed, int ops, TraceTotals* trace) {
  Round r;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Tracer> tracer =
      trace != nullptr ? std::make_unique<Tracer>(trace) : nullptr;
  System s = BuildSystem(w, seed, ops,
                         tracer ? tracer->Hook() : sim::Simulation::TraceFn(),
                         [&](const System& built) {
                           if (tracer) tracer->Bind(built);
                         });
  r.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const sim::Time start = s.sim->now();
  if (w.failover) {
    ScheduleFailover(s.sim.get(), s.Groups(), s.driver, start + kFirstCrash,
                     &r.faults);
  }
  const sim::NetStats net0 = s.sim->stats();
  const ReplicaCounters rep0 = CountReplicas(s);
  auto recoveries = [&] {
    int64_t n = 0;
    for (int g = 0; g < s.ssm->total_groups(); ++g) {
      n += s.ssm->tx_manager(g)->recoveries();
    }
    return n;
  };
  const int64_t rec0 = recoveries();
  if (tracer) tracer->Start(s.driver->id());

  const shard::WorkloadStats& st = s.driver->stats();
  const shard::OpStats* cls[kClasses] = {&st.reads, &st.single, &st.cross,
                                         &st.snapshots};
  std::array<int, kClasses> prev_done{};
  std::array<int64_t, kClasses> prev_sum{};
  const int quarter = ops / 4;
  int done = 0;
  sim::Time next_probe = start + kProbeEvery;
  Clock::time_point q1 = Clock::now();
  Clock::time_point q3 = q1;
  const Clock::time_point w0 = Clock::now();
  while (!s.driver->done()) {
    if (s.sim->now() >= next_probe) {
      s.ssm->Probe();
      next_probe += kProbeEvery;
    }
    bool stepped;
    if (tracer) {
      tracer->BeforeStep();
      const Clock::time_point a = Clock::now();
      stepped = s.sim->Step();
      tracer->AfterStep(NsSince(a));
    } else {
      stepped = s.sim->Step();
    }
    if (!stepped || s.sim->now() > start + kHorizon) break;
    ++r.events;
    for (int c = 0; c < kClasses; ++c) {
      const int d = cls[c]->completed - prev_done[c];
      if (d == 0) continue;
      const int64_t latency = cls[c]->latency_sum - prev_sum[c];
      prev_done[c] = cls[c]->completed;
      prev_sum[c] = cls[c]->latency_sum;
      if (d != 1) {
        r.failures.push_back("one event completed " + std::to_string(d) +
                             " " + kClassNames[c] + " ops");
      }
      r.latency_us[c].push_back(latency);
      r.completions.push_back(s.sim->now() - start);
      if (c == kXtxn && tracer && tracer->step_phases().has_value()) {
        const XtxnPhases& p = *tracer->step_phases();
        trace->xtxn_us[0].push_back(p.begin_hop);
        trace->xtxn_us[1].push_back(p.prepare);
        trace->xtxn_us[2].push_back(p.decide);
        trace->xtxn_us[3].push_back(p.reply_hop);
        trace->xtxn_e2e_us_sum += latency;
      }
      done += d;
      if (done == quarter) q1 = Clock::now();
      if (done == ops - quarter) q3 = Clock::now();
    }
  }
  const Clock::time_point w1 = Clock::now();
  r.wall_s = std::chrono::duration<double>(w1 - w0).count();
  const double first = std::chrono::duration<double>(q1 - w0).count();
  r.drift = first > 0 ? std::chrono::duration<double>(w1 - q3).count() / first
                      : 0;
  r.measured_us = s.sim->now() - start;
  r.stats = st;
  const sim::NetStats& net1 = s.sim->stats();
  r.msgs = net1.messages_sent - net0.messages_sent;
  r.bytes = net1.bytes_sent - net0.bytes_sent;
  r.dropped = net1.messages_dropped - net0.messages_dropped;
  r.replicas = CountReplicas(s) - rep0;
  r.recoveries = recoveries() - rec0;
  CheckRound(w, s, ops, &r);
  return r;
}

uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 1000 + static_cast<uint64_t>(round);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< What the value rests on (ops, windows, rounds).
};

struct RunResult {
  const Workload* workload;
  int ops = 0;
  std::vector<Round> rounds;  ///< Untraced.
  std::vector<Round> traced;
  TraceTotals trace;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< Self-check readings.
  double coverage = 0;
  double overhead = 0;
  double peak_rss_mb = 0;  ///< After the first round, so it does not
                           ///< depend on how many rounds fit.
};

std::vector<int64_t> Pool(const std::vector<Round>& rounds, size_t n, int c) {
  std::vector<int64_t> all;
  for (size_t i = 0; i < n; ++i) {
    all.insert(all.end(), rounds[i].latency_us[c].begin(), rounds[i].latency_us[c].end());
  }
  return all;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Virtual-time metrics come from the first `fixed` rounds, wall-clock
/// ones from every round.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds, size_t fixed,
                             double peak_rss_mb, bool smoke,
                             std::vector<std::string>* failures) {
  std::vector<Metric> m;
  int64_t completed = 0;
  sim::Duration measured = 0;
  int64_t committed = 0;
  int64_t resolved = 0;
  std::vector<double> windows;
  std::vector<double> wall;
  std::vector<double> setup;
  for (const Round& r : rounds) {
    if (r.completed() > 0) wall.push_back(r.wall_us_per_op());
    setup.push_back(r.setup_s);
  }
  for (size_t i = 0; i < fixed; ++i) {
    const Round& r = rounds[i];
    completed += r.completed();
    measured += r.measured_us;
    committed += r.stats.single.committed + r.stats.cross.committed;
    resolved += r.stats.single.completed + r.stats.cross.completed;
    for (sim::Duration c = kFirstCrash; c + kUnavailWindow <= r.measured_us;
         c += kCrashEvery) {
      windows.push_back(static_cast<double>(
          LongestGap(r.completions, c, c + kUnavailWindow)));
    }
  }
  const size_t n = static_cast<size_t>(completed);
  m.push_back({"throughput_ops_per_vs",
               measured > 0 ? static_cast<double>(completed) * 1e6 /
                                  static_cast<double>(measured)
                            : 0,
               "ops/vs", n});
  std::vector<int64_t> all;
  for (int c = 0; c < kClasses; ++c) {
    std::vector<int64_t> v = Pool(rounds, fixed, c);
    if (v.empty()) failures->push_back(std::string("no ") + kClassNames[c] + " op completed");
    const std::string name = kClassNames[c];
    m.push_back({name + "_p50_ms", Percentile(&v, 0.50) / 1000.0, "ms", v.size()});
    m.push_back({name + "_p99_ms", Percentile(&v, 0.99) / 1000.0, "ms", v.size()});
    all.insert(all.end(), v.begin(), v.end());
  }
  m.push_back({"all_p999_ms", Percentile(&all, 0.999) / 1000.0, "ms", all.size()});
  m.push_back({"commit_pct",
               resolved > 0 ? 100.0 * static_cast<double>(committed) /
                                  static_cast<double>(resolved)
                            : 0,
               "%", static_cast<size_t>(resolved)});
  // Smoke rounds are too short to span a window; a real run must.
  if (windows.empty() && !smoke) {
    failures->push_back("no round spans an unavailability window");
  }
  m.push_back({"unavail_ms", Median(windows) / 1000.0, "ms", windows.size()});
  // Other tenants of the machine only ever slow a round down, often for
  // tens of seconds, so the fast end of the rounds is the steady
  // estimate of the cost.
  m.push_back({"wall_us_per_op", LowerQuartile(wall), "us/op", wall.size()});
  m.push_back({"setup_s", Median(setup), "s", setup.size()});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
  return m;
}

std::vector<Metric> PerLayer(const RunResult& run) {
  const TraceTotals& t = run.trace;
  int64_t ops = 0;
  int64_t events = 0, msgs = 0, bytes = 0, dropped = 0;
  int64_t rw_issued = 0, committed = 0, reason_retries = 0, resubmits = 0;
  int64_t conflict = 0, timeout = 0, recoveries = 0;
  ReplicaCounters rep;
  for (const Round& r : run.traced) {
    ops += r.completed();
    events += static_cast<int64_t>(r.events);
    msgs += static_cast<int64_t>(r.msgs);
    bytes += static_cast<int64_t>(r.bytes);
    dropped += static_cast<int64_t>(r.dropped);
    rw_issued += r.stats.single.issued + r.stats.cross.issued;
    committed += r.stats.single.committed + r.stats.cross.committed;
    reason_retries += r.stats.reason_retries;
    resubmits += r.stats.retries;
    conflict += r.stats.aborts_by_reason[static_cast<int>(shard::TxAbortReason::kLockConflict)];
    timeout += r.stats.aborts_by_reason[static_cast<int>(shard::TxAbortReason::kDecisionTimeout)];
    recoveries += r.recoveries;
    rep += r.replicas;
  }
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0;
  auto us = [&](auto pred) {
    int64_t ns = 0;
    for (const WallRow& row : t.rows) {
      if (pred(row)) ns += row.ns;
    }
    return static_cast<double>(ns) / 1000.0 * per_op;
  };
  auto layer_is = [](Layer l) { return [l](const WallRow& r) { return r.layer == l; }; };
  auto role_is = [](ReplicaRole role) {
    return [role](const WallRow& r) {
      return r.layer == Layer::kReplica && RoleOfType(r.type.c_str()) == role;
    };
  };
  uint64_t timer_events = 0;
  for (const WallRow& row : t.rows) {
    if (row.layer == Layer::kTimers) timer_events += row.events;
  }
  std::vector<double> eps, drift;
  for (const Round& r : run.rounds) {
    if (r.wall_s > 0) eps.push_back(static_cast<double>(r.events) / r.wall_s);
    drift.push_back(r.drift);
  }
  const double kop = per_op * 1000;
  const double rw = rw_issued > 0 ? static_cast<double>(rw_issued) : 1;
  auto ms = [](std::vector<int64_t> v, double q) {
    return Percentile(&v, q) / 1000.0;
  };
  auto mean_ms = [](const std::vector<int64_t>& v) { return Mean(v) / 1000.0; };
  const size_t n = static_cast<size_t>(ops);

  std::vector<Metric> m = {
      {"sim.events_per_op", static_cast<double>(events) * per_op, "1/op", n},
      {"sim.timer_events_per_op", static_cast<double>(timer_events) * per_op, "1/op", n},
      {"sim.msgs_per_op", static_cast<double>(msgs) * per_op, "1/op", n},
      {"sim.bytes_per_op", static_cast<double>(bytes) * per_op, "B/op", n},
      {"sim.dropped_per_kop", static_cast<double>(dropped) * kop, "1/kop", n},
      {"sim.events_per_s", Median(eps), "1/s", eps.size()},
      {"sim.cost_drift", Median(drift), "ratio", drift.size()},
      {"sim.timer_us_per_op", us(layer_is(Layer::kTimers)), "us/op", n},
      {"sim.trace_overhead", run.overhead, "ratio", run.traced.size()},
      {"sim.wall_coverage", run.coverage, "ratio", run.traced.size()},
      {"replica.us_per_op", us(layer_is(Layer::kReplica)), "us/op", n},
      {"replica.decision_us_per_op",
       us([](const WallRow& r) { return r.layer == Layer::kReplica && r.decision_group; }),
       "us/op", n},
      {"replica.request_us_per_op", us(role_is(ReplicaRole::kRequest)), "us/op", n},
      {"replica.replicate_us_per_op", us(role_is(ReplicaRole::kReplicate)), "us/op", n},
      {"replica.ack_us_per_op", us(role_is(ReplicaRole::kAck)), "us/op", n},
      {"replica.cmds_per_batch",
       rep.batches > 0 ? static_cast<double>(t.logged_cmds) / static_cast<double>(rep.batches)
                       : 0,
       "ratio", static_cast<size_t>(rep.batches)},
      {"replica.checkpoints_per_kop", static_cast<double>(rep.checkpoints) * kop, "1/kop", n},
      {"replica.elections_per_kop", static_cast<double>(rep.elections) * kop, "1/kop", n},
      {"replica.snapshot_installs_per_kop", static_cast<double>(rep.snapshots_installed) * kop,
       "1/kop", n},
      {"replica.read_index_per_op", static_cast<double>(rep.reads_served) * per_op, "1/op", n},
      {"consensus.client_us_per_op", us(layer_is(Layer::kClient)), "us/op", n},
      {"consensus.write_commit_ms.p50", ms(t.write_commit_us, 0.5), "ms", t.write_commit_us.size()},
      {"consensus.write_commit_ms.p99", ms(t.write_commit_us, 0.99), "ms", t.write_commit_us.size()},
      {"consensus.read_ms.p50", ms(t.read_us, 0.5), "ms", t.read_us.size()},
      {"consensus.read_ms.p99", ms(t.read_us, 0.99), "ms", t.read_us.size()},
      {"consensus.hop_ms.mean",
       t.deliveries > 0 ? static_cast<double>(t.hop_us_sum) / 1000.0 /
                              static_cast<double>(t.deliveries)
                        : 0,
       "ms", static_cast<size_t>(t.deliveries)},
      {"consensus.redirects_per_kop", static_cast<double>(t.redirects) * kop, "1/kop", n},
      {"consensus.resends_per_kop", static_cast<double>(t.resends) * kop, "1/kop", n},
      {"shard.coord_us_per_op", us(layer_is(Layer::kCoord)), "us/op", n},
      {"shard.tm_us_per_op", us(layer_is(Layer::kTm)), "us/op", n},
  };
  static const char* const kPhases[4] = {"begin_hop", "prepare", "decide", "reply_hop"};
  for (int p = 0; p < 4; ++p) {
    const std::string base = std::string("shard.xtxn.") + kPhases[p] + "_ms";
    m.push_back({base + ".mean", mean_ms(t.xtxn_us[p]), "ms", t.xtxn_us[p].size()});
    m.push_back({base + ".p99", ms(t.xtxn_us[p], 0.99), "ms", t.xtxn_us[p].size()});
  }
  const std::pair<const char*, const std::vector<int64_t>*> spans[] = {
      {"shard.xtxn.lock_release_ms", &t.lock_release_us},
      {"shard.txn.prepare_ms", &t.txn_prepare_us},
      {"shard.snap.read_ms", &t.snap_read_us},
  };
  for (const auto& [name, v] : spans) {
    m.push_back({std::string(name) + ".mean", mean_ms(*v), "ms", v->size()});
    m.push_back({std::string(name) + ".p99", ms(*v, 0.99), "ms", v->size()});
  }
  const double attempts = static_cast<double>(rw_issued + reason_retries);
  m.push_back({"shard.attempts_per_txn", attempts / rw, "ratio", static_cast<size_t>(rw_issued)});
  m.push_back({"shard.useful_ratio", attempts > 0 ? static_cast<double>(committed) / attempts : 0,
               "ratio", static_cast<size_t>(attempts)});
  m.push_back({"shard.aborts.conflict_per_ktxn", static_cast<double>(conflict) * 1000 / rw,
               "1/ktxn", static_cast<size_t>(rw_issued)});
  m.push_back({"shard.aborts.timeout_per_ktxn", static_cast<double>(timeout) * 1000 / rw,
               "1/ktxn", static_cast<size_t>(rw_issued)});
  m.push_back({"shard.lock_table_peak", static_cast<double>(t.lock_table_peak), "count", n});
  m.push_back({"shard.recoveries_per_kop", static_cast<double>(recoveries) * kop, "1/kop", n});
  m.push_back({"workload.us_per_op", us(layer_is(Layer::kDriver)), "us/op", n});
  m.push_back({"workload.resubmits_per_kop", static_cast<double>(resubmits) * kop, "1/kop", n});
  return m;
}

/// Traced-run self-checks: bit-identical virtual results, xtxn phases
/// that tile the driver-measured latency, and wall rows that cover the
/// traced wall time.
void SelfCheck(RunResult* run) {
  for (size_t i = 0; i < run->traced.size(); ++i) {
    if (!run->rounds[i].SameVirtual(run->traced[i])) {
      run->failures.push_back("traced round " + std::to_string(i) +
                              " diverged from the untraced round's virtual-time results");
    }
  }
  const TraceTotals& t = run->trace;
  const size_t tiled = t.xtxn_us[0].size();
  if (tiled == 0) {
    run->failures.push_back("no cross-shard transaction was tiled into phases");
  } else {
    double sum = 0;
    for (const auto& v : t.xtxn_us) sum += Mean(v);
    const double e2e = static_cast<double>(t.xtxn_e2e_us_sum) / static_cast<double>(tiled);
    const double err = std::abs(sum - e2e) / e2e;
    run->notes.push_back("xtxn phases sum to " + Fmt(sum / 1000) + " ms vs " + Fmt(e2e / 1000) +
                         " ms measured over " + std::to_string(tiled) + " first-attempt ops (" +
                         std::to_string(t.xtxn_untiled) + " untiled)");
    if (err > 0.01) {
      run->failures.push_back("xtxn phases miss the measured latency by " + Fmt(100 * err) + "%");
    }
  }
  int64_t rows_ns = 0;
  for (const WallRow& row : t.rows) rows_ns += row.ns;
  double traced_wall = 0, untraced_wall = 0;
  for (size_t i = 0; i < run->traced.size(); ++i) {
    traced_wall += run->traced[i].wall_s;
    untraced_wall += run->rounds[i].wall_s;
  }
  // The hook's own time is instrumentation, measured and left out of
  // both the rows and the wall time they are meant to cover.
  const double hook_s = static_cast<double>(t.hook_ns) / 1e9;
  run->coverage = traced_wall > hook_s
                      ? static_cast<double>(rows_ns) / 1e9 / (traced_wall - hook_s)
                      : 0;
  run->overhead = untraced_wall > 0 ? traced_wall / untraced_wall : 0;
  run->notes.push_back("wall rows cover " + Fmt(100 * run->coverage) +
                       "% of traced wall time outside the hook (hook " +
                       Fmt(100 * hook_s / traced_wall) + "%); tracing overhead x" +
                       Fmt(run->overhead));
  if (run->coverage < 0.90) {
    run->failures.push_back("wall rows cover only " + Fmt(100 * run->coverage) + "%");
  }
}

RunResult RunWorkload(const Workload& w, const Args& args) {
  RunResult run;
  run.workload = &w;
  run.ops = args.smoke ? w.smoke_ops : w.ops;
  const bool traced = args.trace || args.smoke;
  const int fixed = args.smoke ? 1 : w.rounds;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;; ++i) {
    const uint64_t seed = RoundSeed(args.seed, i);
    run.rounds.push_back(RunRound(w, seed, run.ops, nullptr));
    if (i == 0) run.peak_rss_mb = PeakRssMb();
    if (traced) run.traced.push_back(RunRound(w, seed, run.ops, &run.trace));
    bool failed = false;
    for (const std::vector<Round>* set : {&run.rounds, &run.traced}) {
      if (set->empty()) continue;
      for (const std::string& f : set->back().failures) {
        run.failures.push_back("round " + std::to_string(i) + ": " + f);
        failed = true;
      }
    }
    if (failed) break;
    if (i + 1 < fixed) continue;
    // Traced runs stop at the fixed rounds; untraced ones go on while the
    // next round is predicted to fit in --seconds.
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    if (traced || elapsed * (i + 2) / (i + 1) > args.seconds) break;
  }
  const size_t reported = std::min(run.rounds.size(), static_cast<size_t>(fixed));
  run.e2e = EndToEnd(run.rounds, reported, run.peak_rss_mb, args.smoke, &run.failures);
  if (traced) {
    SelfCheck(&run);
    run.layers = PerLayer(run);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_samples) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Fmt(m.value) +
         ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) s += ", \"samples\": " + std::to_string(m.samples);
    s += "}";
  }
  return s + "}";
}

std::string RunJson(const RunResult& run, const Args& args) {
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Fmt(v[i]);
    return s + "]";
  };
  auto strings = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      std::string e;
      for (char c : v[i]) {
        if (c == '"' || c == '\\') e += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) e += c;
      }
      s += (i ? ", \"" : "\"") + e + "\"";
    }
    return s + "]";
  };
  std::vector<double> wall, setup;
  for (const Round& r : run.rounds) {
    wall.push_back(r.wall_us_per_op());
    setup.push_back(r.setup_s);
  }
  std::string s = "{\"workload\": \"" + std::string(run.workload->name) +
                  "\", \"seed\": " + std::to_string(args.seed) +
                  ", \"seconds\": " + Fmt(args.seconds) +
                  ", \"trace\": " + (run.traced.empty() ? "false" : "true") +
                  ", \"ops_per_round\": " + std::to_string(run.ops) +
                  ", \"rounds\": " + std::to_string(run.rounds.size()) +
                  ", \"correct\": " + (run.failures.empty() ? "true" : "false") +
                  ", \"failures\": " + strings(run.failures) +
                  ", \"notes\": " + strings(run.notes) +
                  ", \"round_wall_us_per_op\": " + list(wall) +
                  ", \"round_setup_s\": " + list(setup) +
                  ", \"e2e\": " + MetricsJson(run.e2e, true);
  if (!run.traced.empty()) {
    int64_t ops = 0;
    for (const Round& r : run.traced) ops += r.completed();
    s += ", \"layers\": " + MetricsJson(run.layers, true) + ", \"layer_rows\": [";
    for (size_t i = 0; i < run.trace.rows.size(); ++i) {
      const WallRow& row = run.trace.rows[i];
      s += std::string(i ? ", " : "") + "{\"layer\": \"" + LayerName(row.layer) +
           (row.decision_group ? "(decision)" : "") + "\", \"type\": \"" + row.type +
           "\", \"us_per_op\": " + Fmt(static_cast<double>(row.ns) / 1000.0 / static_cast<double>(ops)) +
           ", \"events\": " + std::to_string(row.events) + "}";
    }
    s += "]";
  }
  return s + "}";
}

void PrintRun(const RunResult& run) {
  std::printf("== %s: %zu round(s) x %d ops ==\n", run.workload->name,
              run.rounds.size(), run.ops);
  std::printf("  %-24s %14s  %-8s %s\n", "end-to-end metric", "value", "unit", "samples");
  for (const Metric& m : run.e2e) {
    std::printf("  %-24s %14.4f  %-8s %zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  if (!run.traced.empty()) {
    int64_t ops = 0;
    int64_t total = 0;
    for (const Round& r : run.traced) ops += r.completed();
    std::vector<WallRow> rows = run.trace.rows;
    for (const WallRow& r : rows) total += r.ns;
    std::sort(rows.begin(), rows.end(),
              [](const WallRow& a, const WallRow& b) { return a.ns > b.ns; });
    std::printf("\n  traced wall time by (layer, delivered type); self time includes\n"
                "  the engine calls a handler makes and, for replicas, the apply\n");
    std::printf("  %-20s %-18s %10s %7s %10s\n", "layer", "type", "us/op", "share", "events/op");
    for (const WallRow& r : rows) {
      if (r.events == 0) continue;
      std::string layer = std::string(LayerName(r.layer)) + (r.decision_group ? "(decision)" : "");
      std::printf("  %-20s %-18s %10.3f %6.1f%% %10.3f\n", layer.c_str(), r.type.c_str(),
                  static_cast<double>(r.ns) / 1000.0 / static_cast<double>(ops),
                  total > 0 ? 100.0 * static_cast<double>(r.ns) / static_cast<double>(total) : 0,
                  static_cast<double>(r.events) / static_cast<double>(ops));
    }
    std::printf("\n  %-36s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : run.layers) {
      std::printf("  %-36s %14.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& n : run.notes) std::printf("  check: %s\n", n.c_str());
  for (const std::string& f : run.failures) {
    std::printf("FAIL %s: %s\n", run.workload->name, f.c_str());
  }
  std::printf("\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::atof(v);
    } else if (const char* v = value("--json=")) {
      args->json = v;
    } else if (a == "--trace") {
      args->trace = true;
    } else if (a == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (!args->workload.empty() && FindWorkload(args->workload) == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n", args->workload.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::vector<const Workload*> selected;
  for (const Workload& w : Workloads()) {
    if (args.workload.empty() || args.workload == w.name) selected.push_back(&w);
  }
  std::printf("bench_e2e: seed %llu, %s, %g s per workload\n\n",
              static_cast<unsigned long long>(args.seed),
              args.smoke ? "smoke" : (args.trace ? "traced" : "untraced"), args.seconds);
  bool ok = true;
  std::string json = "{\"runs\": [";
  std::string last_line;
  for (size_t i = 0; i < selected.size(); ++i) {
    RunResult run = RunWorkload(*selected[i], args);
    PrintRun(run);
    ok = ok && run.failures.empty();
    json += (i ? ", " : "") + RunJson(run, args);
    int64_t attempted = 0, failed = 0;
    for (const Round& r : run.rounds) {
      attempted += r.issued();
      failed += r.issued() - r.completed();
    }
    last_line = "{\"correct\": " + std::string(run.failures.empty() ? "true" : "false") +
                ", \"attempted\": " + std::to_string(attempted) +
                ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " +
                MetricsJson(args.trace ? run.layers : run.e2e, false) + "}";
  }
  if (!args.json.empty()) {
    FILE* f = std::fopen(args.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.json.c_str());
      return 1;
    }
    std::fprintf(f, "%s]}\n", json.c_str());
    std::fclose(f);
  }
  if (selected.size() == 1) std::printf("%s\n", last_line.c_str());
  return ok ? 0 : 1;
}
