#include "check/parallel_sweep.h"

#include <utility>

#include "check/shrink.h"
#include "common/table.h"

namespace consensus40::check {

namespace {

/// Everything one (protocol, seed) task records. Slots are pre-sized and
/// written by exactly one worker, then merged in index order — this is
/// what makes the report independent of execution order.
struct SeedOutcome {
  bool violated = false;
  bool completed = false;
  uint32_t actions = 0;
  std::vector<std::string> violations;
  std::string repro;  ///< Formatted repro line; empty unless violated.
};

/// "agreement: instance 0: ..." -> "agreement".
std::string InvariantFamily(const std::string& violation) {
  const size_t colon = violation.find(':');
  return colon == std::string::npos ? violation : violation.substr(0, colon);
}

}  // namespace

uint64_t SweepReport::total_schedules() const {
  uint64_t n = 0;
  for (const ProtocolSweepResult& p : protocols) n += p.schedules;
  return n;
}

uint64_t SweepReport::total_violations() const {
  uint64_t n = 0;
  for (const ProtocolSweepResult& p : protocols) n += p.violations;
  return n;
}

std::string SweepReport::ToString() const {
  TextTable t({"protocol", "schedules", "actions", "violations", "incomplete",
               "invariants hit"});
  for (const ProtocolSweepResult& p : protocols) {
    std::string families;
    for (const auto& [family, count] : p.by_invariant) {
      if (!families.empty()) families += " ";
      families += family + "=" + std::to_string(count);
    }
    if (families.empty()) families = "-";
    t.AddRow({p.protocol, TextTable::Int(static_cast<int64_t>(p.schedules)),
              TextTable::Int(static_cast<int64_t>(p.actions)),
              TextTable::Int(static_cast<int64_t>(p.violations)),
              TextTable::Int(static_cast<int64_t>(p.incomplete)), families});
  }
  std::string s = t.ToString();
  for (const ProtocolSweepResult& p : protocols) {
    for (const std::string& repro : p.repros) {
      s += p.protocol + " " + repro + "\n";
    }
  }
  return s;
}

SweepReport RunSweep(
    const std::vector<std::pair<const char*, AdapterFactory>>& roster,
    const SweepOptions& options, ThreadPool* pool) {
  const uint64_t per_protocol = options.seeds;
  const uint64_t total = roster.size() * per_protocol;
  std::vector<SeedOutcome> outcomes(total);

  auto task = [&](int /*worker*/, uint64_t idx) {
    const size_t p = static_cast<size_t>(idx / per_protocol);
    const uint64_t seed = 1 + idx % per_protocol;
    const AdapterFactory& factory = roster[p].second;

    FaultSchedule schedule;
    RunResult r = RunSeed(factory, seed, &schedule);

    SeedOutcome& o = outcomes[idx];
    o.violated = r.violated();
    o.completed = r.completed;
    o.actions = static_cast<uint32_t>(schedule.actions.size());
    o.violations = r.violations;
    if (!r.violated()) return;

    // The shrink replays run inside this task, so the pool's lanes stay
    // busy with whole seeds; determinism of the result only needs the
    // (factory, seed) pair.
    auto replay = [&](const FaultSchedule& candidate) {
      return RunSchedule(factory, seed, candidate).violated();
    };
    const FaultBounds bounds = factory(seed)->bounds();
    const FaultSchedule repro = CanonicalizeSchedule(
        ShrinkSchedule(schedule, bounds, replay), bounds, replay);
    o.repro = "seed " + std::to_string(seed) + ": " + r.violations[0] +
              " | " + repro.ToString();
  };

  if (pool != nullptr) {
    pool->ParallelFor(total, task);
  } else {
    for (uint64_t i = 0; i < total; ++i) task(0, i);
  }

  // Merge in roster-then-seed order: deterministic regardless of which
  // worker ran which slot.
  SweepReport report;
  report.protocols.resize(roster.size());
  for (size_t p = 0; p < roster.size(); ++p) {
    ProtocolSweepResult& out = report.protocols[p];
    out.protocol = roster[p].first;
    for (uint64_t k = 0; k < per_protocol; ++k) {
      const SeedOutcome& o = outcomes[p * per_protocol + k];
      ++out.schedules;
      out.actions += o.actions;
      if (!o.completed) ++out.incomplete;
      if (o.violated) {
        ++out.violations;
        for (const std::string& v : o.violations) {
          ++out.by_invariant[InvariantFamily(v)];
        }
        out.repros.push_back(o.repro);
      }
    }
  }
  return report;
}

}  // namespace consensus40::check
