#include "check/parallel_sweep.h"

#include "common/parallel_for.h"
#include "common/table.h"

namespace consensus40::check {

namespace {

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

SeedCheck CheckSeed(const AdapterFactory& factory, uint64_t seed) {
  SeedCheck c;
  c.result = RunSeed(factory, seed, &c.schedule);
  if (!c.result.violated()) return c;

  auto replay = [&](const FaultSchedule& candidate) {
    return RunSchedule(factory, seed, candidate).violated();
  };
  const FaultBounds bounds = factory(seed)->bounds();
  c.repro = CanonicalizeSchedule(
      ShrinkSchedule(c.schedule, bounds, replay, 400, &c.shrink), bounds,
      replay, &c.shrink);
  c.repro_line = "seed " + std::to_string(seed) + ": " +
                 c.result.violations[0] + " | " + c.repro.ToString();
  return c;
}

SweepReport RunSweep(
    const std::vector<std::pair<const char*, AdapterFactory>>& roster,
    uint64_t seeds, int workers) {
  std::vector<SeedCheck> outcomes(roster.size() * seeds);
  ParallelFor(workers, outcomes.size(), [&](uint64_t idx) {
    outcomes[idx] = CheckSeed(roster[idx / seeds].second, 1 + idx % seeds);
  });

  // Merge in roster-then-seed order: deterministic regardless of which
  // worker ran which slot.
  SweepReport report;
  report.protocols.resize(roster.size());
  for (size_t p = 0; p < roster.size(); ++p) {
    ProtocolSweepResult& out = report.protocols[p];
    out.protocol = roster[p].first;
    for (uint64_t k = 0; k < seeds; ++k) {
      const SeedCheck& o = outcomes[p * seeds + k];
      ++out.schedules;
      out.actions += o.schedule.actions.size();
      if (!o.result.completed) ++out.incomplete;
      if (o.result.violated()) {
        ++out.violations;
        for (const std::string& v : o.result.violations) {
          ++out.by_invariant[InvariantFamily(v)];
        }
        out.repros.push_back(o.repro_line);
      }
    }
  }
  return report;
}

}  // namespace consensus40::check
