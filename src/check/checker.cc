#include "check/checker.h"

#include <algorithm>
#include <utility>

namespace consensus40::check {

namespace {

std::string NodeStr(sim::NodeId id) { return std::to_string(id); }

}  // namespace

std::vector<std::string> CheckInvariants(const Observation& o) {
  std::vector<std::string> out;

  // Agreement: one decided value per instance.
  for (const auto& [inst, per_node] : o.decided) {
    if (per_node.empty()) continue;
    const auto& first = *per_node.begin();
    for (const auto& [node, val] : per_node) {
      if (val != first.second) {
        out.push_back("agreement: instance " + inst + ": node " +
                      NodeStr(first.first) + " decided \"" + first.second +
                      "\" but node " + NodeStr(node) + " decided \"" + val +
                      "\"");
        break;
      }
    }
  }

  // Validity: decided values come from the proposed universe.
  if (!o.allowed.empty()) {
    for (const auto& [inst, per_node] : o.decided) {
      for (const auto& [node, val] : per_node) {
        if (std::find(o.allowed.begin(), o.allowed.end(), val) ==
            o.allowed.end()) {
          out.push_back("validity: instance " + inst + ": node " +
                        NodeStr(node) + " decided unproposed value \"" + val +
                        "\"");
        }
      }
    }
  }

  // Prefix consistency: committed logs never diverge, they only trail.
  for (size_t i = 0; i < o.logs.size(); ++i) {
    for (size_t j = i + 1; j < o.logs.size(); ++j) {
      const auto& a = o.logs[i];
      const auto& b = o.logs[j];
      size_t common = std::min(a.size(), b.size());
      for (size_t k = 0; k < common; ++k) {
        if (a[k] != b[k]) {
          out.push_back("prefix: logs " + std::to_string(i) + " and " +
                        std::to_string(j) + " diverge at index " +
                        std::to_string(k) + ": \"" + a[k] + "\" vs \"" + b[k] +
                        "\"");
          break;
        }
      }
    }
  }

  // Atomicity: no transaction both committed and aborted.
  for (const auto& [tx, per_node] : o.verdicts) {
    sim::NodeId committed_at = sim::kInvalidNode;
    sim::NodeId aborted_at = sim::kInvalidNode;
    for (const auto& [node, verdict] : per_node) {
      if (verdict == 'C') committed_at = node;
      if (verdict == 'A') aborted_at = node;
    }
    if (committed_at != sim::kInvalidNode && aborted_at != sim::kInvalidNode) {
      out.push_back("atomicity: tx " + std::to_string(tx) +
                    " committed at node " + NodeStr(committed_at) +
                    " but aborted at node " + NodeStr(aborted_at));
    }
  }

  for (const auto& s : o.self_reported) {
    out.push_back("self-reported: " + s);
  }
  return out;
}

RunEnd RunToEnd(const AdapterFactory& factory, uint64_t seed,
                const FaultSchedule& schedule) {
  std::unique_ptr<ProtocolAdapter> adapter = factory(seed);
  RunEnd end;

  if (adapter->RunsDirect()) {
    end.observation = adapter->RunDirect(schedule);
    end.completed = true;
    return end;
  }

  const FaultBounds bounds = adapter->bounds();
  ProtocolAdapter* a = adapter.get();
  std::unique_ptr<sim::Simulation> sim_owner =
      sim::Simulation::Builder(seed)
          .Setup([a](sim::Simulation& s) { a->Build(&s); })
          .Setup([&schedule](sim::Simulation& s) {
            InjectSchedule(&s, schedule);
          })
          .AutoStart(false)  // The probe cadence is armed below first.
          .Build();
  sim::Simulation& sim = *sim_owner;

  // Integrity probe: remember the first value each (instance, node) pair
  // decided; any later snapshot showing a different value is a violation
  // even if the end state looks consistent again.
  std::map<std::pair<std::string, sim::NodeId>, std::string> first_decided;
  auto probe = [&] {
    Observation o = adapter->Observe();
    for (const auto& [inst, per_node] : o.decided) {
      for (const auto& [node, val] : per_node) {
        auto key = std::make_pair(inst, node);
        auto [it, inserted] = first_decided.emplace(key, val);
        if (!inserted && it->second != val) {
          end.integrity.push_back("integrity: instance " + inst + ": node " +
                                  NodeStr(node) + " decided \"" + it->second +
                                  "\" then re-decided \"" + val + "\"");
          it->second = val;
        }
      }
    }
  };

  const sim::Duration kProbeEvery = 50 * sim::kMillisecond;
  end.deadline = bounds.horizon + bounds.quiesce;
  std::function<void()> tick = [&] {
    adapter->OnProbe(&sim);
    probe();
    if (sim.now() + kProbeEvery <= end.deadline) {
      sim.ScheduleAfter(kProbeEvery, tick);
    }
  };
  sim.ScheduleAfter(kProbeEvery, tick);

  sim.Start();
  sim.RunUntil([&] { return adapter->Done(); }, end.deadline);
  probe();

  end.observation = adapter->Observe();
  end.completed = adapter->Done();
  end.expect_termination = adapter->ExpectTermination();
  end.messages_sent = sim.stats().messages_sent;
  end.bytes_sent = sim.stats().bytes_sent;
  return end;
}

RunResult RunSchedule(const AdapterFactory& factory, uint64_t seed,
                      const FaultSchedule& schedule) {
  RunEnd end = RunToEnd(factory, seed, schedule);
  RunResult result;
  result.violations = CheckInvariants(end.observation);
  result.violations.insert(result.violations.end(), end.integrity.begin(),
                           end.integrity.end());
  result.completed = end.completed;
  if (end.expect_termination && !end.completed) {
    result.violations.push_back(
        "liveness: workload incomplete after faults healed (deadline " +
        std::to_string(end.deadline / sim::kMillisecond) + "ms)");
  }
  return result;
}

RunResult RunSeed(const AdapterFactory& factory, uint64_t seed,
                  FaultSchedule* schedule_out) {
  std::unique_ptr<ProtocolAdapter> probe_adapter = factory(seed);
  FaultSchedule schedule = GenerateSchedule(seed, probe_adapter->bounds());
  probe_adapter.reset();
  if (schedule_out != nullptr) *schedule_out = schedule;
  return RunSchedule(factory, seed, schedule);
}

}  // namespace consensus40::check
