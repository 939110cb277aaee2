// Simulator-core micro-benchmark: how fast does the discrete-event engine
// itself run, and how much heap does it burn per event? Every figure in
// EXPERIMENTS.md is produced by this engine, so its events/sec caps the n and
// the virtual horizon every protocol bench can explore.
//
// Four workloads stress the hot paths:
//   ping-pong storm   — unicast send + delivery + rng delay draw
//   multicast storm   — one sender fanning out to 100 receivers per round
//   timer churn       — SetTimer / CancelTimer / fire cycling
//   timeout re-arm    — a long timeout cancelled and set again on every
//                       1 ms tick, the replicas' election-timer pattern
//
// Events are counted at the application level (OnMessage calls + timer
// fires), so the number is identical across engine rewrites: only the wall
// clock and the allocation counters move. Results go to stdout and to
// BENCH_simcore.json in the working directory so later PRs can track the
// trajectory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/table.h"
#include "sim/simulation.h"

// Global allocation counters. Overriding operator new in the benchmark
// binary counts every heap allocation made by the engine under test without
// external tooling; the steady state of a well-behaved event loop should add
// ~0 bytes/event.
namespace {
uint64_t g_heap_bytes = 0;
uint64_t g_heap_allocs = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    g_heap_bytes += n;
    ++g_heap_allocs;
  }
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace consensus40;

namespace {

uint64_t g_app_events = 0;  // The simulation is single-threaded.

struct Ping : sim::Message {
  const char* TypeName() const override { return "bench-ping"; }
  int ByteSize() const override { return 64; }
};
struct Pong : sim::Message {
  const char* TypeName() const override { return "bench-pong"; }
  int ByteSize() const override { return 64; }
};
struct Blast : sim::Message {
  const char* TypeName() const override { return "bench-blast"; }
  int ByteSize() const override { return 256; }
};
struct Ack : sim::Message {
  const char* TypeName() const override { return "bench-ack"; }
  int ByteSize() const override { return 32; }
};

/// Replies pong to every ping, forever. The reply payload is immutable and
/// built once: the workload measures the engine, not make_shared churn.
class Echoer : public sim::Process {
 public:
  void OnMessage(sim::NodeId from, const sim::Message&) override {
    ++g_app_events;
    Send(from, pong_);
  }

 private:
  sim::MessagePtr pong_ = std::make_shared<Pong>();
};

/// Fires a ping at its echoer on start and again on every pong: a
/// self-sustaining round-trip chain.
class Stormer : public sim::Process {
 public:
  explicit Stormer(sim::NodeId target) : target_(target) {}
  void OnStart() override { Send(target_, ping_); }
  void OnMessage(sim::NodeId, const sim::Message&) override {
    ++g_app_events;
    Send(target_, ping_);
  }

 private:
  sim::NodeId target_;
  sim::MessagePtr ping_ = std::make_shared<Ping>();
};

/// Multicast-storm coordinator: blasts all receivers, waits for every ack,
/// immediately blasts again.
class Blaster : public sim::Process {
 public:
  explicit Blaster(std::vector<sim::NodeId> targets)
      : targets_(std::move(targets)) {}
  void OnStart() override { Blast_(); }
  void OnMessage(sim::NodeId, const sim::Message&) override {
    ++g_app_events;
    if (++acks_ == static_cast<int>(targets_.size())) {
      acks_ = 0;
      Blast_();
    }
  }

 private:
  void Blast_() { Multicast(targets_, blast_); }
  std::vector<sim::NodeId> targets_;
  sim::MessagePtr blast_ = std::make_shared<Blast>();
  int acks_ = 0;
};

/// Multicast-storm receiver: acks every blast.
class Acker : public sim::Process {
 public:
  void OnMessage(sim::NodeId from, const sim::Message&) override {
    ++g_app_events;
    Send(from, ack_);
  }

 private:
  sim::MessagePtr ack_ = std::make_shared<Ack>();
};

/// Timer churn: every firing schedules two successors and cancels one of
/// them, so SetTimer runs twice and CancelTimer once per fire while the live
/// timer population stays constant.
class TimerChurner : public sim::Process {
 public:
  void OnStart() override { Arm_(); }
  void OnMessage(sim::NodeId, const sim::Message&) override {}

 private:
  void Arm_() {
    uint64_t doomed = SetTimer(2 * sim::kMillisecond, [] {});
    SetTimer(1 * sim::kMillisecond, [this] {
      ++g_app_events;
      Arm_();
    });
    CancelTimer(doomed);
  }
};

/// The re-arm pattern of the protocol replicas: a 1 ms tick (standing in
/// for an AppendEntries arrival) cancels a 150-300 ms timeout and sets a
/// fresh one, as Raft's ResetElectionTimer does, so the timeout never
/// fires. Each tick is one event; the cancelled timeouts are not.
class TimeoutRearmer : public sim::Process {
 public:
  void OnStart() override { Tick_(); }
  void OnMessage(sim::NodeId, const sim::Message&) override {}

 private:
  void Tick_() {
    CancelTimer(timeout_);
    timeout_ = SetTimer(kTimeout + static_cast<sim::Duration>(
                                       rng().NextBounded(kTimeout)),
                        [] {});
    SetTimer(1 * sim::kMillisecond, [this] {
      ++g_app_events;
      Tick_();
    });
  }
  static constexpr sim::Duration kTimeout = 150 * sim::kMillisecond;
  uint64_t timeout_ = 0;
};

struct WorkloadResult {
  std::string name;
  uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double bytes_per_event = 0;
  double allocs_per_event = 0;
  uint64_t messages_sent = 0;
};

constexpr int kRepetitions = 7;

// Runs the workload kRepetitions times (fresh simulation each time — the
// engine is deterministic, so the event counts are identical) and keeps the
// fastest run: best-of-N is the standard guard against scheduler noise in
// throughput microbenchmarks.
template <typename SetupFn>
WorkloadResult RunWorkload(const std::string& name, sim::NetworkOptions net,
                           sim::Duration horizon, SetupFn setup) {
  WorkloadResult best;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto sim_owner =
        sim::Simulation::Builder(/*seed=*/42).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    setup(sim);
    sim.Start();
    // Warm-up: let slabs, queues, and stat tables reach steady-state size
    // before the counters start.
    sim.RunFor(horizon / 10);

    g_app_events = 0;
    g_heap_bytes = 0;
    g_heap_allocs = 0;
    g_counting = true;
    auto t0 = std::chrono::steady_clock::now();
    sim.RunFor(horizon);
    auto t1 = std::chrono::steady_clock::now();
    g_counting = false;

    WorkloadResult r;
    r.name = name;
    r.events = g_app_events;
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.events_per_sec = r.wall_s > 0 ? r.events / r.wall_s : 0;
    r.bytes_per_event =
        r.events > 0 ? static_cast<double>(g_heap_bytes) / r.events : 0;
    r.allocs_per_event =
        r.events > 0 ? static_cast<double>(g_heap_allocs) / r.events : 0;
    r.messages_sent = sim.stats().messages_sent;
    if (rep == 0 || r.events_per_sec > best.events_per_sec) best = r;
  }
  return best;
}

WorkloadResult PingPongStorm() {
  // 64 sustained round-trip chains under the default 1–5 ms jittered
  // network: unicast path + per-message rng draw.
  return RunWorkload("ping_pong_storm", sim::NetworkOptions(),
                     60 * sim::kSecond, [](sim::Simulation& sim) {
                       for (int i = 0; i < 64; ++i) {
                         auto* echo = sim.Spawn<Echoer>();
                         sim.Spawn<Stormer>(echo->id());
                       }
                     });
}

WorkloadResult MulticastStorm() {
  // One coordinator fanning out to 100 receivers per round over a fixed
  // 1 ms network: the Multicast + per-type accounting path.
  sim::NetworkOptions net;
  net.min_delay = net.max_delay = 1 * sim::kMillisecond;
  return RunWorkload("multicast_storm_100", net, 90 * sim::kSecond,
                     [](sim::Simulation& sim) {
                       std::vector<sim::NodeId> targets;
                       for (int i = 0; i < 100; ++i)
                         targets.push_back(sim.Spawn<Acker>()->id());
                       sim.Spawn<Blaster>(targets);
                     });
}

WorkloadResult TimerChurn() {
  // 256 processes cycling timers: SetTimer x2 + CancelTimer per fire.
  return RunWorkload("timer_churn", sim::NetworkOptions(), 20 * sim::kSecond,
                     [](sim::Simulation& sim) {
                       for (int i = 0; i < 256; ++i) sim.Spawn<TimerChurner>();
                     });
}

WorkloadResult TimeoutRearm() {
  // 64 processes, each re-arming its timeout on every 1 ms tick.
  return RunWorkload("timeout_rearm", sim::NetworkOptions(), 20 * sim::kSecond,
                     [](sim::Simulation& sim) {
                       for (int i = 0; i < 64; ++i) sim.Spawn<TimeoutRearmer>();
                     });
}

void WriteJson(const std::vector<WorkloadResult>& results) {
  FILE* f = std::fopen("BENCH_simcore.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_simcore: cannot write BENCH_simcore.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"simcore\",\n  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
                 "\"bytes_per_event\": %.2f, \"allocs_per_event\": %.3f, "
                 "\"messages_sent\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.wall_s, r.events_per_sec, r.bytes_per_event,
                 r.allocs_per_event,
                 static_cast<unsigned long long>(r.messages_sent),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("==== simcore: discrete-event engine micro-benchmark ====\n\n");

  std::vector<WorkloadResult> results = {PingPongStorm(), MulticastStorm(),
                                         TimerChurn(), TimeoutRearm()};

  TextTable t({"workload", "events", "events/sec", "bytes/event",
               "allocs/event"});
  for (const WorkloadResult& r : results) {
    t.AddRow({r.name, TextTable::Int(static_cast<int64_t>(r.events)),
              TextTable::Num(r.events_per_sec / 1e6, 2) + "M",
              TextTable::Num(r.bytes_per_event, 1),
              TextTable::Num(r.allocs_per_event, 2)});
  }
  std::printf("%s\n", t.ToString().c_str());
  std::printf(
      "events = application-observed deliveries + timer fires; bytes and\n"
      "allocs are heap traffic from the whole process during the measured\n"
      "window (operator-new hook), dominated by the engine's per-event\n"
      "cost plus the protocol-side make_shared per message.\n");

  WriteJson(results);
  std::printf("\nwrote BENCH_simcore.json\n");
  return 0;
}
