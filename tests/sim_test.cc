#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulation.h"

namespace consensus40::sim {
namespace {

struct Ping : Message {
  explicit Ping(int v) : value(v) {}
  const char* TypeName() const override { return "ping"; }
  int value;
};

struct Pong : Message {
  const char* TypeName() const override { return "pong"; }
};

/// Echo server: replies pong to every ping.
class Echo : public Process {
 public:
  void OnMessage(NodeId from, const Message& msg) override {
    if (dynamic_cast<const Ping*>(&msg) != nullptr) {
      Send(from, std::make_shared<Pong>());
    }
    ++received;
  }
  int received = 0;
};

/// Pinger: sends one ping to a target on start, counts pongs.
class Pinger : public Process {
 public:
  explicit Pinger(NodeId target) : target_(target) {}
  void OnStart() override { Send(target_, std::make_shared<Ping>(1)); }
  void OnMessage(NodeId, const Message& msg) override {
    if (dynamic_cast<const Pong*>(&msg) != nullptr) ++pongs;
  }
  int pongs = 0;

 private:
  NodeId target_;
};

TEST(SimulationTest, PingPongDelivers) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(echo->received, 1);
  EXPECT_EQ(pinger->pongs, 1);
  EXPECT_EQ(sim.stats().messages_sent, 2u);
  EXPECT_EQ(sim.stats().messages_delivered, 2u);
}

TEST(SimulationTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    auto sim_owner = Simulation::Builder(seed).AutoStart(false).Build();
    Simulation& sim = *sim_owner;
    Echo* echo = sim.Spawn<Echo>();
    std::vector<Pinger*> pingers;
    for (int i = 0; i < 10; ++i) pingers.push_back(sim.Spawn<Pinger>(echo->id()));
    sim.Start();
    sim.RunFor(1 * kSecond);
    return sim.now();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(SimulationTest, VirtualTimeAdvancesWithDelays) {
  NetworkOptions opts;
  opts.min_delay = 10 * kMillisecond;
  opts.max_delay = 10 * kMillisecond;
  auto sim_owner =
      Simulation::Builder(1).Network(opts).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.Start();
  bool done = sim.RunUntil([&] { return pinger->pongs == 1; }, 1 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(sim.now(), 20 * kMillisecond);  // Two hops at exactly 10ms each.
}

TEST(SimulationTest, CrashedProcessReceivesNothing) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.Crash(echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(echo->received, 0);
  EXPECT_EQ(pinger->pongs, 0);
  EXPECT_GE(sim.stats().messages_dropped, 1u);
}

class TimerUser : public Process {
 public:
  void OnStart() override {
    timer_id_ = SetTimer(100 * kMillisecond, [this] { fired = true; });
    SetTimer(10 * kMillisecond, [this] { early_fired = true; });
  }
  void OnMessage(NodeId, const Message&) override {}
  void CancelMain() { CancelTimer(timer_id_); }
  bool fired = false;
  bool early_fired = false;

 private:
  uint64_t timer_id_ = 0;
};

TEST(SimulationTest, TimersFireAndCancel) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  TimerUser* t = sim.Spawn<TimerUser>();
  sim.Start();
  sim.RunFor(50 * kMillisecond);
  EXPECT_TRUE(t->early_fired);
  EXPECT_FALSE(t->fired);
  t->CancelMain();
  sim.RunFor(200 * kMillisecond);
  EXPECT_FALSE(t->fired);
}

TEST(SimulationTest, CrashInvalidatesPendingTimers) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  TimerUser* t = sim.Spawn<TimerUser>();
  sim.Start();
  sim.Crash(t->id());
  sim.RunFor(1 * kSecond);
  EXPECT_FALSE(t->fired);
  EXPECT_FALSE(t->early_fired);
}

TEST(SimulationTest, RestartDeliversAgain) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* p1 = sim.Spawn<Pinger>(echo->id());
  sim.Crash(echo->id());
  sim.Start();
  sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(p1->pongs, 0);
  sim.Restart(echo->id());
  Pinger* p2 = sim.Spawn<Pinger>(echo->id());
  sim.Start();  // Starts only the newly spawned process.
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(p2->pongs, 1);
}

TEST(SimulationTest, PartitionBlocksCrossGroupTraffic) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.Partition({{echo->id()}, {pinger->id()}});
  sim.Start();
  sim.RunFor(500 * kMillisecond);
  EXPECT_EQ(pinger->pongs, 0);

  sim.Heal();
  Pinger* p2 = sim.Spawn<Pinger>(echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(p2->pongs, 1);
}

TEST(SimulationTest, BlockedLinkIsDirected) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  // Block only the reply direction.
  sim.BlockLink(echo->id(), pinger->id());
  sim.Start();
  sim.RunFor(500 * kMillisecond);
  EXPECT_EQ(echo->received, 1);
  EXPECT_EQ(pinger->pongs, 0);
}

TEST(SimulationTest, DropRateLosesMessages) {
  NetworkOptions opts;
  opts.drop_rate = 1.0;
  auto sim_owner =
      Simulation::Builder(1).Network(opts).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<Pinger>(echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(echo->received, 0);
}

TEST(SimulationTest, DelayFnOverridesModel) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.SetDelayFn([](const Envelope&) -> Duration { return 42 * kMillisecond; });
  sim.Start();
  sim.RunUntil([&] { return pinger->pongs == 1; }, 1 * kSecond);
  EXPECT_EQ(sim.now(), 84 * kMillisecond);
}

TEST(SimulationTest, DelayFnCanDrop) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<Pinger>(echo->id());
  sim.SetDelayFn([](const Envelope&) -> Duration { return -1; });
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(echo->received, 0);
}

TEST(SimulationTest, TraceHookSeesDeliveries) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<Pinger>(echo->id());
  std::vector<std::string> types;
  sim.SetTraceFn([&](const Envelope& e, Time) {
    types.push_back(e.msg->TypeName());
  });
  sim.Start();
  sim.RunFor(1 * kSecond);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], "ping");
  EXPECT_EQ(types[1], "pong");
}

TEST(SimulationTest, StatsPerTypeCounting) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<Pinger>(echo->id());
  sim.Spawn<Pinger>(echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(sim.stats().sent_by_type.at("ping"), 2u);
  EXPECT_EQ(sim.stats().sent_by_type.at("pong"), 2u);
}

/// Sends a ping to the target every `period`, forever.
class RepeatPinger : public Process {
 public:
  RepeatPinger(NodeId target, Duration period)
      : target_(target), period_(period) {}
  void OnStart() override { Tick(); }
  void OnMessage(NodeId, const Message&) override {}

 private:
  void Tick() {
    Send(target_, std::make_shared<Ping>(1));
    SetTimer(period_, [this] { Tick(); });
  }
  NodeId target_;
  Duration period_;
};

// Reset() mid-run must restart per-type counts from zero even though the
// send fast path holds cursors into sent_by_type that were resolved
// before the reset. A stale cursor would write into freed map nodes and
// the post-reset window would come up short (or corrupt the heap).
TEST(SimulationTest, StatsResetMidRunInvalidatesLiveTypeCursors) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<RepeatPinger>(echo->id(), 10 * kMillisecond);
  sim.Start();
  sim.RunFor(100 * kMillisecond);  // Cursors for ping/pong are now live.
  ASSERT_EQ(sim.stats().sent_by_type.at("ping"), 11u);  // t=0..100 inclusive.
  sim.stats().Reset();
  EXPECT_TRUE(sim.stats().sent_by_type.empty());
  EXPECT_EQ(sim.stats().messages_sent, 0u);
  sim.RunFor(100 * kMillisecond);
  // Exactly the post-reset traffic: pings at t=110..200 plus the pongs
  // answering pings 100..190 (max delay 5ms keeps each reply's send
  // inside the window; the t=200 ping's pong falls outside).
  EXPECT_EQ(sim.stats().sent_by_type.at("ping"), 10u);
  EXPECT_EQ(sim.stats().sent_by_type.at("pong"), 10u);
  EXPECT_EQ(sim.stats().messages_sent, 20u);
}

TEST(SimulationTest, SameTimeEventsFifo) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.ScheduleAt(5, [&] { order.push_back(0); });
  sim.RunFor(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/// Exposes the protected timer interface so tests can drive it directly.
class TimerHost : public Process {
 public:
  void OnMessage(NodeId, const Message&) override {}
  uint64_t Arm(Duration d, std::function<void()> fn) {
    return SetTimer(d, std::move(fn));
  }
  void Cancel(uint64_t id) { CancelTimer(id); }
};

// Regression: cancelling a timer after it fired must be a no-op that leaves
// no bookkeeping residue. The fired timer's slot is recycled (the next timer
// reuses the same slab index) and the stale handle, whose generation no
// longer matches, must not touch the slot's new occupant.
TEST(SimulationTest, CancelAfterFireIsNoopAndLeavesNoResidue) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  TimerHost* host = sim.Spawn<TimerHost>();
  sim.Start();

  int first = 0;
  int second = 0;
  const uint64_t a = host->Arm(10, [&] { ++first; });
  sim.RunFor(100);
  EXPECT_EQ(first, 1);

  // Only timer traffic in this simulation, so the freed slot is reused
  // immediately: same slab index, fresh generation.
  const uint64_t b = host->Arm(10, [&] { ++second; });
  EXPECT_NE(a, b);
  EXPECT_EQ(a & 0xFFFFFFFFu, b & 0xFFFFFFFFu);

  host->Cancel(a);  // Stale: must not cancel the slot's new occupant.
  sim.RunFor(100);
  EXPECT_EQ(second, 1);

  host->Cancel(b);  // Cancel-after-fire, twice: still a no-op.
  host->Cancel(b);
  sim.RunFor(100);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

// Regression: spawning while a partition is in effect used to read past the
// end of the partition map. The new node must start isolated and join the
// topology only on the next Partition()/Heal().
TEST(SimulationTest, SpawnDuringPartitionStartsIsolated) {
  NetworkOptions net;
  net.min_delay = net.max_delay = 1 * kMillisecond;
  auto sim_owner = Simulation::Builder(1).Network(net).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* a = sim.Spawn<Echo>();
  Echo* b = sim.Spawn<Echo>();
  sim.Start();
  sim.Partition({{a->id()}, {b->id()}});

  Pinger* late = sim.Spawn<Pinger>(a->id());
  sim.Start();  // Runs OnStart for the newly spawned pinger.
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(a->received, 0);  // Isolated: nothing crosses.
  EXPECT_EQ(late->pongs, 0);

  sim.Heal();
  sim.Spawn<Pinger>(a->id());
  sim.Start();
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(a->received, 1);  // Healed topology covers the late spawns.
}

// Regression: a message in flight to a process that crashes *and restarts*
// before the delivery time must be dropped. Delivery is for the incarnation
// the message was addressed to, not whoever occupies the id later.
TEST(SimulationTest, CrashAndRestartInsideDelayWindowDropsDelivery) {
  NetworkOptions net;
  net.min_delay = net.max_delay = 10 * kMillisecond;
  auto sim_owner = Simulation::Builder(1).Network(net).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  sim.Spawn<Pinger>(echo->id());
  sim.Start();  // Ping sent at t=0, due at t=10ms.

  sim.RunFor(2 * kMillisecond);
  sim.Crash(echo->id());
  sim.RunFor(2 * kMillisecond);
  sim.Restart(echo->id());  // Alive again well before the delivery time.
  sim.RunFor(20 * kMillisecond);
  EXPECT_EQ(echo->received, 0);
  EXPECT_EQ(sim.stats().messages_dropped, 1u);

  // The restarted incarnation is reachable by fresh sends.
  sim.Spawn<Pinger>(echo->id());
  sim.Start();
  sim.RunFor(20 * kMillisecond);
  EXPECT_EQ(echo->received, 1);
}

// Regression: a send the topology rejects outright never reaches the
// network, so it must count as dropped and nothing else — no messages_sent,
// no bytes_sent, no per-type row.
TEST(SimulationTest, TopologyRejectedSendIsNotCountedAsSent) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  Echo* echo = sim.Spawn<Echo>();
  Pinger* pinger = sim.Spawn<Pinger>(echo->id());
  sim.BlockLink(pinger->id(), echo->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  EXPECT_EQ(echo->received, 0);
  EXPECT_EQ(sim.stats().messages_sent, 0u);
  EXPECT_EQ(sim.stats().bytes_sent, 0u);
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
  EXPECT_EQ(sim.stats().sent_by_type.count("ping"), 0u);
}

// Regression: a failed RunUntil still consumes the waited-for interval, like
// RunFor does; the clock must land on the deadline, not on the last event.
TEST(SimulationTest, RunUntilAdvancesClockToDeadlineOnFailure) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  bool ran = false;
  sim.ScheduleAt(10 * kMillisecond, [&] { ran = true; });
  EXPECT_FALSE(sim.RunUntil([] { return false; }, 50 * kMillisecond));
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 50 * kMillisecond);
}

// FIFO among same-time events must survive bucket recycling and handlers
// that append to the current timestamp while it is being drained.
TEST(SimulationTest, SameTimeFifoSurvivesBucketRecycling) {
  auto sim_owner = Simulation::Builder(1).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  sim.RunFor(10);  // Drains and frees the t=10 bucket.
  for (int i = 8; i < 16; ++i) {
    sim.ScheduleAt(20, [&order, i] { order.push_back(i); });
  }
  sim.ScheduleAt(30, [&] {
    order.push_back(16);
    sim.ScheduleAt(30, [&] { order.push_back(17); });  // Same-time append.
  });
  sim.RunFor(100);
  std::vector<int> want;
  for (int i = 0; i < 18; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

/// Gossip workload for the replay test: multicasts on a timer, reacts to
/// traffic by cancelling and re-arming that timer, so crashes interleave
/// with pending timers and in-flight multicasts.
class Gossiper : public Process {
 public:
  explicit Gossiper(int fleet) : fleet_(fleet) {}
  void OnStart() override { Round_(); }
  void OnMessage(NodeId, const Message&) override {
    ++heard_;
    if (heard_ % 3 == 0) {
      CancelTimer(pending_);
      pending_ = SetTimer(3 * kMillisecond, [this] { Round_(); });
    }
  }

 private:
  void Round_() {
    std::vector<NodeId> targets;
    for (NodeId n = 0; n < fleet_; ++n) {
      if (n != id()) targets.push_back(n);
    }
    Multicast(targets, std::make_shared<Pong>());
    pending_ = SetTimer(7 * kMillisecond, [this] { Round_(); });
  }

  int fleet_;
  int heard_ = 0;
  uint64_t pending_ = 0;
};

// Same seed, same scenario => byte-identical delivery order and statistics,
// across jittered delays, random drops, multicast fan-out, timer
// cancellation, and crash/restart epochs.
TEST(SimulationTest, DeterministicReplayOfChaoticRun) {
  struct Observed {
    std::vector<std::tuple<NodeId, NodeId, uint64_t, Time>> deliveries;
    uint64_t sent = 0, delivered = 0, dropped = 0, bytes = 0;
    std::map<std::string, uint64_t> by_type;
    bool operator==(const Observed&) const = default;
  };
  auto run = [] {
    NetworkOptions net;
    net.min_delay = 1 * kMillisecond;
    net.max_delay = 5 * kMillisecond;
    net.drop_rate = 0.1;
    auto sim_owner =
        Simulation::Builder(7).Network(net).AutoStart(false).Build();
    Simulation& sim = *sim_owner;
    constexpr int kFleet = 5;
    for (int i = 0; i < kFleet; ++i) sim.Spawn<Gossiper>(kFleet);
    Observed seen;
    sim.SetTraceFn([&](const Envelope& e, Time t) {
      seen.deliveries.emplace_back(e.from, e.to, e.id, t);
    });
    sim.Start();
    sim.RunFor(20 * kMillisecond);
    sim.Crash(1);  // Crash with timers pending and multicasts in flight.
    sim.RunFor(10 * kMillisecond);
    sim.Restart(1);
    sim.RunFor(5 * kMillisecond);
    sim.Crash(3);
    sim.RunFor(50 * kMillisecond);
    seen.sent = sim.stats().messages_sent;
    seen.delivered = sim.stats().messages_delivered;
    seen.dropped = sim.stats().messages_dropped;
    seen.bytes = sim.stats().bytes_sent;
    seen.by_type = sim.stats().sent_by_type;
    return seen;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.deliveries.size(), 100u);
  EXPECT_TRUE(first == second);
}

// ---------------------------------------------------------------------------
// Finite per-sender egress bandwidth (NetworkOptions::bytes_per_ms).
// ---------------------------------------------------------------------------

/// A payload-carrying message whose wire size the tests control exactly.
struct Blob : Message {
  explicit Blob(int bytes) : bytes(bytes) {}
  const char* TypeName() const override { return "blob"; }
  int ByteSize() const override { return bytes; }
  int bytes;
};

/// Records the virtual delivery time of every blob it receives.
class BlobSink : public Process {
 public:
  void OnMessage(NodeId, const Message& msg) override {
    if (dynamic_cast<const Blob*>(&msg) != nullptr) arrivals.push_back(Now());
  }
  std::vector<Time> arrivals;
};

/// Back-to-back sends from one node serialize one at a time: each blob
/// waits for the egress port to free before its propagation delay starts,
/// so delivery times space out by exactly bytes/bandwidth.
TEST(SimulationTest, BandwidthQueuesBackToBackSendsPerEgressPort) {
  NetworkOptions net;
  net.min_delay = net.max_delay = 1 * kMillisecond;  // Fixed propagation.
  net.bytes_per_ms = 100.0;
  auto sim_owner = Simulation::Builder(1).Network(net).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  BlobSink* sink = sim.Spawn<BlobSink>();
  class Burst : public Process {
   public:
    explicit Burst(NodeId to) : to_(to) {}
    void OnMessage(NodeId, const Message&) override {}
    void OnStart() override {
      Send(to_, std::make_shared<Blob>(500));
      Send(to_, std::make_shared<Blob>(500));
    }

   private:
    NodeId to_;
  };
  sim.Spawn<Burst>(sink->id());
  sim.Start();
  sim.RunFor(1 * kSecond);
  // 500 B at 100 B/ms = 5 ms serialization each, queued: the first blob
  // leaves the port at 5 ms (arrives 6 ms with propagation), the second
  // at 10 ms (arrives 11 ms).
  ASSERT_EQ(sink->arrivals.size(), 2u);
  EXPECT_EQ(sink->arrivals[0], 6 * kMillisecond);
  EXPECT_EQ(sink->arrivals[1], 11 * kMillisecond);
  // True framed bytes hit the stats, not the 64-byte default.
  EXPECT_EQ(sim.stats().bytes_sent, 1000u);
}

/// A multicast is n unicasts at the sender's port: each target's copy
/// pays its own serialization slot, and the backlog the burst leaves
/// behind is visible through EgressBacklog — the signal payload-aware
/// protocols adapt on.
TEST(SimulationTest, MulticastPaysPerTargetSerializationAndExposesBacklog) {
  NetworkOptions net;
  net.min_delay = net.max_delay = 1 * kMillisecond;
  net.bytes_per_ms = 100.0;
  auto sim_owner = Simulation::Builder(1).Network(net).AutoStart(false).Build();
  Simulation& sim = *sim_owner;
  std::vector<BlobSink*> sinks;
  for (int i = 0; i < 3; ++i) sinks.push_back(sim.Spawn<BlobSink>());
  class Caster : public Process {
   public:
    Caster(std::vector<NodeId> to, Simulation* sim) : to_(to), sim_(sim) {}
    void OnMessage(NodeId, const Message&) override {}
    void OnStart() override {
      Multicast(to_, std::make_shared<Blob>(500));
      backlog_after = sim_->EgressBacklog(id());
      SetTimer(7 * kMillisecond,
               [this] { backlog_later = sim_->EgressBacklog(id()); });
    }
    Duration backlog_after = 0;
    Duration backlog_later = 0;

   private:
    std::vector<NodeId> to_;
    Simulation* sim_;
  };
  Caster* caster = sim.Spawn<Caster>(
      std::vector<NodeId>{sinks[0]->id(), sinks[1]->id(), sinks[2]->id()},
      &sim);
  sim.Start();
  sim.RunFor(1 * kSecond);
  // Three 5 ms serializations queue behind each other; arrivals land at
  // 6, 11, and 16 ms in target order.
  std::vector<Time> all;
  for (BlobSink* s : sinks) {
    ASSERT_EQ(s->arrivals.size(), 1u);
    all.push_back(s->arrivals[0]);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all[0], 6 * kMillisecond);
  EXPECT_EQ(all[1], 11 * kMillisecond);
  EXPECT_EQ(all[2], 16 * kMillisecond);
  // The burst booked the port 15 ms ahead; 7 ms later, 8 ms remain.
  EXPECT_EQ(caster->backlog_after, 15 * kMillisecond);
  EXPECT_EQ(caster->backlog_later, 8 * kMillisecond);
  // An idle node has no backlog.
  EXPECT_EQ(sim.EgressBacklog(sinks[0]->id()), 0);
}

/// The default configuration (no bandwidth) must replay the chaotic
/// scenario byte-identically to an explicit zero rate: the bandwidth
/// plumbing is inert unless enabled, so every pinned repro and bench
/// baseline from before the feature keeps its exact schedule.
TEST(SimulationTest, ZeroBandwidthIsIdenticalToDefault) {
  auto run = [](bool explicit_zero) {
    NetworkOptions net;
    net.min_delay = 1 * kMillisecond;
    net.max_delay = 5 * kMillisecond;
    net.drop_rate = 0.1;
    if (explicit_zero) net.bytes_per_ms = 0.0;
    auto sim_owner =
        Simulation::Builder(7).Network(net).AutoStart(false).Build();
    Simulation& sim = *sim_owner;
    constexpr int kFleet = 5;
    for (int i = 0; i < kFleet; ++i) sim.Spawn<Gossiper>(kFleet);
    std::vector<std::tuple<NodeId, NodeId, uint64_t, Time>> deliveries;
    sim.SetTraceFn([&](const Envelope& e, Time t) {
      deliveries.emplace_back(e.from, e.to, e.id, t);
    });
    sim.Start();
    sim.RunFor(50 * kMillisecond);
    return deliveries;
  };
  const auto defaulted = run(false);
  const auto zeroed = run(true);
  EXPECT_GT(defaulted.size(), 50u);
  EXPECT_EQ(defaulted, zeroed);
}

}  // namespace
}  // namespace consensus40::sim
