#ifndef CONSENSUS40_SIM_SIMULATION_H_
#define CONSENSUS40_SIM_SIMULATION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "common/slab.h"

namespace consensus40::sim {

/// Identifier of a simulated process. Ids are dense, assigned in spawn order.
using NodeId = int;
constexpr NodeId kInvalidNode = -1;

/// Virtual time in microseconds since simulation start.
using Time = int64_t;
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;

/// Base class of every message exchanged between simulated processes.
/// Protocols define subclasses carrying their payloads; the simulator only
/// needs a type name (for per-type statistics and flow traces) and a size
/// estimate (for byte accounting).
struct Message {
  virtual ~Message() = default;

  /// Stable name used in statistics and message-flow traces, e.g. "prepare".
  /// The returned pointer must stay valid (and its contents constant) for
  /// the lifetime of the simulation; returning a string literal, as every
  /// protocol here does, satisfies that for free.
  virtual const char* TypeName() const = 0;

  /// Approximate wire size in bytes, used only for accounting.
  virtual int ByteSize() const { return 64; }
};

using MessagePtr = std::shared_ptr<const Message>;

/// A message in flight: sender, receiver, payload, and send timestamp.
struct Envelope {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MessagePtr msg;
  Time send_time = 0;
  uint64_t id = 0;  ///< Unique per simulation, in send order.
};

/// Aggregate network statistics, maintained by the simulation.
///
/// Accounting rules:
///   - `messages_sent` / `bytes_sent` / `sent_by_type` count only *admitted*
///     sends: those the link rules (partitions, blocked links) let onto the
///     network at send time. A send rejected outright by the topology counts
///     one `messages_dropped` and nothing else.
///   - A message the delay model discards (drop_rate or a negative DelayFn
///     return) or that is dropped at delivery time (destination crashed or
///     restarted, topology changed while in flight) counts as sent *and*
///     dropped.
///
/// Zero the counters mid-run with Reset(), not by assigning a fresh struct:
/// the simulation keeps fast-path cursors into `sent_by_type` that only
/// Reset() invalidates.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  std::map<std::string, uint64_t> sent_by_type;

  void Reset() {
    messages_sent = messages_delivered = messages_dropped = bytes_sent = 0;
    sent_by_type.clear();
    ++reset_count_;
  }

  /// Internal: bumped by Reset() so the simulation can detect stale cursors.
  uint64_t reset_count() const { return reset_count_; }

 private:
  uint64_t reset_count_ = 0;
};

/// Message-delay model. The default is a partially-synchronous network:
/// uniform random delay in [min_delay, max_delay] plus an optional drop rate.
///
/// When `bytes_per_ms` is positive the network also charges a
/// *serialization* delay on every send: each sender owns one egress port
/// that puts `ByteSize()` bytes on the wire at `bytes_per_ms`, so a burst
/// of large sends queues behind itself (delivery = egress-queue drain +
/// serialization + propagation). The default (0) is an infinite-bandwidth
/// network: no serialization charge, no egress queue, and — critically —
/// no extra rng draws, so every pre-existing seeded run is bit-identical.
struct NetworkOptions {
  Duration min_delay = 1 * kMillisecond;
  Duration max_delay = 5 * kMillisecond;
  double drop_rate = 0.0;
  double bytes_per_ms = 0.0;  ///< 0 = infinite bandwidth (default).

  /// True when any serialization charge applies (the bandwidth model is on).
  bool HasBandwidth() const { return bytes_per_ms > 0; }
};

class Simulation;
class ByzantineInterposer;

/// A simulated process (replica, client, miner, ...). Protocol code derives
/// from Process and reacts to OnStart / OnMessage / timers. All interaction
/// with the outside world goes through the protected helpers, which keeps
/// every protocol implementation deterministic and wall-clock-free.
class Process {
 public:
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// This process's id within its simulation.
  NodeId id() const { return id_; }

  /// True while the process is crashed (between Crash() and Restart()).
  bool crashed() const { return crashed_; }

  /// Called once when the simulation starts (or when the process is spawned
  /// into an already-running simulation).
  virtual void OnStart() {}

  /// Called for every delivered message.
  virtual void OnMessage(NodeId from, const Message& msg) = 0;

  /// Called when the process restarts after a crash. Volatile state should
  /// be reset here; state the protocol persists to "stable storage" may be
  /// kept (each protocol documents what it persists).
  virtual void OnRestart() {}

 protected:
  Process() = default;

  /// The owning simulation. Only valid after the process has been spawned.
  Simulation& sim() const { return *sim_; }

  /// Current virtual time.
  Time Now() const;

  /// Per-process deterministic random stream.
  Rng& rng() { return *rng_; }

  /// Sends a message to another process (or to self) through the simulated
  /// network.
  void Send(NodeId to, MessagePtr msg);

  /// Sends a copy of the message to every process in `targets`. The
  /// simulator builds the envelope once and shares the payload across the
  /// fan-out; per-target work is limited to the delay draw and one queued
  /// event.
  void Multicast(const std::vector<NodeId>& targets, const MessagePtr& msg);

  /// Schedules `fn` to run on this process after `delay`. The timer is
  /// silently discarded if the process crashes before it fires or if it is
  /// cancelled. Returns a cancellation handle.
  uint64_t SetTimer(Duration delay, std::function<void()> fn);

  /// Cancels a pending timer. Cancelling an already-fired (or already
  /// cancelled) timer is a no-op and leaves no bookkeeping residue.
  void CancelTimer(uint64_t timer_id);

 private:
  friend class Simulation;

  Simulation* sim_ = nullptr;
  NodeId id_ = kInvalidNode;
  bool crashed_ = false;
  uint64_t epoch_ = 0;  ///< Bumped on crash *and* restart; in-flight
                        ///< deliveries and timers check it.
  std::unique_ptr<Rng> rng_;
};

/// Deterministic discrete-event simulator: a virtual clock, an event queue,
/// a set of processes, and a configurable lossy network between them.
/// All protocol executions, fault injections, and benchmarks in this
/// repository run inside a Simulation.
///
/// The event queue is built for throughput: events live in a slab (tagged
/// variant of message-delivery / process-timer / sim-callback, recycled
/// through a free list) and are ordered by a calendar of per-timestamp FIFO
/// buckets, so the steady state allocates nothing per event and same-time
/// events cost O(1) each instead of a binary-heap reshuffle. Per-type
/// statistics go through interned TypeIds (common/interner.h) — a vector
/// index per send, not a string-keyed map lookup.
class Simulation {
 public:
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Constructs a process of type T in place and registers it. Returns a
  /// non-owning pointer valid for the lifetime of the simulation. Spawning
  /// while a partition is in effect is allowed: the new node starts isolated
  /// (group -1) until the next Partition()/Heal() call.
  template <typename T, typename... Args>
  T* Spawn(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    Register(std::move(owned));
    return raw;
  }

  /// Process lookup; id must be valid.
  Process* process(NodeId id) const { return processes_[id].get(); }
  int num_processes() const { return static_cast<int>(processes_.size()); }

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  NetStats& stats() { return stats_; }
  const NetworkOptions& options() const { return options_; }

  /// Replaces the network options mid-run. This is the injection hook used
  /// by fault schedules for delay spikes: messages sent after the call use
  /// the new delay/drop model (in-flight messages keep their old delivery
  /// times). Always goes through here rather than mutating options()
  /// directly so the fixed-delay fast-path cache stays coherent.
  void SetNetworkOptions(const NetworkOptions& o) {
    options_ = o;
    fixed_delay_ = delay_fn_ ? -1 : FixedDelayFor(options_);
  }

  /// Calls OnStart on every process that has not been started yet. Safe to
  /// call repeatedly (e.g. after spawning more processes).
  void Start();

  /// Executes the next pending event. Returns false if the queue is empty.
  bool Step();

  /// Runs until the virtual clock reaches now()+d (events at the boundary
  /// included). The clock always ends at exactly now()+d.
  void RunFor(Duration d);

  /// Runs until the predicate holds (checked after every event) or the
  /// virtual clock passes `deadline`. Returns true if the predicate held.
  /// On failure the clock advances to `deadline` (mirroring RunFor), so a
  /// timed-out wait leaves now() at the deadline rather than at the last
  /// executed event.
  bool RunUntil(const std::function<bool()>& pred, Time deadline);

  /// Crashes a process: pending deliveries and timers for it are dropped —
  /// including messages already in flight, even if the process restarts
  /// before their delivery time — and future deliveries are dropped until
  /// Restart. (Each delivery carries the destination's epoch from send
  /// time; crash and restart both bump the epoch, so nothing sent to an
  /// earlier incarnation is ever delivered to a later one.)
  void Crash(NodeId id);

  /// Restarts a crashed process (calls OnRestart).
  void Restart(NodeId id);

  bool IsCrashed(NodeId id) const { return processes_[id]->crashed_; }

  /// How far ahead of the clock `id`'s egress port is booked, i.e. how long
  /// a zero-byte send from `id` would wait before starting to serialize.
  /// Always 0 under infinite bandwidth. This is the observable the adaptive
  /// Crossword controller feeds on: a growing backlog means the sender is
  /// pushing more bytes than its links drain.
  Duration EgressBacklog(NodeId id) const {
    const Time free_at =
        static_cast<size_t>(id) < egress_free_.size() ? egress_free_[id] : 0;
    return free_at > now_ ? free_at - now_ : 0;
  }

  /// Marks a process as Byzantine for bookkeeping/assertion purposes. The
  /// malicious behaviour itself lives in protocol-specific adversary
  /// subclasses of Process.
  void MarkByzantine(NodeId id) { byzantine_.insert(id); }
  bool IsByzantine(NodeId id) const { return byzantine_.count(id) > 0; }

  /// Cuts the network into groups; messages across groups are dropped (both
  /// at send and at delivery time). Nodes absent from all groups are
  /// isolated from everyone.
  void Partition(const std::vector<std::vector<NodeId>>& groups);

  /// Removes any partition.
  void Heal();

  /// Blocks a directed link independent of partitions.
  void BlockLink(NodeId from, NodeId to);

  /// Overrides the delay model. The function returns the delivery delay for
  /// an envelope, or a negative value to drop it. Pass nullptr to restore
  /// the default model. This hook is how adversarial schedulers (FLP-style)
  /// take control of message ordering.
  using DelayFn = std::function<Duration(const Envelope&)>;
  void SetDelayFn(DelayFn fn) {
    delay_fn_ = std::move(fn);
    fixed_delay_ = delay_fn_ ? -1 : FixedDelayFor(options_);
  }

  /// Observation hook invoked at every successful delivery, used to record
  /// message-flow traces for the paper's figures.
  using TraceFn = std::function<void(const Envelope&, Time deliver_time)>;
  /// Install before running: messages already in flight when the hook is
  /// set are reported with envelope id / send_time 0.
  void SetTraceFn(TraceFn fn) { trace_fn_ = std::move(fn); }

  /// Sender-side interposition hook, the substrate for reusable Byzantine
  /// behaviour (sim/byzantine.h): called once per outbound unicast target
  /// BEFORE the message enters the network. Return the original to pass it
  /// through, a substitute to equivocate/corrupt, or nullptr to withhold it
  /// (counted as one messages_dropped). Self-sends bypass the hook, and so
  /// do sends issued from inside the hook itself (so an interposer can
  /// inject extra traffic, e.g. replayed stale messages, without recursing).
  /// While a hook is installed, Multicast degrades to per-target unicasts so
  /// the hook can split the fan-out; the shared-payload fast path is
  /// untouched when no hook is set.
  using InterposeFn =
      std::function<MessagePtr(NodeId from, NodeId to, const MessagePtr&)>;
  void SetInterposeFn(InterposeFn fn) { interpose_fn_ = std::move(fn); }

  /// The attached ByzantineInterposer, if any (set by its Attach). Lets
  /// fault-schedule injection arm Byzantine windows without the checker
  /// and the interposer knowing about each other's construction order.
  void SetByzantineInterposer(ByzantineInterposer* b) { byz_interposer_ = b; }
  ByzantineInterposer* byzantine_interposer() const { return byz_interposer_; }

  /// Schedules a simulation-level (not process-owned) callback.
  void ScheduleAt(Time t, std::function<void()> fn);
  void ScheduleAfter(Duration d, std::function<void()> fn);

  /// Fluent construction of a fully-configured simulation: network shape,
  /// delay distribution, trace hooks, process topology (Setup), and
  /// scheduled fault hooks (At) in one expression:
  ///
  ///   auto sim = sim::Simulation::Builder(seed)
  ///                  .Delay(1 * kMillisecond, 5 * kMillisecond)
  ///                  .Setup([&](Simulation& s) { /* spawn processes */ })
  ///                  .At(200 * kMillisecond,
  ///                      [](Simulation& s) { s.Crash(0); })
  ///                  .Build();
  ///
  /// Build() applies everything in a fixed order — options, delay model,
  /// trace hook, Setup hooks (registration order), At hooks, Start() —
  /// so construction is as deterministic as the simulation itself.
  /// The Builder is the only way to construct a Simulation; the
  /// constructor is private.
  class Builder {
   public:
    explicit Builder(uint64_t seed) : seed_(seed) {}

    /// Uniform message delay in [min, max].
    Builder& Delay(Duration min, Duration max) {
      options_.min_delay = min;
      options_.max_delay = max;
      return *this;
    }

    /// Probability that the network drops any given message.
    Builder& DropRate(double rate) {
      options_.drop_rate = rate;
      return *this;
    }

    /// Finite per-sender egress bandwidth in bytes per millisecond
    /// (0 = infinite; see NetworkOptions::bytes_per_ms).
    Builder& Bandwidth(double bytes_per_ms) {
      options_.bytes_per_ms = bytes_per_ms;
      return *this;
    }

    /// Wholesale network options (overwrites Delay/DropRate).
    Builder& Network(const NetworkOptions& options) {
      options_ = options;
      return *this;
    }

    /// Message-flow trace hook (see SetTraceFn).
    Builder& Trace(TraceFn fn) {
      trace_fn_ = std::move(fn);
      return *this;
    }

    /// Topology hook: spawns processes / wires groups. Hooks run against
    /// the freshly built simulation in registration order.
    Builder& Setup(std::function<void(Simulation&)> fn) {
      setup_.push_back(std::move(fn));
      return *this;
    }

    /// Fault hook: `fn` runs at virtual time `t` (crash, partition, delay
    /// spike, ...). Scheduled before Start, so t=0 hooks still precede
    /// the first delivery.
    Builder& At(Time t, std::function<void(Simulation&)> fn) {
      at_.emplace_back(t, std::move(fn));
      return *this;
    }

    /// Whether Build() calls Start() (default true). Disable when the
    /// caller wants to spawn more processes before the clock moves.
    Builder& AutoStart(bool start) {
      auto_start_ = start;
      return *this;
    }

    std::unique_ptr<Simulation> Build() {
      // make_unique can't reach the private constructor; Builder can.
      auto sim = std::unique_ptr<Simulation>(new Simulation(seed_, options_));
      if (trace_fn_) sim->SetTraceFn(trace_fn_);
      for (auto& fn : setup_) fn(*sim);
      for (auto& [t, fn] : at_) {
        Simulation* raw = sim.get();
        sim->ScheduleAt(t, [raw, fn = std::move(fn)] { fn(*raw); });
      }
      if (auto_start_) sim->Start();
      return sim;
    }

   private:
    uint64_t seed_;
    NetworkOptions options_;
    TraceFn trace_fn_;
    std::vector<std::function<void(Simulation&)>> setup_;
    std::vector<std::pair<Time, std::function<void(Simulation&)>>> at_;
    bool auto_start_ = true;
  };

  /// Internal: used by Process::Send.
  void SendMessage(NodeId from, NodeId to, MessagePtr msg);

  /// Internal: used by Process::Multicast. Interns the type and sizes the
  /// payload once, then fans out one event per admitted target sharing a
  /// single payload slot.
  void MulticastMessage(NodeId from, const std::vector<NodeId>& targets,
                        const MessagePtr& msg);

  /// Internal: used by Process::SetTimer / CancelTimer.
  uint64_t SetProcessTimer(NodeId owner, Duration delay,
                           std::function<void()> fn);
  void CancelProcessTimer(uint64_t timer_id);

 private:
  /// Creates a simulation whose entire behaviour is a function of `seed`.
  /// Private: all construction goes through Simulation::Builder, which
  /// also covers delay models, trace hooks, topology setup, and scheduled
  /// faults.
  explicit Simulation(uint64_t seed, NetworkOptions options = NetworkOptions());

  static constexpr uint32_t kNilIndex = 0xFFFFFFFFu;

  enum class EventKind : uint8_t { kMessage, kTimer, kCallback };

  /// One pending event, as a tagged variant living in a slab slot. Message
  /// deliveries reference a shared MessagePayload; timers and callbacks point
  /// into the callback slab. Keeping the closure out of line keeps the slot
  /// a single cache line, and slots are recycled through the slab free
  /// list, so the steady state allocates nothing per event.
  struct EventSlot {
    NodeId from = kInvalidNode;      ///< Message sender.
    NodeId to = kInvalidNode;        ///< Message destination / timer owner.
    uint32_t payload = kNilIndex;    ///< Multicast payload slot for
                                     ///< messages, callback slot for timers
                                     ///< and callbacks; kNil for unicast.
    uint32_t next = kNilIndex;       ///< FIFO chain within a time bucket.
    uint32_t trace = kNilIndex;      ///< TraceInfo slot; messages only, and
                                     ///< only while a trace hook is set.
    EventKind kind = EventKind::kCallback;
    bool cancelled = false;          ///< Timers only; set by CancelTimer.
    uint64_t epoch = 0;              ///< Destination/owner epoch at schedule.
    MessagePtr msg;                  ///< Unicast payload (payload == kNil).
    uint64_t pad_ = 0;               ///< Rounds the slab entry (slot + its
                                     ///< generation bookkeeping) to exactly
                                     ///< one 64-byte cache line.
  };

  /// Envelope metadata a delivery only needs when a trace hook is watching:
  /// kept out of EventSlot so the common case stays one cache line per slot.
  struct TraceInfo {
    uint64_t envelope_id = 0;
    Time send_time = 0;
  };

  /// A message payload shared by every delivery event of one Send/Multicast:
  /// the fan-out copies the shared_ptr once, not once per target.
  struct MessagePayload {
    MessagePtr msg;
    uint32_t refs = 0;
  };

  /// FIFO bucket of events scheduled for the same timestamp. The queue is a
  /// min-heap over *buckets* (ordered by time, then creation order), so a
  /// burst of same-time events — a multicast fan-out, a synchronous round —
  /// costs one heap operation total instead of one per event.
  struct TimeBucket {
    Time time = 0;
    uint32_t head = kNilIndex;
    uint32_t tail = kNilIndex;
    uint64_t seq = 0;  ///< Creation order; ties broken FIFO by this.
  };
  struct BucketRef {
    Time time;
    uint64_t seq;
    uint32_t bucket;
  };
  struct BucketAfter {
    bool operator()(const BucketRef& a, const BucketRef& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Direct-mapped cache of recently-used (time -> live bucket) entries so
  /// clustered schedules append in O(1) without touching the heap. An entry
  /// always points at the *newest* bucket for its time, which preserves
  /// global FIFO order among same-time events.
  static constexpr size_t kTimeCacheSize = 64;
  static constexpr Time kNoCachedTime = INT64_MIN;
  struct TimeCacheEntry {
    Time time = kNoCachedTime;
    uint32_t bucket = 0;
  };
  static size_t TimeCacheIndex(Time t) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull) >> 58);
  }

  void Register(std::unique_ptr<Process> p);
  bool LinkAllowed(NodeId from, NodeId to) const;
  Duration SerializationDelay(NodeId from, int bytes);
  Duration DefaultDelay(NodeId from, NodeId to);
  Duration DelayFor(NodeId from, NodeId to, const MessagePtr& msg,
                    uint64_t envelope_id);
  void CountSentBatch(TypeId type, int bytes, uint64_t n);
  uint32_t AllocateTrace(uint64_t envelope_id);
  void QueueMessageEvent(NodeId from, NodeId to, uint32_t payload,
                         uint64_t envelope_id, Duration delay);
  void ScheduleSlot(Time t, uint32_t index);
  void ReleasePayload(uint32_t payload);
  void Dispatch(uint32_t index);

  Rng rng_;
  NetworkOptions options_;
  /// min_delay when every send's delay is that constant (no delay hook, no
  /// loss, min == max) so the hot path skips the per-send delay logic;
  /// -1 when delays must be computed per send.
  Duration fixed_delay_ = -1;

  static Duration FixedDelayFor(const NetworkOptions& o) {
    // A finite-bandwidth network's delay depends on payload size and the
    // sender's egress backlog, so the constant-delay fast path must stay off.
    if (o.HasBandwidth()) return -1;
    return (o.drop_rate <= 0 && o.max_delay <= o.min_delay) ? o.min_delay : -1;
  }
  Time now_ = 0;
  uint64_t next_envelope_id_ = 0;
  uint64_t next_bucket_seq_ = 0;

  Slab<EventSlot> events_;
  Slab<TraceInfo> traces_;
  Slab<MessagePayload> payloads_;
  Slab<std::function<void()>> callbacks_;  ///< Timer / callback bodies.
  Slab<TimeBucket> buckets_;
  std::priority_queue<BucketRef, std::vector<BucketRef>, BucketAfter>
      bucket_heap_;
  std::array<TimeCacheEntry, kTimeCacheSize> time_cache_;

  StringInterner type_names_;
  std::vector<uint64_t*> type_counters_;  ///< TypeId -> &sent_by_type[name].
  uint64_t counters_reset_count_ = 0;

  /// Direct-mapped cache in front of the interner: TypeName() returns the
  /// same literal pointer on every call, so a send usually resolves its
  /// TypeId with one pointer compare instead of a hash lookup.
  struct TypeCacheEntry {
    const void* ptr = nullptr;
    TypeId id = 0;
  };
  std::array<TypeCacheEntry, 8> type_cache_;
  TypeId InternType(const char* name) {
    TypeCacheEntry& e =
        type_cache_[(reinterpret_cast<uintptr_t>(name) >> 4) & 7];
    if (e.ptr == name) return e.id;
    const TypeId id = type_names_.Intern(name);
    e = TypeCacheEntry{name, id};
    return id;
  }

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<uint64_t> epochs_;  ///< Flat mirror of Process::epoch_, so the
                                  ///< send path avoids a pointer chase.
  std::vector<Time> egress_free_;  ///< Per-sender: when its egress port next
                                   ///< idles. Only consulted under finite
                                   ///< bandwidth; stays all-zero otherwise.
  size_t started_ = 0;
  std::set<NodeId> byzantine_;
  std::vector<int> partition_group_;  ///< -1 = isolated; empty = no partition.
  std::vector<std::pair<NodeId, NodeId>> blocked_links_;  ///< Sorted, unique.
  bool topology_restricted_ = false;  ///< Any partition or blocked link live.
  NetStats stats_;
  DelayFn delay_fn_;
  TraceFn trace_fn_;
  InterposeFn interpose_fn_;
  bool in_interpose_ = false;  ///< Reentrancy guard: hook-injected sends
                               ///< are not themselves interposed.
  ByzantineInterposer* byz_interposer_ = nullptr;
};

}  // namespace consensus40::sim

#endif  // CONSENSUS40_SIM_SIMULATION_H_
