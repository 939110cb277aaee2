#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace consensus40::sim {

Time Process::Now() const { return sim_->now(); }

void Process::Send(NodeId to, MessagePtr msg) {
  sim_->SendMessage(id_, to, std::move(msg));
}

void Process::Multicast(const std::vector<NodeId>& targets,
                        const MessagePtr& msg) {
  sim_->MulticastMessage(id_, targets, msg);
}

uint64_t Process::SetTimer(Duration delay, std::function<void()> fn) {
  return sim_->SetProcessTimer(id_, delay, std::move(fn));
}

void Process::CancelTimer(uint64_t timer_id) {
  sim_->CancelProcessTimer(timer_id);
}

Simulation::Simulation(uint64_t seed, NetworkOptions options)
    : rng_(seed), options_(options), fixed_delay_(FixedDelayFor(options)) {}

Simulation::~Simulation() = default;

void Simulation::Register(std::unique_ptr<Process> p) {
  p->sim_ = this;
  p->id_ = static_cast<NodeId>(processes_.size());
  p->rng_ = std::make_unique<Rng>(rng_.Fork());
  processes_.push_back(std::move(p));
  epochs_.push_back(0);
  egress_free_.push_back(0);
  // Keep the partition map covering every process: a node spawned while a
  // partition is in effect starts isolated rather than reading past the end.
  if (!partition_group_.empty()) partition_group_.push_back(-1);
}

void Simulation::Start() {
  // OnStart may spawn further processes; iterate by index.
  for (; started_ < processes_.size(); ++started_) {
    if (!processes_[started_]->crashed_) processes_[started_]->OnStart();
  }
}

bool Simulation::Step() {
  if (bucket_heap_.empty()) return false;
  const BucketRef top = bucket_heap_.top();
  TimeBucket& bucket = buckets_[top.bucket];
  const uint32_t index = bucket.head;
  bucket.head = events_[index].next;
  assert(top.time >= now_);
  now_ = top.time;
  if (bucket.head == kNilIndex) {
    bucket_heap_.pop();
    TimeCacheEntry& cached = time_cache_[TimeCacheIndex(top.time)];
    if (cached.time == top.time && cached.bucket == top.bucket) {
      cached.time = kNoCachedTime;
    }
    buckets_.Free(top.bucket);
  }
  Dispatch(index);
  return true;
}

void Simulation::Dispatch(uint32_t index) {
  // Copy everything out of the slot and free it before running any handler:
  // handlers re-enter the scheduler and may reuse (or grow) the slab.
  EventSlot& slot = events_[index];
  const EventKind kind = slot.kind;

  if (kind == EventKind::kMessage) {
    const NodeId from = slot.from;
    const NodeId to = slot.to;
    const uint32_t payload = slot.payload;
    const uint32_t trace = slot.trace;
    const uint64_t epoch = slot.epoch;
    TraceInfo trace_info;
    if (trace != kNilIndex) {
      trace_info = traces_[trace];
      traces_.Free(trace);
    }
    // Unicast carries its payload inline (moved out here, so Free leaves no
    // owning fields behind); multicast deliveries share a payload slot and
    // the inline field stays empty.
    MessagePtr unicast_msg;
    if (payload == kNilIndex) unicast_msg = std::move(slot.msg);
    events_.Free(index);

    Process* dst = processes_[to].get();
    if (dst->crashed_ || dst->epoch_ != epoch || !LinkAllowed(from, to)) {
      stats_.messages_dropped++;
      if (payload != kNilIndex) ReleasePayload(payload);
      return;
    }
    stats_.messages_delivered++;
    const Message* msg = payload == kNilIndex ? unicast_msg.get()
                                              : payloads_[payload].msg.get();
    if (trace_fn_) {
      Envelope env{from, to,
                   payload == kNilIndex ? unicast_msg : payloads_[payload].msg,
                   trace_info.send_time, trace_info.envelope_id};
      trace_fn_(env, now_);
    }
    dst->OnMessage(from, *msg);
    if (payload != kNilIndex) ReleasePayload(payload);
    return;
  }

  const bool cancelled = slot.cancelled;
  const NodeId owner = slot.to;
  const uint64_t epoch = slot.epoch;
  const uint32_t cb = slot.payload;
  events_.Free(index);
  std::function<void()> fn = std::move(callbacks_[cb]);
  callbacks_[cb] = nullptr;
  callbacks_.Free(cb);

  if (kind == EventKind::kTimer) {
    if (cancelled) return;
    Process* p = processes_[owner].get();
    if (p->crashed_ || p->epoch_ != epoch) return;
  }
  fn();
}

void Simulation::ReleasePayload(uint32_t payload) {
  MessagePayload& entry = payloads_[payload];
  if (--entry.refs == 0) {
    entry.msg.reset();
    payloads_.Free(payload);
  }
}

void Simulation::ScheduleSlot(Time t, uint32_t index) {
  assert(t >= now_);
  events_[index].next = kNilIndex;
  TimeCacheEntry& cached = time_cache_[TimeCacheIndex(t)];
  if (cached.time == t) {
    TimeBucket& bucket = buckets_[cached.bucket];
    events_[bucket.tail].next = index;
    bucket.tail = index;
    return;
  }
  const uint32_t b = buckets_.Allocate();
  TimeBucket& bucket = buckets_[b];
  bucket.time = t;
  bucket.head = bucket.tail = index;
  bucket.seq = next_bucket_seq_++;
  bucket_heap_.push(BucketRef{t, bucket.seq, b});
  cached.time = t;
  cached.bucket = b;
}

void Simulation::RunFor(Duration d) {
  const Time end = now_ + d;
  // Same semantics as repeated Step(), but the inner loop drains a whole
  // bucket without re-consulting the heap: one top()/pop() per *timestamp*
  // rather than per event.
  while (!bucket_heap_.empty()) {
    const BucketRef top = bucket_heap_.top();
    if (top.time > end) break;
    now_ = top.time;
    for (;;) {
      // Re-index the bucket each iteration: handlers may append to its tail
      // and may grow the slab under us.
      TimeBucket& bucket = buckets_[top.bucket];
      const uint32_t index = bucket.head;
      bucket.head = events_[index].next;
      if (bucket.head == kNilIndex) {
        bucket_heap_.pop();
        TimeCacheEntry& cached = time_cache_[TimeCacheIndex(top.time)];
        if (cached.time == top.time && cached.bucket == top.bucket) {
          cached.time = kNoCachedTime;
        }
        buckets_.Free(top.bucket);
        Dispatch(index);
        break;
      }
      Dispatch(index);
    }
  }
  now_ = end;
}

bool Simulation::RunUntil(const std::function<bool()>& pred, Time deadline) {
  if (pred()) return true;
  while (!bucket_heap_.empty() && bucket_heap_.top().time <= deadline) {
    Step();
    if (pred()) return true;
  }
  // Mirror RunFor: a timed-out wait still consumes the waited-for interval.
  if (now_ < deadline) now_ = deadline;
  return false;
}

void Simulation::Crash(NodeId id) {
  Process* p = processes_[id].get();
  if (p->crashed_) return;
  p->crashed_ = true;
  p->epoch_ = ++epochs_[id];
}

void Simulation::Restart(NodeId id) {
  Process* p = processes_[id].get();
  if (!p->crashed_) return;
  p->crashed_ = false;
  p->epoch_ = ++epochs_[id];
  p->OnRestart();
}

void Simulation::Partition(const std::vector<std::vector<NodeId>>& groups) {
  topology_restricted_ = true;
  partition_group_.assign(processes_.size(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (NodeId id : groups[g]) partition_group_[id] = static_cast<int>(g);
  }
}

void Simulation::Heal() {
  partition_group_.clear();
  topology_restricted_ = !blocked_links_.empty();
}

void Simulation::BlockLink(NodeId from, NodeId to) {
  const auto link = std::make_pair(from, to);
  auto it = std::lower_bound(blocked_links_.begin(), blocked_links_.end(), link);
  if (it == blocked_links_.end() || *it != link) blocked_links_.insert(it, link);
  topology_restricted_ = true;
}

bool Simulation::LinkAllowed(NodeId from, NodeId to) const {
  if (!topology_restricted_) return true;
  if (!blocked_links_.empty() &&
      std::binary_search(blocked_links_.begin(), blocked_links_.end(),
                         std::make_pair(from, to))) {
    return false;
  }
  if (!partition_group_.empty()) {
    const int gf = partition_group_[from];
    const int gt = partition_group_[to];
    if (gf < 0 || gt < 0 || gf != gt) return from == to;
  }
  return true;
}

Duration Simulation::SerializationDelay(NodeId from, int bytes) {
  // The sender's egress port serializes one message at a time: this send
  // starts when the port next idles and holds it for bytes/bw. The charge
  // sticks even if the network then loses the message — the wire time was
  // spent either way.
  const Time start = egress_free_[from] > now_ ? egress_free_[from] : now_;
  const auto ser = static_cast<Duration>(std::ceil(
      static_cast<double>(bytes) * kMillisecond / options_.bytes_per_ms));
  egress_free_[from] = start + ser;
  return egress_free_[from] - now_;
}

Duration Simulation::DefaultDelay(NodeId from, NodeId to) {
  if (from == to) return 0;  // Self-messages are immediate.
  if (options_.drop_rate > 0 && rng_.Bernoulli(options_.drop_rate)) return -1;
  if (options_.max_delay <= options_.min_delay) return options_.min_delay;
  return options_.min_delay +
         static_cast<Duration>(
             rng_.NextBounded(options_.max_delay - options_.min_delay + 1));
}

Duration Simulation::DelayFor(NodeId from, NodeId to, const MessagePtr& msg,
                              uint64_t envelope_id) {
  if (delay_fn_) {
    const Envelope env{from, to, msg, now_, envelope_id};
    return delay_fn_(env);
  }
  return DefaultDelay(from, to);
}

void Simulation::CountSentBatch(TypeId type, int bytes, uint64_t n) {
  stats_.messages_sent += n;
  stats_.bytes_sent += n * static_cast<uint64_t>(bytes);
  if (counters_reset_count_ != stats_.reset_count()) {
    type_counters_.assign(type_counters_.size(), nullptr);
    counters_reset_count_ = stats_.reset_count();
  }
  if (static_cast<size_t>(type) >= type_counters_.size()) {
    type_counters_.resize(type_names_.size(), nullptr);
  }
  uint64_t*& counter = type_counters_[type];
  // Map nodes are reference-stable, so resolving the per-type cursor once
  // per type (per Reset generation) is safe.
  if (counter == nullptr) {
    counter = &stats_.sent_by_type[type_names_.NameOf(type)];
  }
  *counter += n;
}

uint32_t Simulation::AllocateTrace(uint64_t envelope_id) {
  if (!trace_fn_) return kNilIndex;
  const uint32_t t = traces_.Allocate();
  traces_[t] = TraceInfo{envelope_id, now_};
  return t;
}

void Simulation::QueueMessageEvent(NodeId from, NodeId to, uint32_t payload,
                                   uint64_t envelope_id, Duration delay) {
  const uint32_t index = events_.Allocate();
  EventSlot& slot = events_[index];
  slot.kind = EventKind::kMessage;
  slot.from = from;
  slot.to = to;
  slot.payload = payload;
  slot.trace = AllocateTrace(envelope_id);
  slot.epoch = epochs_[to];  // Drop on crash/restart in flight.
  ScheduleSlot(now_ + delay, index);
}

void Simulation::SendMessage(NodeId from, NodeId to, MessagePtr msg) {
  assert(to >= 0 && to < num_processes());
  if (interpose_fn_ && !in_interpose_ && from != to) {
    in_interpose_ = true;
    MessagePtr out = interpose_fn_(from, to, msg);
    in_interpose_ = false;
    if (out == nullptr) {
      stats_.messages_dropped++;  // Withheld at the (Byzantine) sender.
      return;
    }
    msg = std::move(out);
  }
  const uint64_t envelope_id = next_envelope_id_++;
  if (!LinkAllowed(from, to)) {
    stats_.messages_dropped++;  // Rejected by the topology: never sent.
    return;
  }
  const TypeId type = InternType(msg->TypeName());
  const int bytes = msg->ByteSize();
  // Serialization is charged before the propagation draw so the egress
  // queue advances even for messages the network then loses.
  const Duration ser =
      options_.HasBandwidth() && to != from ? SerializationDelay(from, bytes)
                                            : 0;
  const Duration fd = fixed_delay_;
  const Duration delay =
      fd >= 0 ? (to == from ? 0 : fd) : DelayFor(from, to, msg, envelope_id);
  if (delay < 0) {
    CountSentBatch(type, bytes, 1);
    stats_.messages_dropped++;  // Admitted, then lost in the network.
    return;
  }
  CountSentBatch(type, bytes, 1);
  const uint32_t index = events_.Allocate();
  EventSlot& slot = events_[index];
  slot.kind = EventKind::kMessage;
  slot.from = from;
  slot.to = to;
  slot.payload = kNilIndex;  // Unicast: payload travels inline in the slot.
  slot.trace = AllocateTrace(envelope_id);
  slot.epoch = epochs_[to];
  slot.msg = std::move(msg);
  ScheduleSlot(now_ + ser + delay, index);
}

void Simulation::MulticastMessage(NodeId from,
                                  const std::vector<NodeId>& targets,
                                  const MessagePtr& msg) {
  if (targets.empty()) return;
  if (interpose_fn_ && !in_interpose_) {
    // The hook may substitute per target, so the fan-out cannot share a
    // payload: degrade to unicasts (each of which runs the hook itself).
    for (NodeId to : targets) SendMessage(from, to, msg);
    return;
  }
  const TypeId type = InternType(msg->TypeName());
  const int bytes = msg->ByteSize();
  // With no delay hook, no loss, and a fixed delay, the per-target delay is
  // a constant and the rng is never consulted; fixed_delay_ caches that.
  const Duration fd = fixed_delay_;
  const bool has_bw = options_.HasBandwidth();
  uint32_t payload = kNilIndex;
  uint64_t admitted = 0;
  for (NodeId to : targets) {
    assert(to >= 0 && to < num_processes());
    const uint64_t envelope_id = next_envelope_id_++;
    if (!LinkAllowed(from, to)) {
      stats_.messages_dropped++;
      continue;
    }
    // Each copy of the fan-out serializes through the sender's one egress
    // port in turn — a full-payload multicast pays n serializations, which
    // is exactly the cost erasure-coded assignment shrinks.
    const Duration ser =
        has_bw && to != from ? SerializationDelay(from, bytes) : 0;
    const Duration delay =
        fd >= 0 ? (to == from ? 0 : fd) : DelayFor(from, to, msg, envelope_id);
    ++admitted;  // Sent even if the network then loses it.
    if (delay < 0) {
      stats_.messages_dropped++;
      continue;
    }
    if (payload == kNilIndex) {
      payload = payloads_.Allocate();
      payloads_[payload] = MessagePayload{msg, 0};  // One shared_ptr copy.
    }
    payloads_[payload].refs++;
    QueueMessageEvent(from, to, payload, envelope_id, ser + delay);
  }
  // One stats update for the whole fan-out: the per-type cursor is resolved
  // once, not re-hashed per target.
  if (admitted > 0) CountSentBatch(type, bytes, admitted);
}

void Simulation::ScheduleAt(Time t, std::function<void()> fn) {
  assert(t >= now_);
  const uint32_t cb = callbacks_.Allocate();
  callbacks_[cb] = std::move(fn);
  const uint32_t index = events_.Allocate();
  EventSlot& slot = events_[index];
  slot.kind = EventKind::kCallback;
  slot.payload = cb;
  ScheduleSlot(t, index);
}

void Simulation::ScheduleAfter(Duration d, std::function<void()> fn) {
  ScheduleAt(now_ + d, std::move(fn));
}

uint64_t Simulation::SetProcessTimer(NodeId owner, Duration delay,
                                     std::function<void()> fn) {
  const uint32_t cb = callbacks_.Allocate();
  callbacks_[cb] = std::move(fn);
  const uint32_t index = events_.Allocate();
  EventSlot& slot = events_[index];
  slot.kind = EventKind::kTimer;
  slot.cancelled = false;
  slot.to = owner;
  slot.payload = cb;
  slot.epoch = epochs_[owner];
  ScheduleSlot(now_ + delay, index);
  return events_.HandleFor(index);
}

void Simulation::CancelProcessTimer(uint64_t timer_id) {
  // The handle goes stale the moment the timer fires (its slot is freed and
  // the generation bumps), so cancel-after-fire is a no-op with no residue.
  EventSlot* slot = events_.Resolve(timer_id);
  if (slot != nullptr && slot->kind == EventKind::kTimer) {
    slot->cancelled = true;
  }
}

}  // namespace consensus40::sim
