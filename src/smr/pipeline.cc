#include "smr/pipeline.h"

namespace consensus40::smr {

int StateTransfer::ByteSize() const {
  int size = 0;
  auto add_table = [&size](const auto& table) {
    for (const auto& [k, v] : table) {
      size += 16 + static_cast<int>(k.size()) + static_cast<int>(v.size());
    }
  };
  add_table(data.points);
  add_table(data.ranges);
  for (const auto& [client, s] : sessions) {
    size += 24;
    for (const auto& [seq, result] : s.above) {
      size += 16 + static_cast<int>(result.size());
    }
  }
  return size;
}

int CatchupReplyMsg::ByteSize() const {
  int size = 16;
  for (const auto& [index, entry] : entries) size += 16 + entry.ByteSize();
  return size;
}

LeaderPipeline::LeaderPipeline(Options options, Hooks hooks, SyncNames names)
    : options_(options), hooks_(std::move(hooks)), names_(names) {}

void LeaderPipeline::Reply(sim::NodeId to, uint64_t seq,
                           const std::string& result) {
  hooks_.send(to, hooks_.make_reply(seq, result));
}

void LeaderPipeline::Admit(sim::NodeId from, const Command& cmd,
                           bool leading) {
  // Already executed (possibly checkpoint-truncated): answer from cache.
  if (const std::string* cached = dedup_.Lookup(cmd.client, cmd.client_seq)) {
    Reply(from, cmd.client_seq, *cached);
    return;
  }
  const Key key{cmd.client, cmd.client_seq};
  awaiting_client_[key] = from;
  if (!inflight_.try_emplace(key, kQueued).second) {
    return;  // In flight: the apply path replies.
  }
  queue_.push_back(cmd);
  if (!leading) return;
  // PBFT-style cut-or-linger: cut immediately when batching is off or the
  // batch is full; otherwise arm the linger timer on first enqueue.
  if (options_.batch_delay == 0 ||
      queue_.size() >= static_cast<size_t>(options_.batch_size)) {
    hooks_.cut();
  } else if (queue_.size() == 1) {
    linger_timer_ =
        hooks_.set_timer(options_.batch_delay, [this] { hooks_.cut(); });
  }
}

void LeaderPipeline::DisarmLinger() {
  hooks_.cancel_timer(linger_timer_);
  linger_timer_ = 0;
}

Entry LeaderPipeline::CutNext(uint64_t index, bool single) {
  const size_t take =
      single ? 1
             : std::min(queue_.size(),
                        static_cast<size_t>(std::max(1, options_.batch_size)));
  if (take == 1) {
    Command cmd = std::move(queue_.front());
    queue_.pop_front();
    inflight_[{cmd.client, cmd.client_seq}] = index;
    return Entry(std::move(cmd));
  }
  std::vector<Command> cmds(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + static_cast<long>(take)));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<long>(take));
  for (const Command& cmd : cmds) {
    inflight_[{cmd.client, cmd.client_seq}] = index;
  }
  ++batches_cut_;
  return Entry::Batch(std::move(cmds));
}

void LeaderPipeline::Track(const Entry& entry, uint64_t index) {
  for (const Command& cmd : entry.commands()) {
    inflight_[{cmd.client, cmd.client_seq}] = index;
  }
}

void LeaderPipeline::Requeue(const Entry& entry) {
  for (const Command& cmd : entry.commands()) {
    const Key key{cmd.client, cmd.client_seq};
    ForgetCut(key);
    if (dedup_.Lookup(cmd.client, cmd.client_seq) != nullptr) continue;
    if (inflight_.try_emplace(key, kQueued).second) queue_.push_back(cmd);
  }
}

void LeaderPipeline::Depose() {
  DisarmLinger();
  queue_.clear();
  inflight_.clear();
}

void LeaderPipeline::Restart() {
  queue_.clear();
  inflight_.clear();
  awaiting_client_.clear();
  linger_timer_ = 0;
}

void LeaderPipeline::ForgetCut(const Key& key) {
  auto it = inflight_.find(key);
  if (it != inflight_.end() && it->second != kQueued) inflight_.erase(it);
}

void LeaderPipeline::Applied(const Command& cmd, const std::string& result) {
  executed_.push_back(cmd);
  const Key key{cmd.client, cmd.client_seq};
  ForgetCut(key);  // The dedup session covers it from here on.
  auto it = awaiting_client_.find(key);
  if (it != awaiting_client_.end()) {
    Reply(it->second, cmd.client_seq, result);
    awaiting_client_.erase(it);
  }
}

void LeaderPipeline::ApplyEntry(const Entry& entry) {
  for (const Command& cmd : entry.commands()) {
    Applied(cmd, dedup_.Apply(&kv_, cmd));
  }
}

void LeaderPipeline::Install(const StateTransfer& state) {
  kv_.Restore(state.data);
  dedup_.Restore(state.sessions);
  ++snapshots_installed_;
}

void LeaderPipeline::RequestCatchup(sim::NodeId to, uint64_t from_index) {
  hooks_.send(to, std::make_shared<CatchupRequestMsg>(names_.catchup_request,
                                                      from_index));
}

void LeaderPipeline::ServeCatchup(sim::NodeId to, uint64_t from_index,
                                  const ReplicatedLog& log) {
  if (from_index < log.start()) {
    SendSnapshot(to, log);
    return;
  }
  auto reply = std::make_shared<CatchupReplyMsg>(names_.catchup_reply);
  constexpr size_t kMaxCatchupEntries = 128;
  for (uint64_t i = from_index; i < log.commit_frontier() &&
                                reply->entries.size() < kMaxCatchupEntries;
       ++i) {
    const Entry* entry = log.Get(i);
    if (entry == nullptr) break;  // Gap within our own retained prefix.
    reply->entries.emplace_back(i, *entry);
  }
  if (!reply->entries.empty()) hooks_.send(to, reply);
}

void LeaderPipeline::SendSnapshot(sim::NodeId to, const ReplicatedLog& log) {
  auto snap = std::make_shared<SnapshotMsg>(names_.snapshot);
  snap->end = log.applied_frontier();
  snap->state = Capture();
  hooks_.send(to, snap);
}

}  // namespace consensus40::smr
