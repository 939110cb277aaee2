#include "raft/raft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::raft {

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct RaftReplica::RequestVoteMsg : sim::Message {
  const char* TypeName() const override { return "request-vote"; }
  int ByteSize() const override { return 32; }
  int64_t term = 0;
  sim::NodeId candidate = sim::kInvalidNode;
  uint64_t last_log_index = 0;  ///< Number of entries (0 = empty log).
  int64_t last_log_term = 0;
};

struct RaftReplica::VoteReplyMsg : sim::Message {
  const char* TypeName() const override { return "vote-reply"; }
  int ByteSize() const override { return 24; }
  int64_t term = 0;
  bool granted = false;
};

struct RaftReplica::AppendEntriesMsg : sim::Message {
  const char* TypeName() const override { return "append-entries"; }
  int ByteSize() const override {
    int size = 48;
    for (const LogEntry& e : entries) size += 8 + e.value.ByteSize();
    return size;
  }
  int64_t term = 0;
  sim::NodeId leader = sim::kInvalidNode;
  uint64_t prev_log_index = 0;  ///< Entries before this index must match.
  int64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  uint64_t leader_commit = 0;
  uint64_t round = 0;  ///< Leader broadcast round, echoed in the reply.
};

struct RaftReplica::AppendReplyMsg : sim::Message {
  const char* TypeName() const override { return "append-reply"; }
  int ByteSize() const override { return 40; }
  int64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;  ///< On success: entries now known replicated.
  uint64_t round = 0;  ///< Echo of the AppendEntries round (0: snapshot
                       ///< replies — they never confirm a read).
};

struct RaftReplica::InstallSnapshotMsg : sim::Message {
  const char* TypeName() const override { return "install-snapshot"; }
  int ByteSize() const override {
    return 64 + static_cast<int>(config.size()) * 8 + state.ByteSize();
  }
  int64_t term = 0;
  sim::NodeId leader = sim::kInvalidNode;
  uint64_t last_index = 0;  ///< Global index the snapshot covers through.
  int64_t last_term = 0;
  smr::StateTransfer state;
  std::vector<sim::NodeId> config;  ///< Configuration at last_index.
};

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

RaftReplica::RaftReplica(RaftOptions options)
    : options_(options),
      pipeline_(
          {options.batch_size, options.batch_delay},
          PipelineHooks<ReplyMsg>([this] { FlushBatch(); })) {
  if (options_.initial_config.empty()) {
    assert(options_.n > 0);
    for (int i = 0; i < options_.n; ++i) {
      options_.initial_config.push_back(i);
    }
  }
  config_ = options_.initial_config;
  snapshot_config_ = options_.initial_config;
}

std::vector<sim::NodeId> RaftReplica::Peers() const {
  std::vector<sim::NodeId> peers;
  for (sim::NodeId member : config_) {
    if (member != id()) peers.push_back(member);
  }
  return peers;
}

bool RaftReplica::IsVoter(sim::NodeId node) const {
  for (sim::NodeId member : config_) {
    if (member == node) return true;
  }
  return false;
}

void RaftReplica::RecomputeConfig() {
  config_ = snapshot_config_;
  for (const LogEntry& entry : log_) {
    if (const auto* members = entry.value.config()) config_ = *members;
  }
}

Status RaftReplica::ChangeConfig(std::vector<sim::NodeId> new_config) {
  if (role_ != Role::kLeader) {
    return Status::FailedPrecondition("not the leader");
  }
  if (new_config.empty()) {
    return Status::InvalidArgument("empty configuration");
  }
  // One change at a time: any uncommitted config entry blocks the next.
  for (uint64_t i = commit_index_; i < LogEnd(); ++i) {
    if (EntryAt(i + 1).value.config() != nullptr) {
      return Status::FailedPrecondition("a config change is in flight");
    }
  }
  log_.push_back(LogEntry{current_term_, smr::Entry::Config(new_config)});
  config_ = std::move(new_config);  // Effective when appended.
  BroadcastAppendEntries();
  return Status::Ok();
}

int64_t RaftReplica::LastLogTerm() const {
  return log_.empty() ? snapshot_term_ : log_.back().term;
}

int64_t RaftReplica::TermOfEntry(uint64_t index) const {
  if (index == 0) return 0;
  if (index == log_start_) return snapshot_term_;
  return EntryAt(index).term;
}

void RaftReplica::OnStart() { ResetElectionTimer(); }

void RaftReplica::OnRestart() {
  // current_term_, voted_for_, log_, snapshot state are persistent.
  role_ = Role::kFollower;
  leader_hint_ = sim::kInvalidNode;
  votes_.clear();
  next_index_.clear();
  match_index_.clear();
  pipeline_.Restart();  // Volatile: clients re-transmit unlogged commands.
  pending_reads_.clear();  // Volatile: clients re-issue reads.
  waiting_reads_.clear();
  ae_round_ = 0;  // Safe: regaining leadership requires a higher term.
  ResetElectionTimer();
}

void RaftReplica::ResetElectionTimer() {
  CancelTimer(election_timer_);
  sim::Duration t = options_.election_timeout +
                    static_cast<sim::Duration>(
                        rng().NextBounded(options_.election_timeout));
  election_timer_ = SetTimer(t, [this] { StartElection(); });
}

void RaftReplica::BecomeFollower(int64_t term) {
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = sim::kInvalidNode;
  }
  if (role_ == Role::kLeader) {
    CancelTimer(heartbeat_timer_);
    pipeline_.Depose();  // Unlogged commands: clients retry elsewhere.
    FailPendingReads();  // Leadership lost: reads must go to the new leader.
  }
  role_ = Role::kFollower;
  votes_.clear();
  ResetElectionTimer();
}

void RaftReplica::StartElection() {
  if (role_ == Role::kLeader) return;
  if (!IsVoter(id()) || (options_.join_passive && !heard_from_leader_)) {
    // Not (yet) a voting member: stay quiet rather than disrupt the
    // incumbents with doomed candidacies.
    ResetElectionTimer();
    return;
  }
  role_ = Role::kCandidate;
  ++current_term_;
  ++elections_started_;
  voted_for_ = id();
  votes_ = {id()};
  leader_hint_ = sim::kInvalidNode;
  auto rv = std::make_shared<RequestVoteMsg>();
  rv->term = current_term_;
  rv->candidate = id();
  rv->last_log_index = LogEnd();
  rv->last_log_term = LastLogTerm();
  Multicast(Peers(), rv);
  ResetElectionTimer();  // Retry with a new term if this election splits.
  if (static_cast<int>(votes_.size()) >= Majority()) BecomeLeader();
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  leader_hint_ = id();
  CancelTimer(election_timer_);
  for (sim::NodeId peer : Peers()) {
    next_index_[peer] = LogEnd();
    match_index_[peer] = 0;
  }
  // A retried command already in the unapplied suffix must not be
  // appended again: track it as in flight.
  for (uint64_t i = last_applied_; i < LogEnd(); ++i) {
    pipeline_.Track(EntryAt(i + 1).value, i + 1);
  }
  // AdvanceCommitIndex may only count replicas for entries of the
  // current term, so a leader whose log ends in an uncommitted
  // prior-term tail can never commit it without new traffic — and a
  // retried client command already present in that tail appends
  // nothing. Commit a no-op in our own term to pull the tail through
  // (Raft paper §8). Every uncommitted entry here is prior-term: the
  // candidate bumped its term before winning.
  if (LogEnd() > commit_index_) {
    log_.push_back(LogEntry{current_term_, smr::Entry::Noop()});
  }
  BroadcastAppendEntries();  // Immediate heartbeat asserts leadership.
}

void RaftReplica::FlushBatch() {
  pipeline_.DisarmLinger();
  if (role_ != Role::kLeader || !pipeline_.HasQueued()) return;
  while (pipeline_.HasQueued()) {
    const uint64_t index = LogEnd() + 1;
    log_.push_back(LogEntry{current_term_, pipeline_.CutNext(index)});
  }
  BroadcastAppendEntries();
}

void RaftReplica::SendAppendEntries(sim::NodeId peer) {
  uint64_t next = next_index_[peer];
  if (next < log_start_) {
    // The follower needs entries we have compacted away: ship the
    // snapshot instead (Raft's InstallSnapshot RPC).
    auto snap = std::make_shared<InstallSnapshotMsg>();
    snap->term = current_term_;
    snap->leader = id();
    snap->last_index = log_start_;
    snap->last_term = snapshot_term_;
    snap->state = pipeline_.Capture();
    snap->config = snapshot_config_;
    Send(peer, snap);
    return;
  }
  auto ae = std::make_shared<AppendEntriesMsg>();
  ae->term = current_term_;
  ae->leader = id();
  ae->prev_log_index = next;
  ae->prev_log_term = TermOfEntry(next);
  for (uint64_t i = next; i < LogEnd(); ++i) {
    ae->entries.push_back(EntryAt(i + 1));
  }
  ae->leader_commit = commit_index_;
  ae->round = ae_round_;
  Send(peer, ae);
}

void RaftReplica::BroadcastAppendEntries() {
  if (role_ != Role::kLeader) return;
  ++ae_round_;  // Replies echoing this round confirm leadership *now*.
  for (sim::NodeId peer : Peers()) SendAppendEntries(peer);
  CancelTimer(heartbeat_timer_);
  heartbeat_timer_ = SetTimer(options_.heartbeat_interval,
                              [this] { BroadcastAppendEntries(); });
}

void RaftReplica::AdvanceCommitIndex() {
  // Find the highest N > commit_index_ replicated on a majority with
  // TermOfEntry(N) == current_term_ (the Raft commit rule).
  for (uint64_t n = LogEnd(); n > commit_index_ && n > log_start_; --n) {
    if (TermOfEntry(n) != current_term_) break;
    // Count only the votes of the CURRENT configuration.
    int count = IsVoter(id()) ? 1 : 0;
    for (sim::NodeId member : config_) {
      if (member == id()) continue;
      auto it = match_index_.find(member);
      count += (it != match_index_.end() && it->second >= n);
    }
    if (count >= Majority()) {
      commit_index_ = n;
      break;
    }
  }
  ApplyCommitted();
  MaybeServeReads();
  // Committing the term-start entry opens the read barrier: reads that
  // arrived too early can now be registered.
  if (role_ == Role::kLeader && ReadBarrierPassed() && !waiting_reads_.empty()) {
    std::vector<WaitingRead> waiting;
    waiting.swap(waiting_reads_);
    for (const WaitingRead& w : waiting) {
      RegisterRead(w.client_node, w.client_seq, w.key);
    }
  }
}

void RaftReplica::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    const LogEntry& entry = EntryAt(last_applied_ + 1);
    ++last_applied_;
    // A committed configuration that no longer contains us (leader
    // removed itself) means we must step down.
    if (entry.value.config() != nullptr && role_ == Role::kLeader &&
        !IsVoter(id())) {
      BecomeFollower(current_term_);
    }
    // Each client command (a batch carries several) is deduped, recorded,
    // and answered individually; other entries apply nothing.
    pipeline_.ApplyEntry(last_applied_ - 1, entry.value);
  }
  MaybeTakeSnapshot();
}

std::vector<smr::Command> RaftReplica::CommittedCommands() const {
  std::vector<smr::Command> out;
  for (uint64_t i = log_start_ + 1; i <= last_applied_; ++i) {
    const std::span<const smr::Command> cmds = EntryAt(i).value.commands();
    out.insert(out.end(), cmds.begin(), cmds.end());
  }
  return out;
}

void RaftReplica::MaybeTakeSnapshot() {
  if (options_.snapshot_threshold == 0) return;
  if (last_applied_ - log_start_ < options_.snapshot_threshold) return;
  // The applied state machine IS the snapshot: record the boundary term
  // and the configuration in effect at the boundary, drop the prefix.
  snapshot_term_ = TermOfEntry(last_applied_);
  for (uint64_t i = log_start_; i < last_applied_; ++i) {
    if (const auto* members = EntryAt(i + 1).value.config()) {
      snapshot_config_ = *members;
    }
  }
  log_.erase(log_.begin(),
             log_.begin() + static_cast<long>(last_applied_ - log_start_));
  log_start_ = last_applied_;
  ++snapshots_taken_;
}

// ---------------------------------------------------------------------------
// Read-index reads (Raft dissertation §6.4)
// ---------------------------------------------------------------------------

bool RaftReplica::ReadBarrierPassed() const {
  // A fresh leader's commit_index may trail the cluster frontier until it
  // commits an entry of its own term. BecomeLeader appends a no-op
  // whenever an uncommitted tail exists, so either the whole log was
  // committed at election (first disjunct) or the barrier entry commits
  // and satisfies the second.
  return commit_index_ == LogEnd() ||
         TermOfEntry(commit_index_) == current_term_;
}

void RaftReplica::HandleRead(sim::NodeId from, int32_t /*client*/,
                             uint64_t seq, const std::string& key) {
  if (!ReadBarrierPassed()) {
    waiting_reads_.push_back(WaitingRead{from, seq, key});
    return;
  }
  RegisterRead(from, seq, key);
}

void RaftReplica::RegisterRead(sim::NodeId from, uint64_t seq,
                               const std::string& key) {
  PendingRead read;
  read.read_index = commit_index_;
  // Only acks to AppendEntries sent AFTER this point prove we are still
  // the leader; a stale in-flight ack must not count.
  read.round = ae_round_ + 1;
  read.client_node = from;
  read.client_seq = seq;
  read.key = key;
  read.confirmed = 1 >= Majority();  // Singleton group: self-ack suffices.
  pending_reads_.push_back(std::move(read));
  if (pending_reads_.back().confirmed) {
    MaybeServeReads();
  } else {
    BroadcastAppendEntries();  // Bumps ae_round_ to read.round and fans out.
  }
}

void RaftReplica::MaybeServeReads() {
  size_t i = 0;
  while (i < pending_reads_.size()) {
    const PendingRead& read = pending_reads_[i];
    if (!read.confirmed || read.read_index > last_applied_) {
      ++i;
      continue;
    }
    // Read-index reads bypass the log, so the shard layer's routing
    // fence must be consulted explicitly: a migrated-away key bounces
    // with "MOVED <epoch>" exactly as the logged GET would.
    std::string result;
    if (std::optional<uint64_t> moved = pipeline_.kv().MovedEpoch(read.key)) {
      result = "MOVED " + std::to_string(*moved);
    } else {
      std::optional<std::string> value = pipeline_.kv().Get(read.key);
      result = value.has_value() ? *value : "NIL";
    }
    Send(read.client_node,
         std::make_shared<ReplyMsg>(read.client_seq, result, id()));
    ++reads_served_;
    pending_reads_.erase(pending_reads_.begin() + static_cast<long>(i));
  }
}

void RaftReplica::FailPendingReads() {
  for (const PendingRead& read : pending_reads_) {
    Send(read.client_node, std::make_shared<ReplyMsg>(
                               read.client_seq, smr::kRedirect, leader_hint_));
  }
  for (const WaitingRead& read : waiting_reads_) {
    Send(read.client_node, std::make_shared<ReplyMsg>(
                               read.client_seq, smr::kRedirect, leader_hint_));
  }
  pending_reads_.clear();
  waiting_reads_.clear();
}

void RaftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (role_ != Role::kLeader) {
      Send(from, std::make_shared<ReplyMsg>(m->cmd.client_seq,
                                            smr::kRedirect, leader_hint_));
      return;
    }
    if (m->cmd.kind == smr::Command::Kind::kRead) {
      // Read-index path: never logged, never touches the dedup sessions
      // (those are replicated state, and a non-logged read mutating them
      // would diverge the replicas). `op` is "GET <key>" by the
      // MakeRequest contract.
      HandleRead(from, m->cmd.client, m->cmd.client_seq, m->cmd.op.substr(4));
      return;
    }
    pipeline_.Admit(from, m->cmd, /*leading=*/true);
    return;
  }

  if (const auto* m = dynamic_cast<const RequestVoteMsg*>(&msg)) {
    if (m->term > current_term_) BecomeFollower(m->term);
    bool granted = false;
    if (m->term == current_term_ &&
        (voted_for_ == sim::kInvalidNode || voted_for_ == m->candidate)) {
      // Election restriction: candidate's log must be at least as
      // up-to-date as ours.
      bool up_to_date =
          m->last_log_term > LastLogTerm() ||
          (m->last_log_term == LastLogTerm() &&
           m->last_log_index >= LogEnd());
      if (up_to_date) {
        granted = true;
        voted_for_ = m->candidate;
        ResetElectionTimer();
      }
    }
    auto reply = std::make_shared<VoteReplyMsg>();
    reply->term = current_term_;
    reply->granted = granted;
    Send(from, reply);
    return;
  }

  if (const auto* m = dynamic_cast<const VoteReplyMsg*>(&msg)) {
    if (m->term > current_term_) {
      BecomeFollower(m->term);
      return;
    }
    if (role_ != Role::kCandidate || m->term != current_term_ || !m->granted) {
      return;
    }
    votes_.insert(from);
    if (static_cast<int>(votes_.size()) >= Majority()) BecomeLeader();
    return;
  }

  if (const auto* m = dynamic_cast<const AppendEntriesMsg*>(&msg)) {
    auto reply = std::make_shared<AppendReplyMsg>();
    reply->round = m->round;
    if (m->term < current_term_) {
      reply->term = current_term_;
      reply->success = false;
      Send(from, reply);
      return;
    }
    BecomeFollower(m->term);
    leader_hint_ = m->leader;
    heard_from_leader_ = true;
    reply->term = current_term_;

    uint64_t prev = m->prev_log_index;
    size_t skip = 0;
    if (prev < log_start_) {
      // Our snapshot already covers (prev, log_start_]; those entries are
      // committed, hence identical — skip them.
      skip = std::min<size_t>(log_start_ - prev, m->entries.size());
      prev += skip;
    }
    if (prev > LogEnd() ||
        (prev > log_start_ && TermOfEntry(prev) != m->prev_log_term &&
         skip == 0)) {
      // Log mismatch: leader will back up nextIndex.
      reply->success = false;
      reply->match_index = 0;
      Send(from, reply);
      return;
    }
    // Append, truncating any conflicting suffix. config_ follows each
    // appended CONFIG entry; a truncated suffix may have held the config
    // in effect, so truncation re-derives it instead.
    uint64_t index = prev;  // Global index of the entry about to land.
    bool truncated = false;
    for (size_t k = skip; k < m->entries.size(); ++k, ++index) {
      const LogEntry& entry = m->entries[k];
      if (index < LogEnd()) {
        if (TermOfEntry(index + 1) == entry.term) continue;  // Already held.
        if (index < commit_index_) {
          violations_.push_back("truncating committed entry " +
                                std::to_string(index));
        }
        log_.resize(index - log_start_);
        truncated = true;
      }
      log_.push_back(entry);
      if (const auto* members = entry.value.config()) config_ = *members;
    }
    if (truncated) RecomputeConfig();
    if (m->leader_commit > commit_index_) {
      commit_index_ = std::min<uint64_t>(m->leader_commit, LogEnd());
      ApplyCommitted();
    }
    reply->success = true;
    reply->match_index = m->prev_log_index + m->entries.size();
    Send(from, reply);
    return;
  }

  if (const auto* m = dynamic_cast<const InstallSnapshotMsg*>(&msg)) {
    auto reply = std::make_shared<AppendReplyMsg>();
    if (m->term < current_term_) {
      reply->term = current_term_;
      reply->success = false;
      Send(from, reply);
      return;
    }
    BecomeFollower(m->term);
    leader_hint_ = m->leader;
    heard_from_leader_ = true;
    reply->term = current_term_;
    if (m->last_index <= last_applied_) {
      // Our state is already at least as fresh.
      reply->success = true;
      reply->match_index = last_applied_;
      Send(from, reply);
      return;
    }
    pipeline_.Install(m->state, m->last_index);
    if (m->last_index >= LogEnd()) {
      log_.clear();
    } else {
      log_.erase(log_.begin(),
                 log_.begin() + static_cast<long>(m->last_index - log_start_));
    }
    log_start_ = m->last_index;
    snapshot_term_ = m->last_term;
    if (!m->config.empty()) snapshot_config_ = m->config;
    RecomputeConfig();
    commit_index_ = std::max(commit_index_, m->last_index);
    last_applied_ = m->last_index;
    reply->success = true;
    reply->match_index = m->last_index;
    Send(from, reply);
    ApplyCommitted();
    return;
  }

  if (const auto* m = dynamic_cast<const AppendReplyMsg*>(&msg)) {
    if (m->term > current_term_) {
      BecomeFollower(m->term);
      return;
    }
    if (role_ != Role::kLeader || m->term != current_term_) return;
    if (m->success) {
      match_index_[from] = std::max(match_index_[from], m->match_index);
      next_index_[from] = std::max(next_index_[from], m->match_index);
      if (m->round > 0) {
        for (PendingRead& read : pending_reads_) {
          if (read.confirmed || m->round < read.round) continue;
          read.acks.insert(from);
          if (static_cast<int>(read.acks.size()) + 1 >= Majority()) {
            read.confirmed = true;
          }
        }
      }
      AdvanceCommitIndex();  // Also serves newly confirmed reads.
    } else {
      // Back up and retry immediately.
      if (next_index_[from] > 0) --next_index_[from];
      SendAppendEntries(from);
    }
    return;
  }
}

}  // namespace consensus40::raft
