/// \file
/// The leader pipeline shared by the log-based SMR replicas (Raft,
/// Multi-Paxos, Crossword). In the paper's C&C terms these protocols
/// differ in leader election, value discovery and agreement; what a
/// leader does with client commands around those phases is the same, and
/// lives here once:
///
///   - client intake: the dedup-cache fast path, reply-address
///     registration, and in-flight (client, seq) suppression;
///   - cut-or-linger batching: a lone command ships as a command entry,
///     several fold into one batch entry;
///   - apply and per-command reply fan-out;
///   - checkpoint state transfer (KV state plus dedup sessions);
///   - for the slot logs (Multi-Paxos, Crossword): checkpoint truncation,
///     catch-up serving, and snapshot install.
///
/// The pipeline is a member of its replica, not a Process: it reaches the
/// network and the timer wheel through Hooks, which a replica derived from
/// PipelineProcess binds to itself with PipelineHooks.

#ifndef CONSENSUS40_SMR_PIPELINE_H_
#define CONSENSUS40_SMR_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "smr/apply_ledger.h"
#include "smr/client.h"
#include "smr/command.h"
#include "smr/state_machine.h"

namespace consensus40::smr {

/// Checkpoint state transfer: the applied KV state plus the dedup
/// sessions, so duplicate suppression survives log truncation.
struct StateTransfer {
  KvStore::Contents data;
  DedupingExecutor::Sessions sessions;
  /// True framed size: actual key/value bytes plus cached session
  /// results, not a per-entry constant (values can be megabytes).
  int ByteSize() const;
};

/// Slot-log sync messages (Multi-Paxos, Crossword). Each carries its
/// protocol's wire name, so per-type statistics keep the protocols apart.
struct CatchupRequestMsg : sim::Message {
  CatchupRequestMsg(const char* type, uint64_t f) : type(type), from_index(f) {}
  const char* TypeName() const override { return type; }
  int ByteSize() const override { return 16; }
  const char* type;
  uint64_t from_index;  ///< First slot the requester is missing.
};
struct CatchupReplyMsg : sim::Message {
  explicit CatchupReplyMsg(const char* type) : type(type) {}
  const char* TypeName() const override { return type; }
  int ByteSize() const override;
  const char* type;
  std::vector<std::pair<uint64_t, Entry>> entries;  ///< Chosen slots.
};
/// Full-state transfer for a replica whose gap was checkpoint-truncated
/// away on the sender.
struct SnapshotMsg : sim::Message {
  explicit SnapshotMsg(const char* type) : type(type) {}
  const char* TypeName() const override { return type; }
  int ByteSize() const override { return 64 + state.ByteSize(); }
  const char* type;
  uint64_t end = 0;  ///< The snapshot covers slots [0, end).
  StateTransfer state;
};

/// One replica's leader pipeline and replicated state machine (see the
/// file comment). Every replica owns one; only the leader queues and cuts.
class LeaderPipeline {
 public:
  struct Options {
    /// Max client commands folded into one log entry.
    int batch_size = 1;
    /// How long the leader lingers for a batch to fill (0 = cut at once).
    sim::Duration batch_delay = 0;
    /// Slot logs: applied slots per checkpoint (0 disables).
    uint64_t checkpoint_interval = 0;
  };

  /// Wire names of a slot log's sync messages (unused by Raft).
  struct SyncNames {
    const char* catchup_request;
    const char* catchup_reply;
    const char* snapshot;
  };

  /// How the pipeline acts through its replica.
  struct Hooks {
    /// Proposes everything queued (the replica's cut routine).
    std::function<void()> cut;
    std::function<void(sim::NodeId to, sim::MessagePtr msg)> send;
    /// Builds the protocol's reply carrying a result for `seq`.
    std::function<sim::MessagePtr(uint64_t seq, const std::string& result)>
        make_reply;
    std::function<uint64_t(sim::Duration, std::function<void()>)> set_timer;
    std::function<void(uint64_t)> cancel_timer;
  };

  LeaderPipeline(Options options, Hooks hooks, SyncNames names = {});
  // The linger timer holds `this`.
  LeaderPipeline(const LeaderPipeline&) = delete;
  LeaderPipeline& operator=(const LeaderPipeline&) = delete;

  // --- Intake and batching ---

  /// A client command reached a replica that leads or is running its
  /// election. An executed command is answered from the dedup cache.
  /// Otherwise `from` is registered for the reply, and the command is
  /// queued unless already queued or in flight (a retry only
  /// re-registers its reply address). A queued command is then cut at
  /// once when batching is off or the batch is full, or lingers: the
  /// linger timer is armed on the first enqueue. Until `leading`, the
  /// queue just waits for leadership.
  void Admit(sim::NodeId from, const Command& cmd, bool leading);

  bool HasQueued() const { return !queue_.empty(); }

  /// Cancels the linger timer; the caller is about to cut.
  void DisarmLinger();

  /// Pops the next log entry off the queue and marks its commands in
  /// flight at `index`. A lone command (or any command when `single`)
  /// ships as a command entry, keeping the untuned log shape; otherwise
  /// up to batch_size commands fold into one batch entry.
  Entry CutNext(uint64_t index, bool single = false);

  /// Marks the client commands of an already-logged entry in flight.
  void Track(const Entry& entry, uint64_t index);

  /// Sends the commands of an entry that lost its slot to an earlier
  /// decision back to the queue, unless already executed or queued.
  void Requeue(const Entry& entry);

  /// Leadership lost: nothing queued will be proposed by this replica
  /// (clients re-transmit to the new leader), so the queue and the
  /// in-flight tracking go, along with the linger timer. A stale
  /// in-flight entry would make a later retry look in flight forever.
  void Depose();

  /// Crash recovery: all proposer state is volatile, and the linger
  /// timer died with the crash.
  void Restart();

  // --- Apply and reply fan-out ---

  /// Applies the committed log entry at `position` (0-based: the entries
  /// applied before it) through the dedup sessions: every client command
  /// it carries is dropped from the in-flight set and answered if its
  /// client is waiting. The entry's digest goes to the ledger, if any.
  void ApplyEntry(uint64_t position, const Entry& entry);

  /// Reports every applied entry and snapshot install to `ledger` as its
  /// member `member` (the group facade's agreement check).
  void ReportAppliesTo(ApplyLedger* ledger, int member) {
    ledger_ = ledger;
    ledger_member_ = member;
  }

  const KvStore& kv() const { return kv_; }

  StateTransfer Capture() const { return {kv_.Snapshot(), dedup_.sessions()}; }
  /// Restores a snapshot covering log positions [0, frontier).
  void Install(const StateTransfer& state, uint64_t frontier);

  // --- Slot logs (Multi-Paxos, Crossword) ---

  /// Applies the committed prefix of `log` with reply fan-out, then
  /// checkpoints: once checkpoint_interval applied slots accumulate past
  /// the last checkpoint, the applied state machine (plus its dedup
  /// sessions) IS the checkpoint, so the log prefix and the matching
  /// acceptor slots are truncated.
  template <class Slot>
  void ApplySlots(ReplicatedLog* log, std::map<uint64_t, Slot>* slots);

  /// Asks `to` for the chosen slots from `from_index` on.
  void RequestCatchup(sim::NodeId to, uint64_t from_index);

  /// Leader side of catch-up: a requester whose gap was truncated away
  /// gets a snapshot; otherwise up to 128 chosen slots (its next
  /// heartbeat round pulls more).
  void ServeCatchup(sim::NodeId to, uint64_t from_index,
                    const ReplicatedLog& log);

  /// Ships this replica's applied state, covering [0, applied frontier).
  void SendSnapshot(sim::NodeId to, const ReplicatedLog& log);

  /// Installs a snapshot newer than the applied frontier: restores the
  /// state, re-bases `log`, and drops the covered acceptor slots. A
  /// snapshot reaching a leader (`cursor` non-null) refuses its accepts
  /// below the sender's truncation frontier: it won an election while
  /// lagging. Those proposals are abandoned, so their commands' in-flight
  /// tracking goes (client retries re-enqueue them above the frontier;
  /// retries of commands the snapshot executed hit the dedup cache) and
  /// the proposal cursor moves past the snapshot. Retained chosen slots
  /// past the snapshot then apply. Returns false for a stale snapshot.
  template <class Slot>
  bool InstallSnapshot(const SnapshotMsg& snap, ReplicatedLog* log,
                       std::map<uint64_t, Slot>* slots, uint64_t* cursor);

  // --- Introspection ---

  /// Commands queued awaiting a batch cut.
  size_t queued_ops() const { return queue_.size(); }
  /// Commands cut into the log but not yet applied.
  size_t inflight_ops() const { return inflight_.size() - queue_.size(); }
  /// Multi-command entries cut.
  int batches_cut() const { return batches_cut_; }
  int checkpoints_taken() const { return checkpoints_taken_; }
  int snapshots_installed() const { return snapshots_installed_; }

 private:
  using Key = std::pair<int32_t, uint64_t>;

  void Reply(sim::NodeId to, uint64_t seq, const std::string& result);
  /// Drops the in-flight entry of a cut command; a queued one stays.
  void ForgetCut(const Key& key);
  /// Retires an applied client command and answers its waiting client.
  void Applied(const Command& cmd, const std::string& result);

  Options options_;
  Hooks hooks_;
  SyncNames names_;

  KvStore kv_;
  DedupingExecutor dedup_;
  ApplyLedger* ledger_ = nullptr;
  int ledger_member_ = 0;

  /// inflight_ value of a command still in queue_, awaiting a cut.
  static constexpr uint64_t kQueued = UINT64_MAX;

  std::deque<Command> queue_;
  /// (client, client_seq) -> log index of every command queued (kQueued)
  /// or cut but not yet applied. Erased on apply (the dedup session
  /// covers the command from then on), so the map is bounded by the
  /// pipeline.
  std::map<Key, uint64_t> inflight_;
  /// (client, client_seq) -> client node awaiting a reply.
  std::map<Key, sim::NodeId> awaiting_client_;

  uint64_t linger_timer_ = 0;
  int batches_cut_ = 0;
  int checkpoints_taken_ = 0;
  int snapshots_installed_ = 0;
};

template <class Slot>
void LeaderPipeline::ApplySlots(ReplicatedLog* log,
                                std::map<uint64_t, Slot>* slots) {
  const uint64_t first = log->applied_frontier();
  log->ApplyCommitted(
      &kv_, &dedup_,
      [this](uint64_t, const Command& cmd, const std::string& result) {
        Applied(cmd, result);
      });
  if (ledger_ != nullptr) {
    for (uint64_t i = first; i < log->applied_frontier(); ++i) {
      ledger_->Applied(ledger_member_, i, log->Get(i)->Digest());
    }
  }
  if (options_.checkpoint_interval == 0) return;
  const uint64_t applied = log->applied_frontier();
  if (applied - log->start() < options_.checkpoint_interval) return;
  log->TruncatePrefix(applied);
  slots->erase(slots->begin(), slots->lower_bound(applied));
  ++checkpoints_taken_;
}

template <class Slot>
bool LeaderPipeline::InstallSnapshot(const SnapshotMsg& snap,
                                     ReplicatedLog* log,
                                     std::map<uint64_t, Slot>* slots,
                                     uint64_t* cursor) {
  if (snap.end <= log->applied_frontier()) return false;  // Already as fresh.
  Install(snap.state, snap.end);
  log->ResetToSnapshot(snap.end);
  slots->erase(slots->begin(), slots->lower_bound(snap.end));
  if (cursor != nullptr) {
    std::erase_if(inflight_,
                  [&](const auto& entry) { return entry.second < snap.end; });
    *cursor = std::max(*cursor, snap.end);
  }
  ApplySlots(log, slots);
  return true;
}

/// Base of the replicas that own a LeaderPipeline: binds the pipeline's
/// hooks to this process's network and timers.
class PipelineProcess : public sim::Process {
 protected:
  /// Hooks that cut with `cut` and answer clients with `ReplyMsg`s
  /// (constructed as ReplyMsg(seq, result, leader hint = this replica)).
  template <class ReplyMsg>
  LeaderPipeline::Hooks PipelineHooks(std::function<void()> cut) {
    return {std::move(cut),
            [this](sim::NodeId to, sim::MessagePtr msg) {
              Send(to, std::move(msg));
            },
            [this](uint64_t seq, const std::string& result) -> sim::MessagePtr {
              return std::make_shared<ReplyMsg>(seq, result, id());
            },
            [this](sim::Duration delay, std::function<void()> fn) {
              return SetTimer(delay, std::move(fn));
            },
            [this](uint64_t timer) { CancelTimer(timer); }};
  }
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_PIPELINE_H_
