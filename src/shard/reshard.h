/// \file
/// Live shard reconfiguration: the ShardMove state machine.
///
/// A move migrates one key-hash range between replica groups while
/// traffic flows, driven through the decision group so it is
/// exactly-once recoverable (the same Gray–Lamport write-once-record
/// discipline as the 2PC commit decision). The happy path:
///
///   claim    SETNX "__mv.e<E>.<lo>-<hi>" — the write-once move record.
///            A second mover proposing a DIFFERENT move for the same
///            (epoch, range) reads the established spec back and is
///            rejected; the SAME spec makes it a co-driver of one move.
///   freeze   The source TM stops admitting new transactions on the
///            range (prepare votes NO; the client retries later).
///   drain    Every in-flight transaction touching the range runs to
///            its 2PC completion at the old owner — straddling
///            transactions are never split across epochs.
///   copy     One atomic MIGRATE log entry at the source both fences
///            the range ("MOVED <epoch>" to stale routes) and returns
///            its exact contents; INSTALL bulk-loads the destination.
///   flip     SETNX "__rt.<E+1>" publishes the new routing table —
///            the commit point of the move.
///   unfreeze The source TM adopts the new table and starts redirecting.
///
/// Every transition lands a write-once record in the decision group, so
/// a crashed mover is recoverable BY ANY PARTICIPANT: the frozen TM
/// nudges the restarted mover, which re-reads the claim + flip records
/// and resumes idempotently — re-running any pre-flip step is harmless
/// (MIGRATE/INSTALL are deterministic re-copies of drained data), and a
/// post-flip resume skips straight to unfreeze.

#ifndef CONSENSUS40_SHARD_RESHARD_H_
#define CONSENSUS40_SHARD_RESHARD_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "shard/routing.h"
#include "sim/simulation.h"

namespace consensus40::shard {

class ShardedStateMachine;

/// One requested range move: reassign hash range [lo, hi) (hi == 0
/// means 2^64) to replica group `to`.
struct MoveSpec {
  uint64_t lo = 0;
  uint64_t hi = 0;
  int to = 0;
};

/// Mover -> source TM: stop admitting transactions on the range.
struct MoveFreezeMsg : sim::Message {
  const char* TypeName() const override { return "move-freeze"; }
  int ByteSize() const override { return 40; }
  std::string move_id;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Source TM -> mover: frozen; `drained` if no in-flight transaction
/// still touches the range.
struct MoveFreezeAckMsg : sim::Message {
  const char* TypeName() const override { return "move-freeze-ack"; }
  int ByteSize() const override { return 25; }
  std::string move_id;
  bool drained = false;
};

/// Source TM -> mover: the last in-flight transaction on the range
/// finished; the range is quiescent at the old owner.
struct MoveDrainedMsg : sim::Message {
  const char* TypeName() const override { return "move-drained"; }
  int ByteSize() const override { return 24; }
  std::string move_id;
};

/// Mover -> destination TM: adopt the post-move routing table (sent
/// before the flip, so the new owner routes correctly from the first
/// redirected transaction).
struct MoveInstallMsg : sim::Message {
  const char* TypeName() const override { return "move-install"; }
  int ByteSize() const override {
    return 25 + static_cast<int>(table.Encode().size());
  }
  std::string move_id;
  RoutingTable table;  ///< The post-move table.
  /// Set when a mover stands down at the flip: `table` is then the
  /// ESTABLISHED table for its epoch and replaces a same-epoch table the
  /// TM adopted from the losing pre-flip install (plain adoption is
  /// strictly epoch-gated and would keep the loser forever).
  bool force = false;
};

struct MoveInstallAckMsg : sim::Message {
  const char* TypeName() const override { return "move-install-ack"; }
  int ByteSize() const override { return 24; }
  std::string move_id;
};

/// Mover -> source TM: move committed; adopt the new table, thaw the
/// range, redirect stale routes from now on.
struct MoveUnfreezeMsg : sim::Message {
  const char* TypeName() const override { return "move-unfreeze"; }
  int ByteSize() const override {
    return 24 + static_cast<int>(table.Encode().size());
  }
  std::string move_id;
  RoutingTable table;
};

struct MoveUnfreezeAckMsg : sim::Message {
  const char* TypeName() const override { return "move-unfreeze-ack"; }
  int ByteSize() const override { return 24; }
  std::string move_id;
};

/// Frozen TM -> mover: "a move over my range is stalled" — the recovery
/// trigger that lets a restarted (memoryless) mover find and finish an
/// interrupted move.
struct MoveNudgeMsg : sim::Message {
  const char* TypeName() const override { return "move-nudge"; }
  int ByteSize() const override { return 24; }
  std::string move_id;
};

/// Write-once decision-group keys of a move.
std::string MoveId(uint64_t epoch, uint64_t lo, uint64_t hi);
bool ParseMoveId(const std::string& id, uint64_t* epoch, uint64_t* lo,
                 uint64_t* hi);
std::string MoveClaimKey(const std::string& move_id);
std::string MovePhaseKey(const std::string& move_id, const char* phase);
/// Last-writer-wins recovery hint: the move currently in progress ("-"
/// when none). A hint, not a correctness record — correctness rides the
/// write-once claim/flip records.
extern const char kActiveMoveKey[];

/// The move coordinator. Fully volatile (OnRestart forgets everything);
/// every durable fact lives in the decision group. One move runs at a
/// time; StartMove requests queue behind the active one.
class ShardMover : public sim::Process {
 public:
  /// Linear progress ladder of the active move, exposed so tests can
  /// crash the mover at every phase boundary. Values only grow within
  /// one move (max_step_reached()).
  enum class Step {
    kIdle = 0,
    kClaim = 1,        ///< SETNX move record in flight.
    kCheckFlipped = 2, ///< Reading the flip marker (recovery skip-ahead).
    kFreeze = 3,       ///< Awaiting the source TM's freeze ack.
    kDrain = 4,        ///< Awaiting quiescence of in-flight transactions.
    kCopy = 5,         ///< MIGRATE/INSTALL data transfer in flight.
    kInstallTm = 6,    ///< Teaching the destination TM the new table.
    kFlip = 7,         ///< SETNX of the new routing epoch in flight.
    kUnfreeze = 8,     ///< Awaiting the source TM's unfreeze ack.
  };

  explicit ShardMover(ShardedStateMachine* owner);

  /// Requests a move. False (and a recorded rejection) if the spec is
  /// invalid against the mover's current table: the range is not wholly
  /// owned by one group, or already owned by `to`, or `to` is out of
  /// range. Queues behind an active move.
  bool StartMove(const MoveSpec& spec);

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

  /// Completion callbacks from the mover's GroupClients.
  void OnDecisionResult(uint64_t seq, const std::string& result);
  void OnGroupResult(int group, uint64_t seq, const std::string& result);

  Step step() const { return step_; }
  /// Highest step the active (or last) move reached.
  int max_step_reached() const { return max_step_; }
  int moves_done() const { return moves_done_; }
  int moves_rejected() const { return moves_rejected_; }
  bool idle() const { return step_ == Step::kIdle && queue_.empty(); }
  const RoutingTable& table() const { return table_; }

 private:
  void Begin(const MoveSpec& spec);
  void Resume(const std::string& move_id);
  void Enter(Step step);
  /// Submits a decision-group op whose result resumes the ladder.
  void AwaitDecision(const std::string& op);
  /// Submits a data-group op whose result resumes the ladder.
  void AwaitGroup(int group, const std::string& op);
  /// (Re)sends the TM message of the current step; re-armed by a resend
  /// timer until the matching ack advances the ladder.
  void SendStepMsg();
  void ArmResend();
  void GoFreeze();
  void GoCopy();
  void GoInstallTm();
  void GoFlip();
  void GoUnfreeze();
  void FinishMove(bool done);
  void Reject(const std::string& why);

  ShardedStateMachine* owner_;
  Step step_ = Step::kIdle;
  int max_step_ = 0;
  /// Sub-position inside a step for multi-op steps (kClaim: claim ->
  /// active-pointer; kCopy: migrate -> install; ...).
  int sub_ = 0;
  MoveSpec spec_;
  int from_ = -1;
  std::string move_id_;
  RoutingTable base_;       ///< Table the claim was made against.
  RoutingTable new_table_;  ///< base_ + the move (valid from kInstallTm).
  RoutingTable table_;      ///< Mover's current adopted table.
  std::string payload_;     ///< MIGRATE result awaiting INSTALL.
  bool drained_ = false;
  bool resuming_ = false;
  bool reject_at_flip_ = false;
  uint64_t await_decision_seq_ = 0;
  bool decision_waiting_ = false;
  int await_group_ = -1;
  uint64_t await_group_seq_ = 0;
  uint64_t resend_timer_ = 0;
  std::deque<MoveSpec> queue_;
  int moves_done_ = 0;
  int moves_rejected_ = 0;
  std::vector<std::string> rejections_;
};

}  // namespace consensus40::shard

#endif  // CONSENSUS40_SHARD_RESHARD_H_
