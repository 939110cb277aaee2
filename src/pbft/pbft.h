#ifndef CONSENSUS40_PBFT_PBFT_H_
#define CONSENSUS40_PBFT_PBFT_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "smr/client.h"
#include "smr/command.h"
#include "smr/signed_replica.h"

namespace consensus40::pbft {

/// Configuration shared by all replicas of a PBFT cluster.
struct PbftOptions {
  /// Cluster size; must be 3f+1. Replicas are processes 0..n-1.
  int n = 4;

  /// Shared key registry ("PKI") used to sign pre-prepares, prepares,
  /// commits, and checkpoints so that proofs can be relayed and verified.
  const crypto::KeyRegistry* registry = nullptr;

  /// A checkpoint is taken every this many executed requests.
  uint64_t checkpoint_interval = 16;

  /// Max client requests the primary folds into one pre-prepare (one
  /// agreement instance). 1 = classic per-request agreement.
  int batch_size = 1;

  /// How long the primary lets requests pool before cutting a batch.
  /// 0 = propose immediately (each request gets its own instance unless
  /// several arrive in the same instant).
  sim::Duration batch_delay = 0;
};

/// Signed wrapper used wherever PBFT relays third-party messages as proof
/// (prepared certificates in view changes, checkpoint certificates).
struct SignedVote {
  int32_t replica = -1;
  int64_t view = 0;
  uint64_t seq = 0;
  crypto::Digest digest{};
  crypto::Signature sig;

  /// Digest that is actually signed.
  crypto::Digest SigningDigest() const;
  bool Verify(const crypto::KeyRegistry& registry) const;
};

/// A PBFT replica (Castro & Liskov 1999): pre-prepare / prepare / commit,
/// checkpointing with garbage collection, and the O(n^3) view change.
/// Subclass and override adversary hooks to build Byzantine replicas for
/// tests (honest code paths verify all signatures and quorums, so
/// adversaries can disrupt liveness but never safety).
class PbftReplica : public smr::SignedReplica {
 public:
  explicit PbftReplica(PbftOptions options);

  // --- Client-facing messages ---
  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "pbft-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    ReplyMsg(int64_t v, uint64_t seq, int32_t replica, std::string result)
        : SignedReplyMsg(seq, replica, std::move(result)), view(v) {}
    const char* TypeName() const override { return "pbft-reply"; }
    int64_t view;
  };

  // --- Protocol messages (public so adversaries in tests can forge their
  //     own instances; honest replicas validate everything they receive) ---
  struct PrePrepareMsg : sim::Message {
    const char* TypeName() const override { return "pre-prepare"; }
    int ByteSize() const override {
      int size = 120;
      for (const smr::Command& cmd : cmds) size += 40 + cmd.ByteSize();
      return size;
    }
    int64_t view = 0;
    uint64_t seq = 0;
    crypto::Digest digest{};
    /// The ordered request batch (empty = view-change NOOP filler).
    std::vector<smr::Command> cmds;
    std::vector<crypto::Signature> client_sigs;
    crypto::Signature sig;  ///< Primary's signature over (view,seq,digest).
  };

  /// Canonical digest of a request batch.
  static crypto::Digest BatchDigest(const std::vector<smr::Command>& cmds);

  /// Digest the primary signs for a pre-prepare: (view, seq, batch digest).
  /// Public for the same reason the messages are — adversaries forge
  /// pre-prepares, honest replicas verify them.
  static crypto::Digest PrePrepareDigest(int64_t view, uint64_t seq,
                                         const crypto::Digest& digest);

  /// True iff every command in the batch is client-signed (the empty batch,
  /// the view-change filler, is valid).
  static bool ValidBatch(const std::vector<smr::Command>& cmds,
                         const std::vector<crypto::Signature>& sigs,
                         const crypto::KeyRegistry& registry);
  struct PrepareMsg : sim::Message {
    const char* TypeName() const override { return "prepare"; }
    int ByteSize() const override { return 104; }
    SignedVote vote;
  };
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "commit"; }
    int ByteSize() const override { return 104; }
    SignedVote vote;
  };
  struct CheckpointMsg : sim::Message {
    const char* TypeName() const override { return "checkpoint"; }
    int ByteSize() const override { return 104; }
    SignedVote vote;  ///< seq = checkpoint seq, digest = state digest.
  };

  /// State transfer: a lagging replica asks a peer for the executed
  /// command history past its own frontier.
  struct StateRequestMsg : sim::Message {
    const char* TypeName() const override { return "state-request"; }
    int ByteSize() const override { return 16; }
    uint64_t have = 0;  ///< Number of commands the requester has executed.
  };
  struct StateReplyMsg : sim::Message {
    const char* TypeName() const override { return "state-reply"; }
    int ByteSize() const override {
      return 64 + static_cast<int>(cmds.size()) * 56;
    }
    uint64_t have = 0;           ///< Echo of the request.
    uint64_t last_executed = 0;  ///< Sender's executed sequence frontier.
    std::vector<smr::Command> cmds;  ///< Executed commands beyond `have`.
    crypto::Digest state_digest{};   ///< Sender's state digest.
  };

  /// A prepared certificate: pre-prepare data + 2f matching prepares.
  struct PreparedProof {
    int64_t view = 0;
    uint64_t seq = 0;
    crypto::Digest digest{};
    std::vector<smr::Command> cmds;
    std::vector<crypto::Signature> client_sigs;
    crypto::Signature primary_sig;
    std::vector<SignedVote> prepares;

    bool Verify(const crypto::KeyRegistry& registry, int n) const;
  };

  /// Sent by a replica that notices traffic from a newer view than its
  /// own; the receiver answers with its latest NewViewMsg so the laggard
  /// can validate and install the view.
  struct ViewSyncRequestMsg : sim::Message {
    const char* TypeName() const override { return "view-sync-request"; }
    int ByteSize() const override { return 16; }
    int64_t have_view = 0;
  };

  struct ViewChangeMsg : sim::Message {
    const char* TypeName() const override { return "view-change"; }
    int ByteSize() const override {
      return 64 + static_cast<int>(prepared.size()) * 360 +
             static_cast<int>(checkpoint_proof.size()) * 104;
    }
    int64_t new_view = 0;
    int32_t replica = -1;
    uint64_t stable_seq = 0;
    std::vector<SignedVote> checkpoint_proof;  ///< 2f+1 checkpoint votes.
    std::vector<PreparedProof> prepared;
    crypto::Signature sig;
  };
  struct NewViewMsg : sim::Message {
    const char* TypeName() const override { return "new-view"; }
    int ByteSize() const override {
      return 64 + static_cast<int>(view_changes.size()) * 200 +
             static_cast<int>(pre_prepares.size()) * 140;
    }
    int64_t view = 0;
    /// The 2f+1 view-change messages justifying this view (identified by
    /// replica+sig; payloads verified on receipt of the originals — here we
    /// embed full copies for verification).
    std::vector<std::shared_ptr<const ViewChangeMsg>> view_changes;
    /// Re-issued pre-prepares for in-flight sequence numbers.
    std::vector<std::shared_ptr<const PrePrepareMsg>> pre_prepares;
  };

  // --- Observers ---
  int64_t view() const { return view_; }
  bool IsPrimary() const { return view_ % options_.n == id(); }
  sim::NodeId PrimaryOf(int64_t v) const { return v % options_.n; }
  uint64_t last_executed() const { return last_executed_; }
  uint64_t stable_checkpoint() const { return stable_checkpoint_; }
  int view_changes_sent() const { return view_changes_sent_; }
  size_t LogSizeForTest() const { return slots_.size(); }
  /// Live view-change bookkeeping entries (pending view-change message
  /// sets + built-new-view guards). Bounded-growth regression hook: after
  /// a storm of view changes this must not scale with the storm length.
  size_t ViewChangeBookkeepingForTest() const {
    return view_change_msgs_.size() + built_new_views_.size();
  }

  void OnStart() override {}
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 protected:
  // --- Adversary hooks (no-op for honest replicas) ---
  /// Called before handling a client request as primary; return true to
  /// hijack normal processing.
  virtual bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                            const crypto::Signature& sig);

  void HandleRequest(sim::NodeId from, const smr::Command& cmd,
                     const crypto::Signature& client_sig);

  PbftOptions options_;
  int f_;

 private:
  struct Slot {
    int64_t view = -1;
    bool pre_prepared = false;
    crypto::Digest digest{};
    std::vector<smr::Command> cmds;
    std::vector<crypto::Signature> client_sigs;
    crypto::Signature primary_sig;
    std::map<sim::NodeId, SignedVote> prepares;  ///< Excluding primary.
    std::map<sim::NodeId, SignedVote> commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    bool executed = false;
  };

  void MaybeSendCommit(uint64_t seq);
  void MaybeExecute();
  void TakeCheckpoint();
  void MaybeRequestStateTransfer();
  void FlushBatch();
  void GarbageCollect(uint64_t stable_seq);
  void StartViewChange(int64_t new_view);
  void ProcessNewView(const NewViewMsg& msg);
  /// Arms a request watchdog for a command not yet executed: if it does
  /// not execute in time, the primary is suspect.
  void WatchRequest(const smr::Command& cmd);
  crypto::Digest CheckpointDigest(uint64_t seq) const;

  int64_t view_ = 0;
  bool in_view_change_ = false;
  int64_t pending_view_ = 0;  ///< View being negotiated while changing.
  /// Primary-side queue of validated requests awaiting a batch slot.
  std::deque<std::pair<smr::Command, crypto::Signature>> batch_queue_;
  uint64_t next_seq_ = 1;       ///< Primary-assigned; seq 0 unused.
  uint64_t last_executed_ = 0;  ///< Highest contiguously executed seq.
  uint64_t stable_checkpoint_ = 0;
  std::map<uint64_t, Slot> slots_;

  /// checkpoint seq -> votes.
  std::map<uint64_t, std::map<sim::NodeId, SignedVote>> checkpoint_votes_;
  std::map<uint64_t, std::vector<SignedVote>> checkpoint_proofs_;
  /// State-transfer fetch state: candidate histories keyed by claimed
  /// post-state digest; adopted when f+1 peers agree.
  std::map<crypto::Digest, std::map<sim::NodeId,
                                    std::shared_ptr<const StateReplyMsg>>>
      state_offers_;
  bool state_transfer_inflight_ = false;

  /// target view -> view-change messages received.
  std::map<int64_t, std::map<sim::NodeId, std::shared_ptr<const ViewChangeMsg>>>
      view_change_msgs_;

  int view_changes_sent_ = 0;
  /// Escalation watchdog for the pending view change. One generation at a
  /// time: re-armed by StartViewChange, cancelled when a NewView installs,
  /// so a watchdog from a superseded negotiation can never fire into a
  /// healthy later view.
  uint64_t view_change_timer_ = 0;
  std::set<int64_t> built_new_views_;  ///< Guard against duplicate NewViews.
  /// Latest installed NewView, kept to bring restarted replicas up to date.
  std::shared_ptr<const NewViewMsg> last_new_view_;
};

/// PBFT client: sends to the primary of the last reply's view,
/// rebroadcasts to all replicas on timeout (which triggers forwarding /
/// view changes), accepts a result after f+1 matching replies.
class PbftClient : public smr::ClosedLoopClient<PbftReplica::RequestMsg,
                                                PbftReplica::ReplyMsg> {
 public:
  PbftClient(int n, const crypto::KeyRegistry* registry, int ops,
             std::string key = "x",
             sim::Duration retry = 500 * sim::kMillisecond)
      : ClosedLoopClient(n, (n - 1) / 3 + 1, 0, ops, std::move(key), retry,
                         registry) {}
};

}  // namespace consensus40::pbft

#endif  // CONSENSUS40_PBFT_PBFT_H_
