#ifndef CONSENSUS40_XFT_XFT_H_
#define CONSENSUS40_XFT_XFT_H_

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

namespace consensus40::xft {

/// The XFT anarchy predicate: with c crash-faulty, m Byzantine, and p
/// correct-but-partitioned replicas out of n, the system is "in anarchy"
/// iff  m > 0  AND  c + m + p > floor((n-1)/2).  XPaxos guarantees safety
/// in every execution that never enters anarchy.
bool InAnarchy(int n, int c, int m, int p);

/// Configuration shared by all replicas of an XFT (XPaxos) cluster.
struct XftOptions {
  /// Cluster size; must be 2f+1 where f bounds the SUM of crash and
  /// non-crash faults (plus partitioned nodes) tolerated outside anarchy.
  int n = 5;
  const crypto::KeyRegistry* registry = nullptr;
};

/// An XPaxos replica: view v is served by the *synchronous group* sg(v),
/// f+1 replicas whose first member leads. Views cycle through every
/// (f+1)-subset of the n replicas: first the n windows {v, v+1, ..., v+f}
/// mod n, then the other subsets in lexicographic order. Windows alone
/// would not do: with f crashed replicas spread out, every window holds
/// one, and no view could ever serve the client's f+1 matching replies.
/// The common case touches only the group: prepare + commit among f+1
/// replicas, Paxos-grade cost against crash faults, Byzantine-grade
/// accountability via signatures. A fault inside the group triggers a view
/// change that installs the next group.
class XftReplica : public smr::SignedReplica {
 public:
  explicit XftReplica(XftOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "xft-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    ReplyMsg(int64_t v, uint64_t seq, int32_t replica, std::string result)
        : SignedReplyMsg(seq, replica, std::move(result)), view(v) {}
    const char* TypeName() const override { return "xft-reply"; }
    int64_t view;
  };
  struct PrepareMsg : sim::Message {
    const char* TypeName() const override { return "xft-prepare"; }
    int ByteSize() const override { return 96 + cmd.ByteSize(); }
    int64_t view = 0;
    uint64_t seq = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Signature leader_sig;
  };
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "xft-commit"; }
    int ByteSize() const override { return 88; }
    int64_t view = 0;
    uint64_t seq = 0;
    crypto::Digest digest{};
    int32_t replica = -1;
    crypto::Signature sig;
  };
  /// Lazy replication to replicas outside the synchronous group. Carries
  /// the commit certificate — f+1 signatures over SlotDigest(view, seq,
  /// cmd) — so a single update is self-certifying: a straggler can adopt
  /// it even when fewer than f+1 executors are still alive to vouch.
  struct UpdateMsg : sim::Message {
    const char* TypeName() const override { return "xft-update"; }
    int ByteSize() const override {
      return 56 + cmd.ByteSize() + static_cast<int>(cert.size()) * 48;
    }
    int64_t view = 0;
    uint64_t seq = 0;
    smr::Command cmd;
    std::vector<crypto::Signature> cert;
  };
  struct ViewChangeMsg : sim::Message {
    const char* TypeName() const override { return "xft-view-change"; }
    int ByteSize() const override {
      return 48 + static_cast<int>(entries.size()) * 96;
    }
    int64_t new_view = 0;
    int32_t replica = -1;
    struct Entry {
      uint64_t seq;
      smr::Command cmd;
      crypto::Signature client_sig;
    };
    std::vector<Entry> entries;  ///< Prepared log suffix.
    crypto::Signature sig;
  };
  struct NewViewMsg : sim::Message {
    const char* TypeName() const override { return "xft-new-view"; }
    int ByteSize() const override {
      return 48 + static_cast<int>(reissue.size()) * 96;
    }
    int64_t view = 0;
    std::vector<ViewChangeMsg::Entry> reissue;
    crypto::Signature sig;
  };

  int64_t view() const { return view_; }
  const std::vector<sim::NodeId>& SyncGroup(int64_t view) const {
    return groups_[static_cast<size_t>(view) % groups_.size()];
  }
  bool InSyncGroup() const;
  sim::NodeId Leader(int64_t view) const { return SyncGroup(view).front(); }
  uint64_t executed() const { return executed_commands().size(); }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct Slot {
    bool prepared = false;
    smr::Command cmd;
    crypto::Signature client_sig;
    std::set<sim::NodeId> commits;
    /// Signatures over SlotDigest(view, seq, cmd), one per committer (the
    /// leader's comes from its prepare). Source of the update certificate.
    std::map<sim::NodeId, crypto::Signature> commit_sigs;
    bool sent_commit = false;
    bool executed = false;
    std::shared_ptr<const PrepareMsg> prepare_msg;
  };

  int f() const { return (options_.n - 1) / 2; }
  void MaybeExecute();
  /// Arms a request watchdog for a command not yet executed. It starts a
  /// view change each time it fires and stays armed until the request
  /// executes.
  void WatchRequest(const smr::Command& cmd);
  void RetransmitLiveSlots();
  void StartViewChange(int64_t new_view);

  XftOptions options_;
  /// Every (f+1)-subset of the replicas, in view order (see the class
  /// comment): C(n, f+1) of them, 10 at n=5.
  std::vector<std::vector<sim::NodeId>> groups_;
  int64_t view_ = 0;
  bool in_view_change_ = false;
  int64_t pending_view_ = 0;
  /// Escalation timer for the in-flight view change. Tracked so a new
  /// campaign (or an install) cancels the previous generation; an
  /// orphaned escalation could otherwise fire against a healthy view.
  uint64_t view_change_timer_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t exec_cursor_ = 1;
  std::map<uint64_t, Slot> slots_;

  // Passive-side update application: certified commands buffered until the
  // execution cursor reaches them. Only certificates for the current view
  // are adopted — slot numbering is per-view, so a stale-era certificate
  // could otherwise land at the wrong position.
  struct PendingUpdate {
    int64_t view = 0;
    smr::Command cmd;
  };
  std::map<uint64_t, PendingUpdate> pending_updates_;

  std::map<int64_t, std::map<sim::NodeId, std::vector<ViewChangeMsg::Entry>>>
      view_changes_;
  std::set<int64_t> built_new_views_;
};

/// XFT client: f+1 matching replies (f = (n-1)/2), i.e. the whole
/// synchronous group agrees.
class XftClient : public smr::ClosedLoopClient<XftReplica::RequestMsg,
                                               XftReplica::ReplyMsg> {
 public:
  XftClient(int n, const crypto::KeyRegistry* registry, int ops,
            std::string key = "x",
            sim::Duration retry = 500 * sim::kMillisecond)
      : ClosedLoopClient(n, (n - 1) / 2 + 1, 0, ops, std::move(key), retry,
                         registry) {}
};

}  // namespace consensus40::xft

#endif  // CONSENSUS40_XFT_XFT_H_
