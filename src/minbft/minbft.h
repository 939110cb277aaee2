#ifndef CONSENSUS40_MINBFT_MINBFT_H_
#define CONSENSUS40_MINBFT_MINBFT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "smr/client.h"
#include "smr/command.h"
#include "smr/signed_replica.h"

namespace consensus40::minbft {

/// Configuration shared by all replicas of a MinBFT cluster.
struct MinBftOptions {
  /// Cluster size; must be 2f+1 (the protocol's headline: Byzantine fault
  /// tolerance with Paxos-sized clusters, thanks to the USIG).
  int n = 3;

  /// Shared key registry for client request signatures and USIG tags.
  const crypto::KeyRegistry* registry = nullptr;

  /// Shared trusted USIG component. Exactly one per cluster: the per-node
  /// counters inside it model each replica's tamper-proof hardware.
  crypto::Usig* usig = nullptr;
};

/// A MinBFT replica (Veronese et al. 2013). The USIG's unique sequential
/// identifiers prevent a Byzantine primary from assigning two different
/// requests to one counter value, which removes PBFT's pre-prepare/prepare
/// distinction: 2 phases (prepare, commit), 2f+1 replicas, quorums of f+1.
class MinBftReplica : public smr::SignedReplica {
 public:
  explicit MinBftReplica(MinBftOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "minbft-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    ReplyMsg(int64_t v, uint64_t seq, int32_t replica, std::string result)
        : SignedReplyMsg(seq, replica, std::move(result)), view(v) {}
    const char* TypeName() const override { return "minbft-reply"; }
    int64_t view;
  };
  struct PrepareMsg : sim::Message {
    const char* TypeName() const override { return "minbft-prepare"; }
    int ByteSize() const override { return 96 + cmd.ByteSize(); }
    int64_t view = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI ui;  ///< Primary's UI; its counter is the seq number.
  };
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "minbft-commit"; }
    int ByteSize() const override { return 144 + cmd.ByteSize(); }
    int64_t view = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI primary_ui;
    crypto::Usig::UI replica_ui;  ///< The committing replica's own UI.
  };
  struct ViewChangeMsg : sim::Message {
    const char* TypeName() const override { return "minbft-view-change"; }
    int ByteSize() const override {
      return 48 + static_cast<int>(entries.size()) * 160;
    }
    int64_t new_view = 0;
    int32_t replica = -1;
    /// Accepted prepares (primary counter, command, client sig).
    struct Entry {
      uint64_t counter;
      smr::Command cmd;
      crypto::Signature client_sig;
    };
    std::vector<Entry> entries;
    crypto::Usig::UI ui;  ///< Authenticates the view-change itself.
  };
  struct NewViewMsg : sim::Message {
    const char* TypeName() const override { return "minbft-new-view"; }
    int ByteSize() const override {
      return 56 + static_cast<int>(reissue.size()) * 120;
    }
    int64_t view = 0;
    std::vector<ViewChangeMsg::Entry> reissue;
    /// First USIG counter the new primary will use for prepares.
    uint64_t first_counter = 0;
    crypto::Usig::UI ui;
  };

  int64_t view() const { return view_; }
  bool IsPrimary() const { return view_ % options_.n == id(); }
  uint64_t last_executed() const { return executed_commands().size(); }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 protected:
  /// Adversary hook: primary-side request hijack (returns true to skip
  /// honest handling).
  virtual bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                            const crypto::Signature& sig);

  MinBftOptions options_;
  int f_;

 private:
  struct Slot {
    bool prepared = false;  ///< Valid prepare received.
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI primary_ui;
    std::set<sim::NodeId> commits;  ///< Replicas whose commit matched.
    bool sent_commit = false;
    bool executed = false;
  };

  crypto::Digest PrepareBindingDigest(int64_t view,
                                      const smr::Command& cmd) const;
  void MaybeExecute();
  /// Arms a request watchdog for a command not yet executed: if it does
  /// not execute in time, the primary is suspect.
  void WatchRequest(const smr::Command& cmd);
  void StartViewChange(int64_t new_view);

  int64_t view_ = 0;
  bool in_view_change_ = false;
  int64_t pending_view_ = 0;
  /// Highest primary counter accepted per view; prepares must arrive with
  /// strictly sequential counters.
  uint64_t expected_counter_ = 1;
  std::map<uint64_t, Slot> slots_;  ///< Keyed by logical sequence number.
  std::map<int64_t, std::map<sim::NodeId, std::vector<ViewChangeMsg::Entry>>>
      view_changes_;
  std::set<int64_t> built_new_views_;  ///< Guard against double NewView.
};

/// MinBFT client: identical interaction pattern to the PBFT client (f+1
/// matching replies), with f drawn from n = 2f+1.
class MinBftClient
    : public smr::ClosedLoopClient<MinBftReplica::RequestMsg,
                                   MinBftReplica::ReplyMsg> {
 public:
  MinBftClient(int n, const crypto::KeyRegistry* registry, int ops,
               std::string key = "x",
               sim::Duration retry = 500 * sim::kMillisecond)
      : ClosedLoopClient(n, (n - 1) / 2 + 1, 0, ops, std::move(key), retry,
                         registry) {}
};

}  // namespace consensus40::minbft

#endif  // CONSENSUS40_MINBFT_MINBFT_H_
