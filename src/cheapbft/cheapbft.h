#ifndef CONSENSUS40_CHEAPBFT_CHEAPBFT_H_
#define CONSENSUS40_CHEAPBFT_CHEAPBFT_H_

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

namespace consensus40::cheapbft {

/// Configuration shared by all replicas of a CheapBFT cluster.
struct CheapBftOptions {
  /// Tolerated Byzantine faults. Cluster size is 2f+1; only f+1 replicas
  /// are ACTIVE in the optimistic CheapTiny protocol, the other f are
  /// PASSIVE and only apply state updates.
  int f = 1;

  const crypto::KeyRegistry* registry = nullptr;
  crypto::Usig* usig = nullptr;
};

/// Protocol the cluster is currently running.
enum class CheapMode {
  kCheapTiny,   ///< f+1 active replicas, all must participate.
  kSwitching,   ///< CheapSwitch: agreeing on the abort history.
  kMinBft,      ///< Fallback: all 2f+1 replicas, quorums of f+1.
};

/// A CheapBFT replica (Kapitza et al. 2012): runs CheapTiny with f+1
/// active replicas in the fault-free case, and falls back to MinBFT on the
/// full 2f+1 after a PANIC-triggered CheapSwitch. Both sub-protocols rely
/// on the USIG to prevent equivocation.
class CheapBftReplica : public smr::SignedReplica {
 public:
  explicit CheapBftReplica(CheapBftOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "cheap-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    using smr::SignedReplyMsg::SignedReplyMsg;
    const char* TypeName() const override { return "cheap-reply"; }
  };
  struct PrepareMsg : sim::Message {
    const char* TypeName() const override { return "cheap-prepare"; }
    int ByteSize() const override { return 104 + cmd.ByteSize(); }
    int mode_epoch = 0;
    uint64_t seq = 0;  ///< In CheapTiny this must equal ui.counter.
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI ui;
  };
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "cheap-commit"; }
    int ByteSize() const override { return 152 + cmd.ByteSize(); }
    int mode_epoch = 0;
    uint64_t seq = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI primary_ui;
    crypto::Usig::UI replica_ui;
  };
  /// Active -> passive state propagation in CheapTiny.
  struct UpdateMsg : sim::Message {
    const char* TypeName() const override { return "cheap-update"; }
    int ByteSize() const override { return 48 + cmd.ByteSize(); }
    uint64_t seq = 0;
    smr::Command cmd;
  };
  struct PanicMsg : sim::Message {
    const char* TypeName() const override { return "cheap-panic"; }
    int ByteSize() const override { return 16; }
  };
  /// New leader's abort history.
  struct HistoryMsg : sim::Message {
    const char* TypeName() const override { return "cheap-history"; }
    int ByteSize() const override {
      return 32 + static_cast<int>(cmds.size()) * 48;
    }
    std::vector<smr::Command> cmds;  ///< Executed prefix to adopt.
    crypto::Usig::UI ui;
  };
  struct SwitchMsg : sim::Message {
    const char* TypeName() const override { return "cheap-switch"; }
    int ByteSize() const override { return 48; }
    crypto::Digest history_digest{};
    crypto::Usig::UI ui;
  };

  CheapMode mode() const { return mode_; }
  int n() const { return 2 * options_.f + 1; }
  uint64_t executed() const { return executed_commands().size(); }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct Slot {
    bool prepared = false;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Usig::UI primary_ui;
    std::set<sim::NodeId> commits;
    bool sent_commit = false;
    bool executed = false;
    /// Primary-side copy for retransmission on client retries.
    std::shared_ptr<const PrepareMsg> prepare_msg;
  };

  /// Replica 0 stays primary across the switch. Rotating a faulty primary
  /// away is the MinBFT view change's job (see src/minbft); the CheapSwitch
  /// scenario in the paper is a fault among the non-primary active replicas.
  sim::NodeId Primary() const { return 0; }
  int RequiredCommits() const {
    // CheapTiny cannot mask any fault among the f+1 active replicas; the
    // MinBFT fallback needs the usual f+1 of 2f+1.
    return options_.f + 1;
  }
  std::vector<sim::NodeId> ActiveSet() const;
  std::vector<sim::NodeId> PassiveSet() const;

  crypto::Digest BindingDigest(const smr::Command& cmd) const;
  crypto::Digest HistoryDigest(const std::vector<smr::Command>& cmds) const;
  void Execute(Slot& slot);
  void MaybeExecuteTiny();
  /// Arms a request watchdog that panics the cluster if `cmd` does not
  /// execute in time: CheapTiny cannot mask a fault.
  void WatchRequest(const smr::Command& cmd);
  void Panic();
  void AdoptHistory(const std::vector<smr::Command>& cmds);
  void FinishSwitch();

  CheapBftOptions options_;
  CheapMode mode_ = CheapMode::kCheapTiny;
  int mode_epoch_ = 0;  ///< 0 = CheapTiny, 1 = MinBFT fallback.
  uint64_t expected_counter_ = 1;
  uint64_t next_fallback_seq_ = 1;  ///< Primary's seq counter after switch.
  std::map<uint64_t, Slot> slots_;

  // Passive-side update votes: seq -> digest -> senders.
  std::map<uint64_t, std::map<crypto::Digest, std::set<sim::NodeId>>>
      update_votes_;
  std::map<uint64_t, smr::Command> update_cmds_;
  uint64_t next_update_to_apply_ = 1;

  // Switch state.
  bool panicked_ = false;
  std::vector<smr::Command> proposed_history_;
  std::vector<std::pair<smr::Command, crypto::Signature>> deferred_requests_;
};

/// CheapBFT client: sends to the primary, panics the cluster on timeout,
/// accepts f+1 matching replies.
class CheapBftClient
    : public smr::ClosedLoopClient<CheapBftReplica::RequestMsg,
                                   CheapBftReplica::ReplyMsg> {
 public:
  CheapBftClient(int f, const crypto::KeyRegistry* registry, int ops,
                 std::string key = "x",
                 sim::Duration retry = 400 * sim::kMillisecond)
      : ClosedLoopClient(2 * f + 1, f + 1, 0, ops, std::move(key), retry,
                         registry) {}

 private:
  void Retry() override;
};

}  // namespace consensus40::cheapbft

#endif  // CONSENSUS40_CHEAPBFT_CHEAPBFT_H_
