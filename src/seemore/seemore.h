#ifndef CONSENSUS40_SEEMORE_SEEMORE_H_
#define CONSENSUS40_SEEMORE_SEEMORE_H_

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

namespace consensus40::seemore {

/// SeeMoRe's three operating modes (Amiri et al. 2019).
enum class SeeMoReMode {
  /// Trusted primary in the private cloud, centralized decision making:
  /// 2 phases, O(n) messages, quorum 2m+c+1 over all nodes.
  kMode1,
  /// Trusted primary, decentralized decision making among 3m+1 public
  /// proxies: 2 phases, O(n^2) proxy gossip, quorum 2m+1.
  kMode2,
  /// Untrusted primary in the public cloud: adds a validation phase —
  /// 3 phases, O(n^2), quorum 2m+1 among proxies.
  kMode3,
};

const char* ToString(SeeMoReMode mode);

/// Cluster layout: nodes 0..private_n-1 live in the private (crash-only)
/// cloud, the rest in the public (Byzantine) cloud. Total = 3m + 2c + 1.
struct SeeMoReOptions {
  int m = 1;  ///< Max Byzantine faults (public cloud).
  int c = 1;  ///< Max crash faults (private cloud).
  SeeMoReMode mode = SeeMoReMode::kMode1;
  const crypto::KeyRegistry* registry = nullptr;

  int n() const { return 3 * m + 2 * c + 1; }
  /// Private cloud hosts the 2c crash-prone trusted nodes; the public cloud
  /// holds the remaining 3m+1 — exactly the proxy set of modes 2/3.
  /// Modes 1/2 need c >= 1 (a trusted primary must exist).
  int private_n() const { return 2 * c; }
  /// Proxies (modes 2/3): the 3m+1 public-cloud nodes.
  int proxy_count() const { return 3 * m + 1; }
  /// Modes 1/2: a trusted (private-cloud) primary; mode 3: the first
  /// public-cloud node.
  sim::NodeId primary() const {
    return mode == SeeMoReMode::kMode3 ? private_n() : 0;
  }
};

/// A SeeMoRe replica. All three modes share the same class; the mode picks
/// the primary's location, the decision quorum, and the phase structure.
/// View changes are out of scope (documented in DESIGN.md) — the module
/// reproduces the deck's per-mode message-flow, quorum, and load figures.
class SeeMoReReplica : public smr::SignedReplica {
 public:
  explicit SeeMoReReplica(SeeMoReOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "smr-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    using smr::SignedReplyMsg::SignedReplyMsg;
    const char* TypeName() const override { return "smr-reply"; }
  };
  struct ProposeMsg : sim::Message {
    const char* TypeName() const override { return "smr-propose"; }
    int ByteSize() const override { return 96 + cmd.ByteSize(); }
    uint64_t seq = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Signature primary_sig;
  };
  /// Mode 3 validation votes (proxies agree the primary did not
  /// equivocate on this sequence number).
  struct ValidateMsg : sim::Message {
    const char* TypeName() const override { return "smr-validate"; }
    int ByteSize() const override { return 88; }
    uint64_t seq = 0;
    crypto::Digest digest{};
    int32_t replica = -1;
    crypto::Signature sig;
  };
  /// Acceptance votes (phase 2): to the primary in mode 1, among proxies
  /// in modes 2/3.
  struct AcceptMsg : sim::Message {
    const char* TypeName() const override { return "smr-accept"; }
    int ByteSize() const override { return 88; }
    uint64_t seq = 0;
    crypto::Digest digest{};
    int32_t replica = -1;
    crypto::Signature sig;
  };
  /// Decision propagation.
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "smr-commit"; }
    int ByteSize() const override { return 56 + cmd.ByteSize(); }
    uint64_t seq = 0;
    smr::Command cmd;
  };

  bool IsPrivate() const { return id() < options_.private_n(); }
  bool IsProxy() const;
  sim::NodeId Primary() const { return options_.primary(); }
  bool IsPrimary() const { return id() == Primary(); }
  int DecisionQuorum() const;
  uint64_t executed() const { return executed_commands().size(); }
  /// Messages this replica has sent (private-cloud load metric).
  uint64_t messages_sent() const { return messages_sent_; }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 protected:
  /// Adversary hook for mode-3 tests.
  virtual bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                            const crypto::Signature& sig);

  /// Counting wrapper around Process::Send.
  void CountedSend(sim::NodeId to, sim::MessagePtr msg);
  void CountedMulticast(const std::vector<sim::NodeId>& targets,
                        const sim::MessagePtr& msg);

  SeeMoReOptions options_;

 private:
  struct Slot {
    bool proposed = false;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Digest digest{};
    std::set<sim::NodeId> validations;
    bool validated = false;
    bool sent_accept = false;
    std::set<sim::NodeId> accepts;
    bool decided = false;
    bool executed = false;
  };

  std::vector<sim::NodeId> Proxies() const;
  void Decide(uint64_t seq, const smr::Command& cmd);
  void MaybeExecute();
  void SendAccept(uint64_t seq, Slot& slot);

  uint64_t next_seq_ = 1;
  uint64_t exec_cursor_ = 1;
  std::map<uint64_t, Slot> slots_;
  uint64_t messages_sent_ = 0;

  /// Commit adoption votes for non-deciding nodes (modes 2/3).
  std::map<uint64_t, std::map<crypto::Digest, std::set<sim::NodeId>>>
      commit_votes_;
};

/// SeeMoRe client: m+1 matching replies guarantee one correct reporter.
class SeeMoReClient
    : public smr::ClosedLoopClient<SeeMoReReplica::RequestMsg,
                                   SeeMoReReplica::ReplyMsg> {
 public:
  SeeMoReClient(SeeMoReOptions options, int ops, std::string key = "x",
                sim::Duration retry = 500 * sim::kMillisecond)
      : ClosedLoopClient(options.n(), options.m + 1, options.primary(), ops,
                         std::move(key), retry, options.registry) {}
};

}  // namespace consensus40::seemore

#endif  // CONSENSUS40_SEEMORE_SEEMORE_H_
