/// \file
/// The client side of state machine replication, shared by every SMR
/// protocol here: the request/reply payloads of both fault models and
/// the one closed-loop client.
///
/// In the paper's taxonomy every SMR protocol gives its client the same
/// role. The client sends its request to the leader or primary, re-sends
/// when nothing comes back, and accepts a result once enough replicas
/// report it: one under crash faults, f+1 matching under Byzantine
/// faults. What differs between the protocols follows from the message
/// types the client is built on, not from options:
///
///   - a SignedRequestMsg (Byzantine faults) is signed on every send and
///     re-sent to every member on a timeout; an unsigned
///     ClientRequestMsg (crash faults) carries the cumulative ack and
///     moves on to the next member;
///   - a reply that carries a `view` steers the next request to that
///     view's primary; a ClientReplyMsg follows kRedirect to its
///     leader_hint and otherwise sticks to the member that answered.

#ifndef CONSENSUS40_SMR_CLIENT_H_
#define CONSENSUS40_SMR_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "smr/command.h"

namespace consensus40::smr {

/// Reply result telling a client to retry against the hinted leader. A
/// wire constant shared by every replica, client, and group facade.
inline constexpr char kRedirect[] = "\x01REDIRECT";

/// Crash-fault client request and reply payloads. Each protocol derives
/// its own wire type from these and names it (TypeName).
struct ClientRequestMsg : sim::Message {
  explicit ClientRequestMsg(Command c) : cmd(std::move(c)) {}
  int ByteSize() const override { return 8 + cmd.ByteSize(); }
  Command cmd;
};
struct ClientReplyMsg : sim::Message {
  ClientReplyMsg(uint64_t s, std::string r, sim::NodeId hint)
      : client_seq(s), result(std::move(r)), leader_hint(hint) {}
  int ByteSize() const override {
    return 16 + static_cast<int>(result.size());
  }
  uint64_t client_seq;
  std::string result;
  sim::NodeId leader_hint;
};

/// Byzantine-fault client request and reply payloads, derived and named
/// per protocol like the crash-fault ones.
struct SignedRequestMsg : sim::Message {
  SignedRequestMsg(Command c, crypto::Signature s)
      : cmd(std::move(c)), client_sig(s) {}
  int ByteSize() const override { return 48 + cmd.ByteSize(); }
  Command cmd;
  /// Client's signature over cmd.Hash(): a Byzantine primary can reorder
  /// or drop requests but never fabricate one.
  crypto::Signature client_sig;
};
struct SignedReplyMsg : sim::Message {
  SignedReplyMsg(uint64_t s, int32_t r, std::string res)
      : client_seq(s), replica(r), result(std::move(res)) {}
  int ByteSize() const override {
    return 24 + static_cast<int>(result.size());
  }
  uint64_t client_seq;
  int32_t replica;
  std::string result;
};

/// First target of a client that sends every request to all members.
inline constexpr sim::NodeId kAllMembers = -1;

/// Closed-loop client: issues `ops` commands "INC <key>" one at a time
/// against members 0..n-1 (see the file comment for what Request and
/// Reply decide). Each protocol derives a thin client that fixes n, the
/// matching replies needed and the first target.
template <typename Request, typename Reply>
class ClosedLoopClient : public sim::Process {
 public:
  int completed() const { return completed_; }
  bool done() const { return completed_ >= ops_; }
  const std::vector<std::string>& results() const { return results_; }

  void OnStart() override {
    seq_ = 1;
    SendCurrent(false);
  }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const Reply*>(&msg);
    if (m == nullptr || m->client_seq != seq_ || done()) return;
    if constexpr (!kSigned) {
      if (m->result == kRedirect) {
        const sim::NodeId hint = m->leader_hint;
        if (hint >= 0 && hint < n_ && hint != from) {
          target_ = hint;
          SendCurrent(false);
        }
        return;
      }
    }
    std::set<sim::NodeId>& votes = votes_[m->result];
    votes.insert(from);
    if constexpr (!kSigned) {
      target_ = from;
    } else if constexpr (requires { m->view; }) {
      target_ = static_cast<sim::NodeId>(m->view % n_);
    }
    // Under Byzantine faults f+1 matching replies include a correct one.
    if (static_cast<int>(votes.size()) < quorum_) return;
    results_.push_back(m->result);
    votes_.clear();
    ++completed_;
    ++seq_;
    if (done()) {
      CancelTimer(retry_timer_);
    } else {
      SendCurrent(false);
    }
  }

 protected:
  /// `quorum` matching replies complete an op; the first request goes to
  /// `first` (kAllMembers: to every member). `registry` signs requests
  /// under Byzantine faults.
  ClosedLoopClient(int n, int quorum, sim::NodeId first, int ops,
                   std::string key, sim::Duration retry,
                   const crypto::KeyRegistry* registry = nullptr)
      : n_(n),
        quorum_(quorum),
        ops_(ops),
        key_(std::move(key)),
        retry_(retry),
        registry_(registry),
        target_(first) {}

  int n() const { return n_; }

  /// The retry timer fired with the current op unanswered.
  virtual void Retry() {
    if constexpr (kSigned) {
      SendCurrent(true);
    } else {
      target_ = (target_ + 1) % n_;
      SendCurrent(false);
    }
  }

 private:
  static constexpr bool kSigned = std::is_base_of_v<SignedRequestMsg, Request>;
  static_assert(kSigned ? std::is_base_of_v<SignedReplyMsg, Reply>
                        : std::is_base_of_v<ClientRequestMsg, Request> &&
                              std::is_base_of_v<ClientReplyMsg, Reply>,
                "requests and replies come from one fault model");

  void SendCurrent(bool to_all) {
    if (done()) return;
    Command cmd{id(), seq_, "INC " + key_};
    if constexpr (kSigned) {
      const crypto::Signature sig = registry_->Sign(id(), cmd.Hash());
      if (to_all || target_ == kAllMembers) {
        for (int i = 0; i < n_; ++i) {
          Send(i, std::make_shared<Request>(cmd, sig));
        }
      } else {
        Send(target_, std::make_shared<Request>(cmd, sig));
      }
    } else {
      cmd.acked = seq_ - 1;  // Closed loop: every earlier reply was consumed.
      Send(target_, std::make_shared<Request>(std::move(cmd)));
    }
    CancelTimer(retry_timer_);
    retry_timer_ = SetTimer(retry_, [this] { Retry(); });
  }

  int n_;
  int quorum_;
  int ops_;
  std::string key_;
  sim::Duration retry_;
  const crypto::KeyRegistry* registry_;
  sim::NodeId target_;
  int completed_ = 0;
  uint64_t seq_ = 0;
  uint64_t retry_timer_ = 0;
  /// result -> replicas that reported it for the current seq.
  std::map<std::string, std::set<sim::NodeId>> votes_;
  std::vector<std::string> results_;
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_CLIENT_H_
