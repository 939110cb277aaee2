#ifndef CONSENSUS40_ZYZZYVA_ZYZZYVA_H_
#define CONSENSUS40_ZYZZYVA_ZYZZYVA_H_

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

namespace consensus40::zyzzyva {

/// Configuration shared by all replicas of a Zyzzyva cluster.
struct ZyzzyvaOptions {
  /// Cluster size; must be 3f+1. Replica 0 is the primary (this module
  /// implements the speculative agreement protocol; view changes are out of
  /// scope and documented in DESIGN.md).
  int n = 4;
  const crypto::KeyRegistry* registry = nullptr;
};

/// A Zyzzyva replica (Kotla et al. 2007): replicas speculatively execute in
/// the order proposed by the primary and reply directly to the client; the
/// client is the commit point:
///   case 1 — 3f+1 matching speculative replies: done in 3 message delays;
///   case 2 — between 2f+1 and 3f matching: the client assembles a commit
///            certificate from 2f+1 replies and gathers 2f+1 local-commits.
class ZyzzyvaReplica : public smr::SignedReplica {
 public:
  explicit ZyzzyvaReplica(ZyzzyvaOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "zyz-request"; }
  };

  /// Primary -> replicas: ordered request with history binding.
  struct OrderReqMsg : sim::Message {
    const char* TypeName() const override { return "zyz-order-req"; }
    int ByteSize() const override { return 120 + cmd.ByteSize(); }
    uint64_t seq = 0;
    smr::Command cmd;
    crypto::Signature client_sig;
    crypto::Digest history{};  ///< Hash chain through this request.
    crypto::Signature primary_sig;
  };

  /// Replica -> client: speculative response.
  struct SpecResponseMsg : sim::Message {
    const char* TypeName() const override { return "zyz-spec-response"; }
    int ByteSize() const override {
      return 120 + static_cast<int>(result.size());
    }
    uint64_t seq = 0;
    uint64_t client_seq = 0;
    crypto::Digest history{};
    std::string result;
    int32_t replica = -1;
    crypto::Signature sig;  ///< Over (seq, history, result digest).

    crypto::Digest SigningDigest() const;
  };

  /// Client -> replicas: commit certificate (case 2).
  struct CommitMsg : sim::Message {
    const char* TypeName() const override { return "zyz-commit"; }
    int ByteSize() const override {
      return 32 + static_cast<int>(certificate.size()) * 104;
    }
    uint64_t seq = 0;
    crypto::Digest history{};
    /// 2f+1 matching speculative-response signatures.
    std::vector<crypto::Signature> certificate;
    std::vector<int32_t> signers;
  };

  /// Replica -> client: acknowledgment of a valid commit certificate.
  struct LocalCommitMsg : sim::Message {
    const char* TypeName() const override { return "zyz-local-commit"; }
    int ByteSize() const override { return 48; }
    uint64_t seq = 0;
    uint64_t client_seq = 0;
    int32_t replica = -1;
  };

  bool IsPrimary() const { return id() == 0; }
  uint64_t max_committed_certificate() const { return max_cc_; }
  const crypto::Digest& history() const { return history_; }

  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 protected:
  /// Adversary hook for tests.
  virtual bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                            const crypto::Signature& sig);

  ZyzzyvaOptions options_;
  int f_;

 private:
  void SpeculativelyExecute(const OrderReqMsg& order);

  uint64_t next_seq_ = 1;       ///< Primary's order counter.
  uint64_t expected_seq_ = 1;   ///< Replica-side next sequence.
  crypto::Digest history_{};    ///< Running history hash.
  /// Buffered out-of-order order-requests.
  std::map<uint64_t, std::shared_ptr<const OrderReqMsg>> pending_orders_;
  /// (client, client_seq) -> assigned seq at primary.
  std::map<std::pair<int32_t, uint64_t>, uint64_t> assigned_;
  std::map<uint64_t, std::shared_ptr<const OrderReqMsg>> sent_orders_;
  /// Cached speculative responses for retransmission.
  std::map<std::pair<int32_t, uint64_t>, std::shared_ptr<SpecResponseMsg>>
      spec_cache_;
  uint64_t max_cc_ = 0;  ///< Highest sequence covered by a commit cert.
};

/// Zyzzyva client: the commitment point of the protocol.
class ZyzzyvaClient : public sim::Process {
 public:
  ZyzzyvaClient(int n, const crypto::KeyRegistry* registry, int ops,
                std::string key = "x",
                sim::Duration commit_timeout = 60 * sim::kMillisecond,
                sim::Duration retry = 500 * sim::kMillisecond);

  int completed() const { return completed_; }
  bool done() const { return completed_ >= ops_; }
  const std::vector<std::string>& results() const { return results_; }
  /// How many requests completed via case 1 / case 2.
  int case1_completions() const { return case1_; }
  int case2_completions() const { return case2_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct ResponseKey {
    uint64_t seq;
    crypto::Digest history;
    std::string result;
    bool operator<(const ResponseKey& o) const {
      if (seq != o.seq) return seq < o.seq;
      if (history != o.history) return history < o.history;
      return result < o.result;
    }
  };

  void SendCurrent();
  void Finish(const std::string& result, bool case1);

  int n_;
  const crypto::KeyRegistry* registry_;
  int f_;
  int ops_;
  std::string key_;
  sim::Duration commit_timeout_;
  sim::Duration retry_;
  int completed_ = 0;
  uint64_t seq_ = 0;
  uint64_t retry_timer_ = 0;
  uint64_t commit_timer_ = 0;
  bool commit_sent_ = false;
  std::map<ResponseKey,
           std::map<sim::NodeId, std::shared_ptr<const ZyzzyvaReplica::SpecResponseMsg>>>
      responses_;
  std::set<sim::NodeId> local_commits_;
  std::string committing_result_;
  int case1_ = 0;
  int case2_ = 0;
  std::vector<std::string> results_;
};

}  // namespace consensus40::zyzzyva

#endif  // CONSENSUS40_ZYZZYVA_ZYZZYVA_H_
