#ifndef CONSENSUS40_HOTSTUFF_HOTSTUFF_H_
#define CONSENSUS40_HOTSTUFF_HOTSTUFF_H_

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

namespace consensus40::hotstuff {

/// A quorum certificate: 2f+1 vote shares over one block, modelled as a
/// combined threshold signature (O(1) bytes on the wire).
struct QuorumCert {
  crypto::Digest block_hash{};
  uint64_t view = 0;
  crypto::AggregateCertificate cert;

  /// Genesis QC (view 0, zero hash) verifies trivially.
  bool Verify(const crypto::KeyRegistry& registry, int quorum) const;
};

/// A block in the HotStuff chain. height == the view that proposed it.
struct Block {
  uint64_t height = 0;
  crypto::Digest parent{};
  std::vector<smr::Command> cmds;
  std::vector<crypto::Signature> cmd_sigs;
  QuorumCert justify;

  crypto::Digest Hash() const;
  int ByteSize() const;
};

/// Configuration shared by all replicas of a HotStuff cluster.
struct HotStuffOptions {
  /// Cluster size; must be 3f+1. Leader of view v is v % n — the deck's
  /// "leader rotation: a leader is rotated after a single attempt".
  int n = 4;
  const crypto::KeyRegistry* registry = nullptr;

  /// Max commands batched into one block.
  int batch_size = 8;
};

/// A chained HotStuff replica (Yin et al. 2019): one generic phase per
/// view; each phase of the 4-phase basic protocol is carried by a
/// different block of the pipeline (the deck's pipeline figure). Linear
/// message complexity: leader -> all proposals, all -> next-leader votes,
/// vote aggregation via threshold certificates.
class HotStuffReplica : public smr::SignedReplica {
 public:
  explicit HotStuffReplica(HotStuffOptions options);

  struct RequestMsg : smr::SignedRequestMsg {
    using smr::SignedRequestMsg::SignedRequestMsg;
    const char* TypeName() const override { return "hs-request"; }
  };
  struct ReplyMsg : smr::SignedReplyMsg {
    using smr::SignedReplyMsg::SignedReplyMsg;
    const char* TypeName() const override { return "hs-reply"; }
  };
  struct ProposalMsg : sim::Message {
    const char* TypeName() const override { return "hs-proposal"; }
    int ByteSize() const override { return block.ByteSize(); }
    Block block;
  };
  struct VoteMsg : sim::Message {
    const char* TypeName() const override { return "hs-vote"; }
    int ByteSize() const override { return 88; }
    crypto::Digest block_hash{};
    uint64_t view = 0;
    crypto::Signature share;
  };
  struct NewViewMsg : sim::Message {
    const char* TypeName() const override { return "hs-new-view"; }
    int ByteSize() const override {
      return 24 + crypto::AggregateCertificate::kCombinedByteSize;
    }
    uint64_t view = 0;  ///< The view the sender is entering.
    QuorumCert high_qc;
  };

  uint64_t current_view() const { return cur_view_; }
  sim::NodeId LeaderOf(uint64_t view) const { return view % options_.n; }
  uint64_t last_committed_height() const { return last_committed_height_; }
  int blocks_proposed() const { return blocks_proposed_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  bool SafeNode(const Block& block) const;
  void TryPropose();
  void ProcessBlock(const Block& block);
  void CommitChainUpTo(const crypto::Digest& hash);
  /// True iff `hash` is the committed head or one of its ancestors.
  /// `height` bounds the walk: blocks strictly descend in height, so once
  /// the cursor is at or below `hash`'s height without matching, it never
  /// will.
  bool IsCommittedAncestor(const crypto::Digest& hash, uint64_t height) const;
  void AdvanceView(uint64_t view);
  void ResetViewTimer();
  const Block* GetBlock(const crypto::Digest& hash) const;

  HotStuffOptions options_;
  int f_;
  int quorum_;

  uint64_t cur_view_ = 1;
  uint64_t last_voted_height_ = 0;
  QuorumCert high_qc_;    ///< Highest known QC (one-chain head).
  QuorumCert locked_qc_;  ///< Two-chain head: the lock.
  std::map<crypto::Digest, Block> blocks_;
  crypto::Digest last_committed_hash_{};  ///< Genesis initially.
  uint64_t last_committed_height_ = 0;

  /// Leader-side vote collection: (view, block hash) -> shares.
  std::map<std::pair<uint64_t, crypto::Digest>,
           std::map<sim::NodeId, crypto::Signature>>
      votes_;
  /// New-view collection per view.
  std::map<uint64_t, std::map<sim::NodeId, QuorumCert>> new_views_;
  std::set<uint64_t> proposed_views_;

  std::deque<std::pair<smr::Command, crypto::Signature>> pending_;
  std::set<std::pair<int32_t, uint64_t>> pending_keys_;

  uint64_t view_timer_ = 0;
  int blocks_proposed_ = 0;
};

/// HotStuff client: broadcasts requests (the leader rotates constantly),
/// accepts f+1 matching replies.
class HotStuffClient
    : public smr::ClosedLoopClient<HotStuffReplica::RequestMsg,
                                   HotStuffReplica::ReplyMsg> {
 public:
  HotStuffClient(int n, const crypto::KeyRegistry* registry, int ops,
                 std::string key = "x",
                 sim::Duration retry = 800 * sim::kMillisecond)
      : ClosedLoopClient(n, (n - 1) / 3 + 1, smr::kAllMembers, ops,
                         std::move(key), retry, registry) {}
};

}  // namespace consensus40::hotstuff

#endif  // CONSENSUS40_HOTSTUFF_HOTSTUFF_H_
