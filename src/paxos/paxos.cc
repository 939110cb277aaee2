#include "paxos/paxos.h"

#include <cassert>

namespace consensus40::paxos {

namespace {

/// A stalled attempt (no quorum, no nack — e.g. the other side crashed)
/// is restarted after this long.
constexpr sim::Duration kAttemptTimeout = 100 * sim::kMillisecond;
/// Randomized backoff multiplies the retry delay by Uniform[1, this].
constexpr int kBackoffSpread = 10;

}  // namespace

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct PaxosNode::PrepareMsg : sim::Message {
  explicit PrepareMsg(Ballot b) : ballot(b) {}
  const char* TypeName() const override { return "prepare"; }
  int ByteSize() const override { return 24; }
  Ballot ballot;
};

struct PaxosNode::PrepareAckMsg : sim::Message {
  PrepareAckMsg(Ballot b, Ballot an, std::optional<std::string> av)
      : ballot(b), accept_num(an), accept_val(std::move(av)) {}
  const char* TypeName() const override { return "prepare-ack"; }
  int ByteSize() const override {
    return 40 + static_cast<int>(accept_val ? accept_val->size() : 0);
  }
  Ballot ballot;
  Ballot accept_num;
  std::optional<std::string> accept_val;
};

struct PaxosNode::AcceptMsg : sim::Message {
  AcceptMsg(Ballot b, std::string v) : ballot(b), value(std::move(v)) {}
  const char* TypeName() const override { return "accept"; }
  int ByteSize() const override { return 24 + static_cast<int>(value.size()); }
  Ballot ballot;
  std::string value;
};

struct PaxosNode::AcceptedMsg : sim::Message {
  explicit AcceptedMsg(Ballot b) : ballot(b) {}
  const char* TypeName() const override { return "accepted"; }
  int ByteSize() const override { return 24; }
  Ballot ballot;
};

struct PaxosNode::NackMsg : sim::Message {
  NackMsg(Ballot promised_ballot, Ballot rejected_ballot)
      : promised(promised_ballot), rejected(rejected_ballot) {}
  const char* TypeName() const override { return "nack"; }
  int ByteSize() const override { return 40; }
  Ballot promised;
  Ballot rejected;  ///< The proposer ballot this nack preempts.
};

struct PaxosNode::DecideMsg : sim::Message {
  explicit DecideMsg(std::string v) : value(std::move(v)) {}
  const char* TypeName() const override { return "decide"; }
  int ByteSize() const override { return 16 + static_cast<int>(value.size()); }
  std::string value;
};

struct PaxosNode::LearnMsg : sim::Message {
  const char* TypeName() const override { return "learn"; }
  int ByteSize() const override { return 8; }
};

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

PaxosNode::PaxosNode(PaxosOptions options) : options_(options) {
  assert(options_.n > 0);
  q1_ = options_.q1 > 0 ? options_.q1 : options_.n / 2 + 1;
  q2_ = options_.q2 > 0 ? options_.q2 : options_.n / 2 + 1;
}

std::vector<sim::NodeId> PaxosNode::Everyone() const {
  std::vector<sim::NodeId> all;
  all.reserve(options_.n);
  for (int i = 0; i < options_.n; ++i) all.push_back(i);
  return all;
}

void PaxosNode::Propose(std::string value) {
  my_value_ = std::move(value);
  if (decided_ || proposing_) return;
  proposing_ = true;
  StartPhase1();
}

void PaxosNode::StartPhase1() {
  if (decided_ || !proposing_) return;
  // Choose a ballot strictly above everything seen: <max.num+1, myId>.
  Ballot base = std::max(max_seen_, ballot_num_);
  my_ballot_ = Ballot::Successor(base, id());
  max_seen_ = my_ballot_;
  phase_ = 1;
  promises_.clear();
  accepts_.clear();
  ++prepare_attempts_;
  Multicast(Everyone(), std::make_shared<PrepareMsg>(my_ballot_));
  // Liveness fallback: if this attempt stalls entirely (e.g. quorum
  // unreachable), start over after the attempt timeout.
  CancelTimer(retry_timer_);
  retry_timer_ = SetTimer(kAttemptTimeout, [this] {
    if (!decided_ && proposing_) StartPhase1();
  });
}

void PaxosNode::ScheduleRetry(sim::Duration base_delay) {
  CancelTimer(retry_timer_);
  sim::Duration d = base_delay;
  if (options_.randomized_backoff) {
    d *= 1 + static_cast<sim::Duration>(
                 rng().NextBounded(kBackoffSpread));
  }
  retry_timer_ = SetTimer(d, [this] {
    if (!decided_ && proposing_) StartPhase1();
  });
}

void PaxosNode::MaybeFinishPhase1() {
  if (phase_ != 1) return;
  if (options_.quorum_system != nullptr) {
    core::NodeSet promisers;
    for (const auto& [from, promise] : promises_) promisers.insert(from);
    if (!options_.quorum_system->IsElectionQuorum(promisers)) return;
  } else if (static_cast<int>(promises_.size()) < q1_) {
    return;
  }
  // Propose the value accepted in the highest ballot, if any; otherwise our
  // own initial value ("the value accepted in the highest ballot might have
  // been decided, I better propose this value").
  Ballot best;
  std::optional<std::string> recovered;
  for (const auto& [from, promise] : promises_) {
    const auto& [an, av] = promise;
    if (av && an >= best) {
      best = an;
      recovered = av;
    }
  }
  proposal_value_ = recovered ? *recovered : *my_value_;
  phase_ = 2;
  accepts_.clear();
  Multicast(Everyone(),
            std::make_shared<AcceptMsg>(my_ballot_, proposal_value_));
}

void PaxosNode::Decide(const std::string& value) {
  if (decided_) {
    if (*decided_ != value) {
      violations_.push_back("decision changed from '" + *decided_ + "' to '" +
                            value + "'");
    }
    return;
  }
  decided_ = value;
  CancelTimer(retry_timer_);
  proposing_ = false;
  phase_ = 0;
}

void PaxosNode::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (decided_) {
    // A decided learner only answers with the decision (stable property).
    if (dynamic_cast<const PrepareMsg*>(&msg) != nullptr ||
        dynamic_cast<const LearnMsg*>(&msg) != nullptr) {
      Send(from, std::make_shared<DecideMsg>(*decided_));
    }
    if (const auto* d = dynamic_cast<const DecideMsg*>(&msg)) Decide(d->value);
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    max_seen_ = std::max(max_seen_, m->ballot);
    if (m->ballot >= ballot_num_) {
      // Join the ballot: promise not to accept anything smaller.
      ballot_num_ = m->ballot;
      Send(from, std::make_shared<PrepareAckMsg>(m->ballot, accept_num_,
                                                 accept_val_));
    } else {
      Send(from, std::make_shared<NackMsg>(ballot_num_, m->ballot));
    }
    return;
  }

  if (const auto* m = dynamic_cast<const PrepareAckMsg*>(&msg)) {
    if (phase_ == 1 && m->ballot == my_ballot_) {
      promises_[from] = {m->accept_num, m->accept_val};
      MaybeFinishPhase1();
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptMsg*>(&msg)) {
    max_seen_ = std::max(max_seen_, m->ballot);
    if (m->ballot >= ballot_num_) {
      ballot_num_ = m->ballot;
      accept_num_ = m->ballot;
      accept_val_ = m->value;
      Send(from, std::make_shared<AcceptedMsg>(m->ballot));
    } else {
      Send(from, std::make_shared<NackMsg>(ballot_num_, m->ballot));
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptedMsg*>(&msg)) {
    if (phase_ == 2 && m->ballot == my_ballot_) {
      accepts_.insert(from);
      bool quorum;
      if (options_.quorum_system != nullptr) {
        quorum = options_.quorum_system->IsReplicationQuorum(
            core::NodeSet(accepts_.begin(), accepts_.end()));
      } else {
        quorum = static_cast<int>(accepts_.size()) >= q2_;
      }
      if (quorum) {
        // Chosen! Learn it and propagate the decision asynchronously.
        Multicast(Everyone(), std::make_shared<DecideMsg>(proposal_value_));
        Decide(proposal_value_);
      }
    }
    return;
  }

  if (const auto* m = dynamic_cast<const NackMsg*>(&msg)) {
    max_seen_ = std::max(max_seen_, m->promised);
    // Only a nack against the *current* attempt preempts; stale nacks from
    // earlier ballots are ignored.
    if (proposing_ && phase_ != 0 && m->rejected == my_ballot_) {
      phase_ = 0;
      ScheduleRetry(options_.retry_delay);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const DecideMsg*>(&msg)) {
    Decide(m->value);
    return;
  }

  // LearnMsg from an undecided node: nothing to share (we are undecided too;
  // decided nodes answer from the early-return path above).
}

void PaxosNode::OnRestart() {
  // Acceptor state (ballot_num_, accept_num_, accept_val_) is stable and
  // survives; proposer bookkeeping is volatile.
  proposing_ = false;
  phase_ = 0;
  promises_.clear();
  accepts_.clear();
  // Catch up: ask the cluster whether a decision was reached while down.
  if (!decided_) Multicast(Everyone(), std::make_shared<LearnMsg>());
}

}  // namespace consensus40::paxos
