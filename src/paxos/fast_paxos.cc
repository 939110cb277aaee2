#include "paxos/fast_paxos.h"

#include <algorithm>
#include <cassert>

namespace consensus40::paxos {

namespace {

/// Time the coordinator waits for further Accepted messages before
/// declaring a collision that cannot reach a fast quorum.
constexpr sim::Duration kCollisionTimeout = 50 * sim::kMillisecond;

}  // namespace

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct FastPaxosAcceptor::AnyMsg : sim::Message {
  explicit AnyMsg(int r) : round(r) {}
  const char* TypeName() const override { return "any"; }
  int ByteSize() const override { return 16; }
  int round;
};

struct FastPaxosAcceptor::AcceptedMsg : sim::Message {
  AcceptedMsg(int r, std::string v) : round(r), value(std::move(v)) {}
  const char* TypeName() const override { return "accepted"; }
  int ByteSize() const override { return 20 + static_cast<int>(value.size()); }
  int round;
  std::string value;
};

struct FastPaxosAcceptor::ClassicAcceptMsg : sim::Message {
  ClassicAcceptMsg(int r, std::string v) : round(r), value(std::move(v)) {}
  const char* TypeName() const override { return "classic-accept"; }
  int ByteSize() const override { return 20 + static_cast<int>(value.size()); }
  int round;
  std::string value;
};

// ---------------------------------------------------------------------------
// Acceptor / coordinator
// ---------------------------------------------------------------------------

FastPaxosAcceptor::FastPaxosAcceptor(FastPaxosOptions options)
    : options_(options) {
  assert(options_.n >= 4 && (options_.n - 1) % 3 == 0);
  int f = (options_.n - 1) / 3;
  fast_quorum_ = 2 * f + 1;
  classic_quorum_ = 2 * f + 1;
}

std::vector<sim::NodeId> FastPaxosAcceptor::Acceptors() const {
  std::vector<sim::NodeId> all;
  for (int i = 0; i < options_.n; ++i) all.push_back(i);
  return all;
}

void FastPaxosAcceptor::OnStart() {
  if (IsCoordinator()) {
    // Open round 0 as a fast round: any client value may be accepted.
    current_round_ = 0;
    round_is_fast_ = true;
    Multicast(Acceptors(), std::make_shared<AnyMsg>(current_round_));
  }
}

void FastPaxosAcceptor::Choose(const std::string& value) {
  if (chosen_) return;
  chosen_ = value;
  chosen_at_ = Now();
  CancelTimer(collision_timer_);
  auto commit = std::make_shared<CommitMsg>(value);
  Multicast(Acceptors(), commit);
  for (sim::NodeId client : known_clients_) Send(client, commit);
}

void FastPaxosAcceptor::EvaluateFastRound() {
  if (chosen_ || !round_is_fast_) return;
  // Count the most frequent value among responses in this round.
  std::map<std::string, int> counts;
  int top = 0;
  std::string top_value;
  for (const auto& [acceptor, value] : responses_) {
    int c = ++counts[value];
    if (c > top) {
      top = c;
      top_value = value;
    }
  }
  if (top >= fast_quorum_) {
    Choose(top_value);
    return;
  }
  // Collision is certain once even unanimous remaining votes cannot lift
  // the leader to a fast quorum.
  int outstanding = options_.n - static_cast<int>(responses_.size());
  if (top + outstanding < fast_quorum_) {
    StartClassicRound();
  }
}

void FastPaxosAcceptor::StartClassicRound() {
  if (chosen_) return;
  CancelTimer(collision_timer_);
  // Coordinated recovery: among the values reported in the failed fast
  // round, pick the one with a majority of the responses if there is one
  // (it may have been chosen); otherwise any reported value works — we take
  // the one from the lowest acceptor id for determinism.
  std::map<std::string, int> counts;
  for (const auto& [acceptor, value] : responses_) ++counts[value];
  std::string pick;
  int majority = static_cast<int>(responses_.size()) / 2 + 1;
  for (const auto& [value, count] : counts) {
    if (count >= majority) pick = value;
  }
  if (pick.empty() && !responses_.empty()) {
    pick = responses_.begin()->second;
  }
  ++classic_rounds_;
  ++current_round_;
  round_is_fast_ = false;
  responses_.clear();
  Multicast(Acceptors(),
            std::make_shared<ClassicAcceptMsg>(current_round_, pick));
}

void FastPaxosAcceptor::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const AnyMsg*>(&msg)) {
    if (m->round >= rnd_) {
      rnd_ = m->round;
      any_active_ = true;
    }
    return;
  }

  if (const auto* m = dynamic_cast<const ClientAcceptMsg*>(&msg)) {
    if (IsCoordinator()) known_clients_.insert(from);
    // Fast-round acceptance: with an open Any for rnd_, accept the first
    // client value to arrive in this round.
    if (any_active_ && vrnd_ < rnd_ && !chosen_) {
      vrnd_ = rnd_;
      vval_ = m->value;
      Send(0, std::make_shared<AcceptedMsg>(vrnd_, vval_));
    }
    return;
  }

  if (const auto* m = dynamic_cast<const ClassicAcceptMsg*>(&msg)) {
    if (m->round >= rnd_ && !chosen_) {
      rnd_ = m->round;
      any_active_ = false;  // Classic round: only the coordinator's value.
      vrnd_ = m->round;
      vval_ = m->value;
      Send(0, std::make_shared<AcceptedMsg>(vrnd_, vval_));
    }
    return;
  }

  if (const auto* m = dynamic_cast<const AcceptedMsg*>(&msg)) {
    if (!IsCoordinator() || chosen_ || m->round != current_round_) return;
    responses_[from] = m->value;
    if (round_is_fast_) {
      if (responses_.size() == 1) {
        // Arm the collision timeout on the first response.
        collision_timer_ = SetTimer(kCollisionTimeout, [this] {
          if (!chosen_ && round_is_fast_ &&
              static_cast<int>(responses_.size()) >= classic_quorum_) {
            StartClassicRound();
          }
        });
      }
      EvaluateFastRound();
    } else {
      // Classic round: a classic quorum of identical values decides.
      int count = 0;
      for (const auto& [acceptor, value] : responses_) {
        count += (value == m->value);
      }
      if (count >= classic_quorum_) Choose(m->value);
    }
    return;
  }

  if (const auto* m = dynamic_cast<const CommitMsg*>(&msg)) {
    if (!chosen_) {
      chosen_ = m->value;
      chosen_at_ = Now();
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

FastPaxosClient::FastPaxosClient(int n, std::string value,
                                 sim::Duration send_at)
    : n_(n), value_(std::move(value)), send_at_(send_at) {}

void FastPaxosClient::OnStart() {
  SetTimer(send_at_, [this] {
    for (int i = 0; i < n_; ++i) {
      Send(i, std::make_shared<FastPaxosAcceptor::ClientAcceptMsg>(value_));
    }
  });
}

void FastPaxosClient::OnMessage(sim::NodeId, const sim::Message& msg) {
  if (dynamic_cast<const FastPaxosAcceptor::CommitMsg*>(&msg) != nullptr &&
      done_at_ < 0) {
    done_at_ = Now();
  }
}

}  // namespace consensus40::paxos
