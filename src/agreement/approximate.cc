#include "agreement/approximate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace consensus40::agreement {

namespace {

/// Upper bound on rounds (safety net for tests).
constexpr int kMaxRounds = 64;

}  // namespace

int RoundsForSpread(double spread, double epsilon) {
  assert(epsilon > 0);
  int rounds = 0;
  while (spread > epsilon) {
    spread /= 2;
    ++rounds;
  }
  return rounds;
}

struct ApproxAgreementNode::ValueMsg : sim::Message {
  const char* TypeName() const override { return "approx-value"; }
  int ByteSize() const override { return 20; }
  int round = 0;
  double value = 0;
};

ApproxAgreementNode::ApproxAgreementNode(ApproxOptions options,
                                         double initial_value,
                                         int rounds_to_run)
    : options_(options), value_(initial_value), rounds_to_run_(rounds_to_run) {
  assert(options_.n > 0);
  f_ = (options_.n - 1) / 3;
}

std::vector<sim::NodeId> ApproxAgreementNode::Everyone() const {
  std::vector<sim::NodeId> all;
  for (int i = 0; i < options_.n; ++i) all.push_back(i);
  return all;
}

void ApproxAgreementNode::OnStart() { StartRound(); }

void ApproxAgreementNode::StartRound() {
  if (round_ > rounds_to_run_ || round_ > kMaxRounds) {
    halted_ = true;
    return;
  }
  auto msg = std::make_shared<ValueMsg>();
  msg->round = round_;
  msg->value = value_;
  Multicast(Everyone(), msg);
  MaybeFinishRound();
}

void ApproxAgreementNode::MaybeFinishRound() {
  if (halted_) return;
  auto& received = received_[round_];
  if (static_cast<int>(received.size()) < options_.n - f_) return;
  std::vector<double> values;
  values.reserve(received.size());
  for (const auto& [node, v] : received) values.push_back(v);
  std::sort(values.begin(), values.end());
  // Discard the f smallest and f largest (possible faulty extremes), then
  // take the midpoint of what survives.
  double lo = values[f_];
  double hi = values[values.size() - 1 - f_];
  value_ = (lo + hi) / 2;
  ++round_;
  StartRound();
}

void ApproxAgreementNode::OnMessage(sim::NodeId from,
                                    const sim::Message& msg) {
  const auto* m = dynamic_cast<const ValueMsg*>(&msg);
  if (m == nullptr) return;
  received_[m->round][from] = m->value;
  if (m->round == round_) MaybeFinishRound();
}

}  // namespace consensus40::agreement
