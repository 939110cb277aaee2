#ifndef CONSENSUS40_AGREEMENT_APPROXIMATE_H_
#define CONSENSUS40_AGREEMENT_APPROXIMATE_H_

#include <map>
#include <optional>
#include <vector>

#include "sim/simulation.h"

namespace consensus40::agreement {

/// Configuration for an approximate-agreement node.
struct ApproxOptions {
  /// Cluster size; tolerates f < n/3 crash faults in this asynchronous
  /// variant (the mean-of-middle reduction needs 2f+1 <= collected).
  int n = 0;
  /// Convergence threshold: nodes halt once their value is provably within
  /// epsilon of every other correct node's.
  double epsilon = 0.01;
};

/// Asynchronous approximate agreement (Dolev, Lynch, Pinter, Stark, Weihl
/// 1986 — the deck's fourth FLP circumvention: "change the problem
/// domain"). Exact agreement is impossible deterministically under
/// asynchrony, but agreement *to within epsilon* is solvable: each round a
/// node broadcasts its value, collects n-f, discards the f lowest and f
/// highest, and averages the rest. The spread of correct values at least
/// halves per round, so ceil(log2(spread/epsilon)) rounds suffice.
class ApproxAgreementNode : public sim::Process {
 public:
  ApproxAgreementNode(ApproxOptions options, double initial_value,
                      int rounds_to_run);

  double value() const { return value_; }
  bool halted() const { return halted_; }
  int round() const { return round_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct ValueMsg;

  void StartRound();
  void MaybeFinishRound();
  std::vector<sim::NodeId> Everyone() const;

  ApproxOptions options_;
  int f_;
  double value_;
  int rounds_to_run_;
  int round_ = 1;
  bool halted_ = false;
  /// round -> sender -> value (asynchrony delivers across rounds).
  std::map<int, std::map<sim::NodeId, double>> received_;
};

/// The number of rounds that provably brings an initial spread down to
/// epsilon: each averaging round at least halves the correct-value range.
int RoundsForSpread(double spread, double epsilon);

}  // namespace consensus40::agreement

#endif  // CONSENSUS40_AGREEMENT_APPROXIMATE_H_
