#ifndef CONSENSUS40_SMR_APPLY_LEDGER_H_
#define CONSENSUS40_SMR_APPLY_LEDGER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace consensus40::smr {

/// An online agreement check over the replicas of one log group, kept by
/// the harness (the group facade), not by the replicas: each member
/// reports the digest (Entry::Digest) of every entry it applies, at its
/// log position (0-based: the entries applied before it), and its new
/// frontier when a snapshot install skips it ahead. The first mismatch at
/// each position becomes one violation. A position is forgotten once
/// every member, crashed ones included, has applied or skipped past it,
/// so the ledger holds about the slowest member's lag, not the history.
class ApplyLedger {
 public:
  /// `members` are the reporters' node ids, in member order.
  explicit ApplyLedger(std::vector<sim::NodeId> members);
  // Replicas hold its address.
  ApplyLedger(const ApplyLedger&) = delete;
  ApplyLedger& operator=(const ApplyLedger&) = delete;

  /// Member `member` (an index into the members) applied an entry with
  /// `digest` at `position`.
  void Applied(int member, uint64_t position, uint64_t digest);
  /// Member `member` installed a snapshot covering positions [0, frontier).
  void Skipped(int member, uint64_t frontier);

  const std::vector<std::string>& violations() const { return violations_; }
  /// Positions held: those some member has passed and another has not.
  size_t size() const { return window_.size(); }
  /// Index of the member with the highest frontier (the first on a tie).
  int Freshest() const;

 private:
  struct Position {
    uint64_t digest = 0;
    int first = -1;  ///< Member that reported first; -1 = nobody yet.
    bool flagged = false;
  };

  void Advance(int member, uint64_t frontier);

  std::vector<sim::NodeId> members_;
  /// Per member: every position below it was applied or skipped.
  std::vector<uint64_t> frontier_;
  std::deque<Position> window_;  ///< Positions [base_, base_ + size()).
  uint64_t base_ = 0;            ///< The lowest member frontier.
  std::vector<std::string> violations_;
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_APPLY_LEDGER_H_
