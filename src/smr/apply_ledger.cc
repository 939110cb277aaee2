#include "smr/apply_ledger.h"

#include <algorithm>
#include <utility>

namespace consensus40::smr {

ApplyLedger::ApplyLedger(std::vector<sim::NodeId> members)
    : members_(std::move(members)), frontier_(members_.size(), 0) {}

void ApplyLedger::Applied(int member, uint64_t position, uint64_t digest) {
  if (position >= base_) {
    while (base_ + window_.size() <= position) window_.emplace_back();
    Position& p = window_[position - base_];
    if (p.first < 0) {
      p.digest = digest;
      p.first = member;
    } else if (p.digest != digest && !p.flagged) {
      p.flagged = true;
      violations_.push_back(
          "apply ledger: replicas " +
          std::to_string(members_[static_cast<size_t>(p.first)]) + " and " +
          std::to_string(members_[static_cast<size_t>(member)]) +
          " applied different entries at log position " +
          std::to_string(position));
    }
  }
  Advance(member, position + 1);
}

void ApplyLedger::Skipped(int member, uint64_t frontier) {
  Advance(member, frontier);
}

void ApplyLedger::Advance(int member, uint64_t frontier) {
  uint64_t& mine = frontier_[static_cast<size_t>(member)];
  if (frontier <= mine) return;
  const bool was_lowest = mine == base_;
  mine = frontier;
  if (!was_lowest) return;
  const uint64_t low = *std::min_element(frontier_.begin(), frontier_.end());
  while (base_ < low && !window_.empty()) {
    window_.pop_front();
    ++base_;
  }
  base_ = low;
}

int ApplyLedger::Freshest() const {
  return static_cast<int>(std::max_element(frontier_.begin(), frontier_.end()) -
                          frontier_.begin());
}

}  // namespace consensus40::smr
