#include "blockchain/pos.h"

#include <algorithm>
#include <cassert>

namespace consensus40::blockchain {

namespace {

constexpr int kMinAgeDays = 30;
constexpr int kMaxAgeDays = 90;

}  // namespace

size_t SelectRandomized(const std::vector<StakeAccount>& accounts, Rng* rng) {
  std::vector<double> weights;
  weights.reserve(accounts.size());
  for (const StakeAccount& account : accounts) {
    weights.push_back(std::max(account.stake, 0.0));
  }
  return rng->WeightedIndex(weights);
}

int SelectByCoinAge(const std::vector<StakeAccount>& accounts, Rng* rng) {
  std::vector<double> weights;
  weights.reserve(accounts.size());
  bool any = false;
  for (const StakeAccount& account : accounts) {
    if (account.age_days >= kMinAgeDays && account.stake > 0) {
      int age = std::min(account.age_days, kMaxAgeDays);
      weights.push_back(account.stake * age);
      any = true;
    } else {
      weights.push_back(0);
    }
  }
  if (!any) return -1;
  return static_cast<int>(rng->WeightedIndex(weights));
}

PosSimulator::PosSimulator(std::vector<StakeAccount> accounts, Mode mode,
                           uint64_t seed)
    : accounts_(std::move(accounts)), mode_(mode), rng_(seed) {
  assert(!accounts_.empty());
}

int PosSimulator::Step(double reward) {
  int winner;
  if (mode_ == Mode::kRandomized) {
    winner = static_cast<int>(SelectRandomized(accounts_, &rng_));
  } else {
    winner = SelectByCoinAge(accounts_, &rng_);
  }
  for (auto& account : accounts_) account.age_days += 1;
  if (winner >= 0) {
    accounts_[winner].stake += reward;
    accounts_[winner].age_days = 0;  // Winning "spends" the staked coins.
  }
  wins_.push_back(winner);
  return winner;
}

}  // namespace consensus40::blockchain
