#ifndef CONSENSUS40_BLOCKCHAIN_POS_H_
#define CONSENSUS40_BLOCKCHAIN_POS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace consensus40::blockchain {

/// A proof-of-stake account.
struct StakeAccount {
  double stake = 0;
  int age_days = 0;  ///< Days since the coins last moved / last won.
};

/// Randomized block selection: "a stakeholder who has p fraction of the
/// coins creates a new block with p probability" — a weighted draw mixing
/// a random number with the stake size.
size_t SelectRandomized(const std::vector<StakeAccount>& accounts, Rng* rng);

/// Coin-age-based selection: weight = stake * age, for eligible accounts.
/// As in the deck, coins compete only after 30 unspent days, and the age
/// bonus saturates at 90 days. Returns the winner's index, or -1 if
/// nobody is eligible.
int SelectByCoinAge(const std::vector<StakeAccount>& accounts, Rng* rng);

/// A proof-of-stake lottery simulator: each Step() advances one day, picks
/// a validator, pays the reward into its stake, and manages coin ages.
class PosSimulator {
 public:
  enum class Mode { kRandomized, kCoinAge };

  PosSimulator(std::vector<StakeAccount> accounts, Mode mode, uint64_t seed);

  /// Runs one selection round (one day). Returns the winner (-1 if none).
  int Step(double reward);

  const std::vector<StakeAccount>& accounts() const { return accounts_; }
  const std::vector<int>& wins() const { return wins_; }

 private:
  std::vector<StakeAccount> accounts_;
  Mode mode_;
  Rng rng_;
  std::vector<int> wins_;
};

}  // namespace consensus40::blockchain

#endif  // CONSENSUS40_BLOCKCHAIN_POS_H_
