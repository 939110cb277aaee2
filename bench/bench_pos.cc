// F22 — Proof of stake: stake-proportional randomized selection and the
// coin-age variant (30-day eligibility, 90-day saturation, winner resets).

#include <cstdio>

#include "blockchain/pos.h"
#include "common/table.h"

using namespace consensus40;
using namespace consensus40::blockchain;

int main() {
  std::printf("==== F22: proof of stake ====\n\n");

  std::printf("-- randomized selection: win rate tracks stake --\n");
  {
    std::vector<StakeAccount> accounts = {{50, 0}, {25, 0}, {15, 0}, {10, 0}};
    Rng rng(11);
    int wins[4] = {0, 0, 0, 0};
    const int kRounds = 50000;
    for (int i = 0; i < kRounds; ++i) {
      ++wins[SelectRandomized(accounts, &rng)];
    }
    TextTable t({"account", "stake share", "win share"});
    for (int i = 0; i < 4; ++i) {
      t.AddRow({"validator " + std::to_string(i),
                TextTable::Num(accounts[i].stake, 0) + "%",
                TextTable::Num(100.0 * wins[i] / kRounds, 1) + "%"});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("'A stakeholder who has p fraction of the coins creates a\n"
                "new block with p probability' — verified to ~0.3%%.\n\n");
  }

  std::printf("-- the rich-get-richer loop, with and without coin-age --\n");
  {
    std::vector<StakeAccount> initial = {{60, 30}, {30, 30}, {10, 30}};
    PosSimulator randomized(initial, PosSimulator::Mode::kRandomized, 21);
    PosSimulator coinage(initial, PosSimulator::Mode::kCoinAge, 21);
    const int kDays = 5000;
    int rwins[3] = {0, 0, 0}, cwins[3] = {0, 0, 0};
    for (int day = 0; day < kDays; ++day) {
      int r = randomized.Step(1.0);  // Each block mints 1 coin of reward.
      if (r >= 0) ++rwins[r];
      int c = coinage.Step(1.0);
      if (c >= 0) ++cwins[c];
    }
    TextTable t({"account", "initial stake", "randomized: wins / final stake",
                 "coin-age: wins / final stake"});
    for (int i = 0; i < 3; ++i) {
      t.AddRow({"validator " + std::to_string(i),
                TextTable::Num(initial[i].stake, 0),
                TextTable::Int(rwins[i]) + " / " +
                    TextTable::Num(randomized.accounts()[i].stake, 0),
                TextTable::Int(cwins[i]) + " / " +
                    TextTable::Num(coinage.accounts()[i].stake, 0)});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Pure stake-weighted selection compounds: the 60%% whale\n"
                "collects ~60%% of all rewards forever. Coin-age selection\n"
                "(eligible after 30 days, weight saturates at 90, winners'\n"
                "age resets to zero) spreads wins almost evenly — the\n"
                "deck's answer to 'don't the rich get richer?'.\n\n");
  }

  std::printf("-- coin-age eligibility window in action --\n");
  {
    TextTable t({"day", "whale age", "minnow age", "eligible", "winner"});
    PosSimulator pos({{90, 29}, {10, 29}}, PosSimulator::Mode::kCoinAge, 5);
    for (int day = 0; day < 8; ++day) {
      const auto& a = pos.accounts();
      std::string eligible;
      if (a[0].age_days >= 30) eligible += "whale ";
      if (a[1].age_days >= 30) eligible += "minnow";
      if (eligible.empty()) eligible = "nobody";
      int age0 = a[0].age_days, age1 = a[1].age_days;
      int w = pos.Step(0);
      t.AddRow({TextTable::Int(day), TextTable::Int(age0),
                TextTable::Int(age1), eligible,
                w < 0 ? "-" : (w == 0 ? "whale" : "minnow")});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("'Coins that have been unspent for at least 30 days begin\n"
                "competing for the next block' — after a win the clock\n"
                "restarts, benching the winner.\n");
  }
  return 0;
}
