// A miniature permissionless cryptocurrency: miners race real SHA-256
// proof-of-work at low difficulty, gossip blocks, fork, and reconverge on
// the longest chain — the deck's Bitcoin walk-through end to end.
//
//   $ ./crypto_coin

#include <cstdio>

#include "blockchain/block.h"
#include "blockchain/chain.h"
#include "blockchain/miner.h"
#include "blockchain/pos.h"
#include "common/rng.h"
#include "sim/simulation.h"

using namespace consensus40;
using namespace consensus40::blockchain;

int main() {
  std::printf("== consensus40: proof-of-work coin ==\n\n");

  // ---- Part 1: mine a few real blocks with actual SHA-256d ----------
  {
    std::printf("-- real SHA-256d micro-mining (difficulty: 16 zero bits) --\n");
    ChainOptions opts;
    opts.verify_pow = true;
    opts.initial_target = Target::FromLeadingZeroBits(16);
    opts.block_interval_secs = 600;
    opts.retarget_interval = 2016;
    BlockTree tree(opts);

    crypto::Digest tip{};
    Rng rng(7);
    for (int height = 1; height <= 3; ++height) {
      Block block;
      block.header.prev_hash = tip;
      block.header.timestamp = height * 600;
      block.header.target = tree.NextTarget(tip);
      block.miner = 0;
      block.reward = tree.RewardAt(height);
      block.txs.push_back(
          {"pay " + std::to_string(height) + " coins to carol",
           static_cast<int64_t>(height), 1});
      block.header.merkle_root = block.ComputeMerkleRoot();
      auto nonce = MineNonce(&block.header, 1ull << 32);
      if (!nonce) {
        std::printf("mining failed!\n");
        return 1;
      }
      Status s = tree.AddBlock(block);
      std::printf("height %d: nonce=%-8llu hash=%s  %s\n", height,
                  static_cast<unsigned long long>(*nonce),
                  crypto::DigestToHex(block.Hash()).substr(0, 16).c_str(),
                  s.ToString().c_str());
      tip = block.Hash();
    }
    std::printf("chain work: %.1f, best height %llu\n\n", tree.BestWork(),
                static_cast<unsigned long long>(tree.BestHeight()));
  }

  // ---- Part 2: a mining network with forks and reconvergence --------
  {
    std::printf("-- 5 miners, 1 hour of simulated mining, slow gossip --\n");
    sim::NetworkOptions net;
    net.min_delay = 2 * sim::kSecond;  // Slow propagation => forks.
    net.max_delay = 8 * sim::kSecond;
    auto sim_owner =
        sim::Simulation::Builder(99).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;

    MinerNetworkParams params;
    params.chain.block_interval_secs = 60;
    params.chain.retarget_interval = 30;
    params.chain.initial_reward = 50;
    params.chain.halving_interval = 40;
    std::vector<double> powers = {5, 2, 1, 1, 1};
    params.initial_hash_total = 10;
    std::vector<Miner*> miners;
    for (double p : powers) {
      miners.push_back(sim.Spawn<Miner>(&params, (int)powers.size(), p));
    }
    sim.Start();
    sim.RunFor(3600 * sim::kSecond);

    const BlockTree& tree = miners[0]->tree();
    std::printf("best height: %llu, stale (forked-off) blocks: %d, "
                "reorgs seen: %d\n",
                static_cast<unsigned long long>(tree.BestHeight()),
                tree.StaleBlocks(), tree.reorgs());
    std::printf("reward distribution (hash share -> block share):\n");
    auto rewards = tree.RewardsByMiner();
    int64_t total = 0;
    for (const auto& [miner, coins] : rewards) total += coins;
    for (size_t i = 0; i < powers.size(); ++i) {
      int64_t coins = rewards.count((int)i) ? rewards[(int)i] : 0;
      std::printf("  miner %zu: %4.0f%% of hash power -> %4.1f%% of coins "
                  "(%lld)\n",
                  i, 100 * powers[i] / 10,
                  total > 0 ? 100.0 * coins / total : 0.0,
                  static_cast<long long>(coins));
    }
    std::printf("(halving: rewards dropped from 50 to %lld after block 40)\n\n",
                static_cast<long long>(tree.RewardAt(tree.BestHeight())));
  }

  // ---- Part 3: proof of stake ----------------------------------------
  {
    std::printf("-- proof of stake: 1000 rounds --\n");
    std::vector<StakeAccount> accounts = {{600, 30}, {300, 30}, {100, 30}};
    PosSimulator randomized(accounts, PosSimulator::Mode::kRandomized, 42);
    PosSimulator coinage(accounts, PosSimulator::Mode::kCoinAge, 42);
    int rwins[3] = {0, 0, 0}, cwins[3] = {0, 0, 0};
    for (int round = 0; round < 1000; ++round) {
      int r = randomized.Step(1);
      if (r >= 0) ++rwins[r];
      int c = coinage.Step(1);
      if (c >= 0) ++cwins[c];
    }
    std::printf("stake 60/30/10:  randomized wins %d/%d/%d   "
                "coin-age wins %d/%d/%d\n",
                rwins[0], rwins[1], rwins[2], cwins[0], cwins[1], cwins[2]);
    std::printf("(coin-age caps the rich-get-richer effect: winners' coin "
                "age resets)\n");
  }
  return 0;
}
