#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "blockchain/block.h"
#include "blockchain/chain.h"
#include "blockchain/miner.h"
#include "blockchain/pos.h"
#include "sim/simulation.h"

namespace consensus40::blockchain {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(TargetTest, LeadingZeroBitsConstruction) {
  Target t = Target::FromLeadingZeroBits(8);
  EXPECT_EQ(t.value[0], 0x00);
  EXPECT_EQ(t.value[1], 0x80);
  crypto::Digest meets{};  // All zeros: certainly below the target.
  EXPECT_TRUE(t.IsMetBy(meets));
  crypto::Digest misses{};
  misses[0] = 0x01;
  EXPECT_FALSE(t.IsMetBy(misses));
}

TEST(TargetTest, ScalingAdjustsDifficulty) {
  Target t = Target::FromLeadingZeroBits(16);
  // Blocks came twice as fast as expected -> halve the target, which
  // doubles the difficulty.
  Target harder = t.Scaled(1, 2);
  EXPECT_NEAR(harder.Difficulty() / t.Difficulty(), 2.0, 0.05);
  // Blocks too slow -> double the target -> half the difficulty.
  Target easier = t.Scaled(2, 1);
  EXPECT_NEAR(easier.Difficulty() / t.Difficulty(), 0.5, 0.05);
}

TEST(TargetTest, ScaleSaturatesAtMax) {
  Target nearly_max = Target::FromLeadingZeroBits(1);
  Target scaled = nearly_max.Scaled(1000, 1);
  EXPECT_EQ(scaled, Target::Max());
}

TEST(BlockRewardTest, HalvingSchedule) {
  EXPECT_EQ(BlockReward(0, 50, 210000), 50);
  EXPECT_EQ(BlockReward(209999, 50, 210000), 50);
  EXPECT_EQ(BlockReward(210000, 50, 210000), 25);
  EXPECT_EQ(BlockReward(420000, 50, 210000), 12);
  EXPECT_EQ(BlockReward(210000ull * 64, 50, 210000), 0);
}

TEST(MiningTest, RealSha256MiningFindsValidNonce) {
  BlockHeader header;
  header.prev_hash = crypto::Sha256::Hash("genesis");
  header.merkle_root = crypto::Sha256::Hash("txs");
  header.timestamp = 12345;
  header.target = Target::FromLeadingZeroBits(12);
  auto nonce = MineNonce(&header, 1u << 22);
  ASSERT_TRUE(nonce.has_value());
  // The found header really meets the target under double SHA-256.
  EXPECT_TRUE(header.target.IsMetBy(header.Hash()));
  EXPECT_GE(crypto::LeadingZeroBits(header.Hash()), 12);
}

TEST(MiningTest, HarderTargetNeedsMoreWorkOnAverage) {
  // Statistical sanity: average nonce count grows ~2x per extra bit.
  auto average_tries = [](int bits) {
    double total = 0;
    for (int i = 0; i < 8; ++i) {
      BlockHeader header;
      header.timestamp = 1000 + i;
      header.target = Target::FromLeadingZeroBits(bits);
      auto nonce = MineNonce(&header, 1u << 24);
      EXPECT_TRUE(nonce.has_value());
      total += static_cast<double>(*nonce) + 1;
    }
    return total / 8;
  };
  EXPECT_GT(average_tries(12), average_tries(6));
}

Block MakeBlock(const BlockTree& tree, const crypto::Digest& parent,
                int32_t miner, uint32_t timestamp) {
  Block block;
  block.header.prev_hash = parent;
  block.header.timestamp = timestamp;
  block.header.target = tree.NextTarget(parent);
  block.miner = miner;
  block.reward = tree.RewardAt(tree.HeightOf(parent) + 1);
  block.header.merkle_root = block.ComputeMerkleRoot();
  return block;
}

ChainOptions TestChain() {
  ChainOptions opts;
  opts.verify_pow = false;
  opts.block_interval_secs = 10;
  opts.retarget_interval = 8;
  opts.initial_reward = 50;
  opts.halving_interval = 16;
  return opts;
}

TEST(BlockTreeTest, AppendsAndTracksHeight) {
  BlockTree tree(TestChain());
  crypto::Digest tip{};
  for (int i = 1; i <= 5; ++i) {
    Block b = MakeBlock(tree, tip, 0, i * 10);
    ASSERT_TRUE(tree.AddBlock(b).ok()) << i;
    tip = b.Hash();
  }
  EXPECT_EQ(tree.BestHeight(), 5u);
  EXPECT_EQ(tree.BestChain().size(), 5u);
  EXPECT_EQ(tree.StaleBlocks(), 0);
}

TEST(BlockTreeTest, RejectsBadBlocks) {
  BlockTree tree(TestChain());
  Block b = MakeBlock(tree, crypto::Digest{}, 0, 10);
  ASSERT_TRUE(tree.AddBlock(b).ok());
  EXPECT_TRUE(tree.AddBlock(b).IsAlreadyExists());

  Block orphan = MakeBlock(tree, crypto::Sha256::Hash("nowhere"), 0, 20);
  orphan.header.target = tree.options().initial_target;
  EXPECT_TRUE(tree.AddBlock(orphan).IsNotFound());

  Block bad_merkle = MakeBlock(tree, b.Hash(), 0, 20);
  bad_merkle.header.merkle_root = crypto::Sha256::Hash("lies");
  EXPECT_TRUE(tree.AddBlock(bad_merkle).IsCorruption());

  Block bad_reward = MakeBlock(tree, b.Hash(), 0, 20);
  bad_reward.reward += 1;
  bad_reward.header.merkle_root = bad_reward.ComputeMerkleRoot();
  EXPECT_TRUE(tree.AddBlock(bad_reward).IsInvalidArgument());
}

TEST(BlockTreeTest, PowEnforcedWhenEnabled) {
  ChainOptions opts = TestChain();
  opts.verify_pow = true;
  opts.initial_target = Target::FromLeadingZeroBits(8);
  BlockTree tree(opts);
  Block b = MakeBlock(tree, crypto::Digest{}, 0, 10);
  // Unmined block: almost surely fails the target.
  Status s = tree.AddBlock(b);
  if (s.ok()) GTEST_SKIP() << "freak hash met the target";
  EXPECT_TRUE(s.IsInvalidArgument());
  // Mine it for real.
  auto nonce = MineNonce(&b.header, 1u << 20);
  ASSERT_TRUE(nonce.has_value());
  EXPECT_TRUE(tree.AddBlock(b).ok());
}

TEST(BlockTreeTest, ForkResolutionByLongestChain) {
  BlockTree tree(TestChain());
  Block a1 = MakeBlock(tree, crypto::Digest{}, 1, 10);
  ASSERT_TRUE(tree.AddBlock(a1).ok());
  // A competing fork at the same height (different miner => different hash).
  Block b1 = MakeBlock(tree, crypto::Digest{}, 2, 10);
  ASSERT_TRUE(tree.AddBlock(b1).ok());
  EXPECT_EQ(tree.BestTip(), a1.Hash());  // First seen wins at equal work.
  EXPECT_EQ(tree.StaleBlocks(), 1);

  // Extend the b-branch: it becomes the longest chain -> reorg.
  Block b2 = MakeBlock(tree, b1.Hash(), 2, 20);
  ASSERT_TRUE(tree.AddBlock(b2).ok());
  EXPECT_EQ(tree.BestTip(), b2.Hash());
  EXPECT_EQ(tree.reorgs(), 1);
  EXPECT_TRUE(tree.OnBestChain(b1.Hash()));
  EXPECT_FALSE(tree.OnBestChain(a1.Hash()));
  // The deck: "transactions in this block are aborted/resubmitted".
  EXPECT_EQ(tree.StaleBlocks(), 1);
  EXPECT_EQ(tree.Confirmations(b1.Hash()), 2);
  EXPECT_EQ(tree.Confirmations(a1.Hash()), 0);
}

TEST(BlockTreeTest, RetargetRaisesDifficultyWhenBlocksTooFast) {
  ChainOptions opts = TestChain();  // interval 10s, retarget every 8.
  BlockTree tree(opts);
  crypto::Digest tip{};
  // Mine 8 blocks only 1 second apart (10x too fast).
  for (int i = 1; i <= 8; ++i) {
    Block b = MakeBlock(tree, tip, 0, i);
    ASSERT_TRUE(tree.AddBlock(b).ok());
    tip = b.Hash();
  }
  Target next = tree.NextTarget(tip);
  double initial_difficulty = opts.initial_target.Difficulty();
  // Clamped at 4x per retarget, like Bitcoin.
  EXPECT_NEAR(next.Difficulty() / initial_difficulty, 4.0, 0.5);
}

TEST(BlockTreeTest, RetargetLowersDifficultyWhenBlocksTooSlow) {
  ChainOptions opts = TestChain();
  BlockTree tree(opts);
  crypto::Digest tip{};
  for (int i = 1; i <= 8; ++i) {
    Block b = MakeBlock(tree, tip, 0, i * 100);  // 10x too slow.
    ASSERT_TRUE(tree.AddBlock(b).ok());
    tip = b.Hash();
  }
  Target next = tree.NextTarget(tip);
  EXPECT_NEAR(opts.initial_target.Difficulty() / next.Difficulty(), 4.0, 0.5);
}

TEST(BlockTreeTest, RewardsByMinerFollowBestChain) {
  BlockTree tree(TestChain());
  crypto::Digest tip{};
  for (int i = 1; i <= 4; ++i) {
    Block b = MakeBlock(tree, tip, i % 2, i * 10);
    ASSERT_TRUE(tree.AddBlock(b).ok());
    tip = b.Hash();
  }
  auto rewards = tree.RewardsByMiner();
  EXPECT_EQ(rewards[0], 100);
  EXPECT_EQ(rewards[1], 100);
}

// ---------------------------------------------------------------------------
// Mining network simulation
// ---------------------------------------------------------------------------

struct MiningWorld {
  MiningWorld(const std::vector<double>& powers, uint64_t seed = 1,
              sim::Duration propagation = 500 * kMillisecond) {
    sim::NetworkOptions net;
    net.min_delay = propagation / 2;
    net.max_delay = propagation;
    sim = sim::Simulation::Builder(seed).Network(net).AutoStart(false).Build();
    params.chain = TestChain();
    params.chain.block_interval_secs = 60;
    params.chain.retarget_interval = 20;
    double total = 0;
    for (double p : powers) total += p;
    params.initial_hash_total = total;
    for (double p : powers) {
      miners.push_back(sim->Spawn<Miner>(&params, (int)powers.size(), p));
    }
    sim->Start();
  }

  std::unique_ptr<sim::Simulation> sim;
  MinerNetworkParams params;
  std::vector<Miner*> miners;
};

TEST(MiningNetworkTest, ChainsConvergeToCommonPrefix) {
  MiningWorld world({1, 1, 1, 1});
  world.sim->RunFor(3600 * kSecond);  // One simulated hour.
  // Quiesce: stop after propagation settles.
  uint64_t best = 0;
  for (const Miner* m : world.miners) {
    best = std::max(best, m->tree().BestHeight());
  }
  EXPECT_GT(best, 30u);  // ~60 blocks expected at 60s interval.
  // All miners share the best chain except possibly the last block or two
  // still propagating.
  auto chain0 = world.miners[0]->tree().BestChain();
  for (const Miner* m : world.miners) {
    auto chain = m->tree().BestChain();
    size_t overlap = std::min(chain.size(), chain0.size());
    ASSERT_GE(overlap + 2, std::max(chain.size(), chain0.size()));
    for (size_t i = 0; i + 2 < overlap; ++i) {
      EXPECT_EQ(chain[i], chain0[i]) << "prefix diverges at " << i;
    }
  }
}

TEST(MiningNetworkTest, HashShareDeterminesBlockShare) {
  // The deck's centralization figure: a pool with 80% of the hash rate
  // wins ~80% of the blocks.
  MiningWorld world({8, 1, 1});
  world.sim->RunFor(20000 * kSecond);
  auto rewards = world.miners[0]->tree().RewardsByMiner();
  double total = 0;
  for (const auto& [miner, reward] : rewards) total += reward;
  ASSERT_GT(total, 0);
  EXPECT_NEAR(rewards[0] / total, 0.8, 0.1);
}

TEST(MiningNetworkTest, SlowPropagationCausesMoreForks) {
  MiningWorld fast({1, 1, 1, 1}, 7, /*propagation=*/100 * kMillisecond);
  fast.sim->RunFor(7200 * kSecond);
  MiningWorld slow({1, 1, 1, 1}, 7, /*propagation=*/20 * kSecond);
  slow.sim->RunFor(7200 * kSecond);
  int fast_stale = fast.miners[0]->tree().StaleBlocks();
  int slow_stale = slow.miners[0]->tree().StaleBlocks();
  EXPECT_GT(slow_stale, fast_stale);
}

TEST(MiningNetworkTest, RetargetTracksHashPowerChange) {
  MiningWorld world({1, 1});
  // After a while, quadruple everyone's hash power.
  world.sim->RunFor(4000 * kSecond);
  for (Miner* m : world.miners) m->SetHashPower(4 * m->hash_power());
  world.sim->RunFor(30000 * kSecond);
  // Difficulty must have risen well above the initial one.
  double d0 = world.params.chain.initial_target.Difficulty();
  double d_now = world.miners[0]
                     ->tree()
                     .NextTarget(world.miners[0]->tree().BestTip())
                     .Difficulty();
  EXPECT_GT(d_now / d0, 2.0);
}

// ---------------------------------------------------------------------------
// Proof of stake
// ---------------------------------------------------------------------------

TEST(PosTest, RandomizedSelectionProportionalToStake) {
  std::vector<StakeAccount> accounts = {{10, 0}, {30, 0}, {60, 0}};
  Rng rng(5);
  std::map<size_t, int> wins;
  for (int i = 0; i < 30000; ++i) wins[SelectRandomized(accounts, &rng)]++;
  EXPECT_NEAR(wins[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(wins[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(wins[2] / 30000.0, 0.6, 0.02);
}

TEST(PosTest, CoinAgeRequiresThirtyDays) {
  std::vector<StakeAccount> accounts = {{100, 5}, {1, 45}};
  Rng rng(5);
  // Only the aged small account is eligible despite the big young stake.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SelectByCoinAge(accounts, &rng), 1);
  }
  // Nobody eligible -> -1.
  std::vector<StakeAccount> young = {{100, 0}, {50, 29}};
  EXPECT_EQ(SelectByCoinAge(young, &rng), -1);
}

TEST(PosTest, CoinAgeSaturatesAtNinetyDays) {
  // Two equal stakes at age 90 and age 900 must win equally often.
  std::vector<StakeAccount> accounts = {{50, 90}, {50, 900}};
  Rng rng(5);
  std::map<int, int> wins;
  for (int i = 0; i < 20000; ++i) {
    wins[SelectByCoinAge(accounts, &rng)]++;
  }
  EXPECT_NEAR(wins[0] / 20000.0, 0.5, 0.02);
}

TEST(PosTest, SimulatorResetsWinnersAge) {
  PosSimulator pos({{50, 40}, {50, 40}}, PosSimulator::Mode::kCoinAge, 3);
  int winner = pos.Step(10);
  ASSERT_GE(winner, 0);
  EXPECT_EQ(pos.accounts()[winner].age_days, 0);
  EXPECT_EQ(pos.accounts()[winner].stake, 60);
  EXPECT_EQ(pos.accounts()[1 - winner].age_days, 41);
}

TEST(PosTest, CoinAgeGivesSmallHoldersTurns) {
  // The deck's "don't the rich get richer?" mitigation: with coin-age and
  // winner-age resets, a 10%-stake account ends up winning about as many
  // blocks as a 90%-stake whale — each win benches the winner for 30 days,
  // during which the other account's age (eventually) makes it win.
  PosSimulator pos({{90, 30}, {10, 30}}, PosSimulator::Mode::kCoinAge, 9);
  int wins[2] = {0, 0};
  for (int day = 0; day < 3000; ++day) {
    int w = pos.Step(0);
    if (w >= 0) ++wins[w];
  }
  EXPECT_GT(wins[1], 0);
  // Near-parity despite the 9x stake imbalance.
  EXPECT_GT(wins[1], wins[0] * 7 / 10);

  // Contrast: pure randomized selection IS stake-proportional.
  PosSimulator rich({{90, 0}, {10, 0}}, PosSimulator::Mode::kRandomized, 9);
  int rwins[2] = {0, 0};
  for (int day = 0; day < 3000; ++day) ++rwins[rich.Step(0)];
  EXPECT_LT(rwins[1], rwins[0]);
}

}  // namespace
}  // namespace consensus40::blockchain
