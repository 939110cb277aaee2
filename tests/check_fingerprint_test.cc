// Observation fingerprints: one pinned hash per checker adapter.
//
// Every factory in check/adapters.h — the in-bounds roster and the
// out-of-bounds variants — runs seeds 1..20, each under the schedule its
// own bounds generate, through check::RunToEnd (the run RunSchedule
// evaluates). Each run's final Observation (decisions, allowed values,
// logs, verdicts, self-reported violations) and its admitted message and
// byte counts fold into one FNV-1a hash per adapter. A change to an
// adapter's workload, envelope or observables, or to any protocol it
// drives, moves the hash.
//
// Re-pin a row only with the reason stated here:
//   - shard_txn_unsafe: it now runs the checks every shard scenario
//     runs (decision records, per-group prefix checks, system
//     violations), so its observation gained the decision-record
//     verdicts. Its sweep verdict and pinned repro did not move.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/adapters.h"
#include "check/checker.h"

namespace consensus40::check {
namespace {

constexpr uint64_t kSeeds = 20;

class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  void Mix(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void MixObservation(const Observation& o, Fnv* fnv) {
  fnv->Mix(o.decided.size());
  for (const auto& [inst, per_node] : o.decided) {
    fnv->Mix(inst);
    fnv->Mix(per_node.size());
    for (const auto& [node, value] : per_node) {
      fnv->Mix(static_cast<uint64_t>(node));
      fnv->Mix(value);
    }
  }
  fnv->Mix(o.allowed.size());
  for (const std::string& v : o.allowed) fnv->Mix(v);
  fnv->Mix(o.logs.size());
  for (const std::vector<std::string>& log : o.logs) {
    fnv->Mix(log.size());
    for (const std::string& entry : log) fnv->Mix(entry);
  }
  fnv->Mix(o.verdicts.size());
  for (const auto& [tx, per_node] : o.verdicts) {
    fnv->Mix(tx);
    fnv->Mix(per_node.size());
    for (const auto& [node, verdict] : per_node) {
      fnv->Mix(static_cast<uint64_t>(node));
      fnv->Mix(static_cast<uint64_t>(verdict));
    }
  }
  fnv->Mix(o.self_reported.size());
  for (const std::string& v : o.self_reported) fnv->Mix(v);
}

/// Every factory adapters.h declares, under its roster or sweep name.
std::map<std::string, AdapterFactory> EveryAdapter() {
  std::map<std::string, AdapterFactory> all;
  for (auto& [name, factory] : AllInBoundsAdapters()) all[name] = factory;
  all["paxos-q1+q2<=n"] = MakePaxosOutOfBoundsAdapter();
  all["floodset-f-rounds"] = MakeFloodSetOutOfBoundsAdapter();
  all["pbft-n=3f"] = MakePbftOutOfBoundsAdapter();
  all["2pc-blocking"] = MakeTwoPhaseCommitBlockingAdapter();
  all["crossword_unsafe"] = MakeCrosswordOutOfBoundsAdapter();
  all["shard_txn_unsafe"] = MakeShardTxnNoReadLocksAdapter();
  all["shard_reshard_unsafe"] = MakeShardReshardOutOfBoundsAdapter();
  return all;
}

uint64_t ObservationFingerprint(const AdapterFactory& factory) {
  Fnv fnv;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const FaultSchedule schedule =
        GenerateSchedule(seed, factory(seed)->bounds());
    const RunEnd end = RunToEnd(factory, seed, schedule);
    MixObservation(end.observation, &fnv);
    fnv.Mix(end.messages_sent);
    fnv.Mix(end.bytes_sent);
  }
  return fnv.value();
}

const std::map<std::string, uint64_t>& Pinned() {
  static const std::map<std::string, uint64_t> kPinned = {
      {"2pc", 0x55dd89ca9f4a27d5ull},
      {"2pc-blocking", 0xd9efa3a976e5a09dull},
      {"3pc", 0x3568e1a7cf99d058ull},
      {"benor", 0x9e347ec1378fcc55ull},
      {"cheapbft", 0x771718f7287e996dull},
      {"cheapbft_byz", 0xc9179a4105ae0860ull},
      {"crossword", 0xe8cb515b9c8c64fbull},
      {"crossword_rs", 0x988b9f3e2b27f3beull},
      {"crossword_unsafe", 0x721f5b0388b1af0cull},
      {"fast_paxos", 0x3e017ac16d7240e8ull},
      {"floodset", 0xfb462ac8f27c0ba6ull},
      {"floodset-f-rounds", 0x6324640f0ca7d706ull},
      {"hotstuff", 0xb6baca06e0f06fd5ull},
      {"hotstuff_byz", 0x95d3abe8bd6286d8ull},
      {"minbft", 0x3278cfcf563c7415ull},
      {"minbft_byz", 0xba66ec33ec7d7c5ull},
      {"multi_paxos", 0xf07a9a271919c7bdull},
      {"multi_paxos_batched", 0xdcbc721255d27b86ull},
      {"paxos", 0x5e6ae0404bfada16ull},
      {"paxos-q1+q2<=n", 0xe865281bff4aec1ull},
      {"pbft", 0x41b0d4abc59fe4c5ull},
      {"pbft-n=3f", 0xfcc5f28f8f058ceaull},
      {"pbft_byz", 0xb9308af636df4858ull},
      {"raft", 0x3d6d103670206ae7ull},
      {"raft_batched", 0xae16c33372b5ee0dull},
      {"shard", 0x558054bb958203dcull},
      {"shard_batched", 0xde919d132d0614e7ull},
      {"shard_reshard", 0x7fa40d75c4b143c3ull},
      {"shard_reshard_unsafe", 0x9967f88eb60fcbcull},
      {"shard_txn", 0x62c1dec82d5667e2ull},
      {"shard_txn_unsafe", 0x905fbfe0bf25516full},
      {"xft", 0x90fb98246e5a97f2ull},
      {"xft_byz", 0x7a2b24726c3bea4ull},
      {"zyzzyva", 0x10b8ac217b87d1e5ull},
      {"zyzzyva_byz", 0x34270476bfc6819aull},
  };
  return kPinned;
}

class ObservationFingerprintTest
    : public testing::TestWithParam<std::string> {};

TEST_P(ObservationFingerprintTest, MatchesPinnedRun) {
  const uint64_t got = ObservationFingerprint(EveryAdapter().at(GetParam()));
  auto it = Pinned().find(GetParam());
  ASSERT_NE(it, Pinned().end()) << std::hex << "unpinned: fingerprint 0x"
                                << got;
  EXPECT_EQ(got, it->second) << std::hex << "fingerprint 0x" << got;
}

std::vector<std::string> AdapterNames() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : EveryAdapter()) names.push_back(name);
  return names;
}

/// gtest parameter names allow only [A-Za-z0-9_].
std::string ParamName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Adapters, ObservationFingerprintTest,
                         testing::ValuesIn(AdapterNames()), ParamName);

}  // namespace
}  // namespace consensus40::check
