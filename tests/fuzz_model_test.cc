// Model-based randomized tests: the KvStore against a reference model, the
// Merkle layer against random tampering, ballots against their algebraic
// laws, and the simulator against exact-replay determinism. These tests
// sweep hundreds of randomized cases per seed and assert invariants, not
// examples.

#include <gtest/gtest.h>

#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signatures.h"
#include "paxos/ballot.h"
#include "sim/simulation.h"
#include "smr/state_machine.h"

namespace consensus40 {
namespace {

// ---------------------------------------------------------------------------
// KvStore vs a reference model
// ---------------------------------------------------------------------------

using KvPairs = std::vector<std::pair<std::string, std::string>>;

/// The store's number syntax: the whole string is digits of `base`, with
/// no sign, space or prefix, and the value fits in 64 bits.
bool ModelParseU64(const std::string& s, int base, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    if (base == 16 && c >= 'a' && c <= 'f') d = c - 'a' + 10;
    if (base == 16 && c >= 'A' && c <= 'F') d = c - 'A' + 10;
    if (d < 0 || v > (UINT64_MAX - static_cast<uint64_t>(d)) / base) {
      return false;
    }
    v = v * base + static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string Hex16(uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

/// The KvStore specification over one ordered map of every key,
/// tokenized by operator>>: nothing shared with the store but KeyHash.
class KvModel {
 public:
  std::string Apply(const std::string& op) {
    std::istringstream in(op);
    std::vector<std::string> t;
    for (std::string tok; in >> tok;) t.push_back(tok);
    if (t.empty()) return "ERR";
    const std::string& verb = t[0];
    if ((verb == "DISOWN" || verb == "MIGRATE") && t.size() >= 4) {
      uint64_t lo = 0, hi = 0, epoch = 0;
      if (!ModelParseU64(t[1], 10, &lo) || !ModelParseU64(t[2], 10, &hi) ||
          !ModelParseU64(t[3], 10, &epoch)) {
        return "ERR";
      }
      std::string payload;  // Key order: the map's.
      for (const auto& [k, v] : data_) {
        if (k.rfind("__", 0) == 0 || !InRange(smr::KeyHash(k), lo, hi)) {
          continue;
        }
        payload += std::to_string(k.size()) + ":" + k +
                   std::to_string(v.size()) + ":" + v;
      }
      data_["__disown." + Hex16(lo) + "-" + Hex16(hi)] = std::to_string(epoch);
      return verb == "MIGRATE" ? payload : "OK";
    }
    const bool point = verb == "PUT" || verb == "GET" || verb == "DEL" ||
                       verb == "SETNX" || verb == "CAS" || verb == "INC";
    if (!point || t.size() < 2) return "ERR";
    const std::string& key = t[1];
    if (std::optional<uint64_t> epoch = MovedEpoch(key)) {
      return "MOVED " + std::to_string(*epoch);
    }
    auto it = data_.find(key);
    if (verb == "PUT" && t.size() >= 3) {
      data_[key] = t[2];
      return "OK";
    }
    if (verb == "GET") return it == data_.end() ? "NIL" : it->second;
    if (verb == "DEL") return data_.erase(key) > 0 ? "OK" : "NIL";
    if (verb == "SETNX" && t.size() >= 3) {
      if (it != data_.end()) return it->second;
      data_[key] = t[2];
      return "OK";
    }
    if (verb == "CAS" && t.size() >= 4) {
      if (it == data_.end() || it->second != t[2]) return "FAIL";
      it->second = t[3];
      return "OK";
    }
    if (verb == "INC") {
      int64_t v = 0;
      if (it != data_.end()) v = std::strtoll(it->second.c_str(), nullptr, 10);
      if (v == INT64_MAX) return "ERR";
      data_[key] = std::to_string(v + 1);
      return data_[key];
    }
    return "ERR";
  }

  std::string Install(uint64_t lo, uint64_t hi, uint64_t epoch,
                      const KvPairs& pairs) {
    for (const auto& [k, v] : pairs) data_[k] = v;
    data_["__own." + Hex16(lo) + "-" + Hex16(hi)] = std::to_string(epoch);
    return "OK " + std::to_string(pairs.size());
  }

  std::optional<uint64_t> MovedEpoch(const std::string& key) const {
    if (key.rfind("__", 0) == 0) return std::nullopt;
    const uint64_t h = smr::KeyHash(key);
    std::optional<uint64_t> fence = MaxEpoch("__disown.", h);
    std::optional<uint64_t> own = MaxEpoch("__own.", h);
    if (!fence.has_value() || (own.has_value() && *own >= *fence)) {
      return std::nullopt;
    }
    return fence;
  }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }

  size_t size() const { return data_.size(); }

  /// SHA-256 over "key=value;" in key order.
  crypto::Digest Digest() const {
    crypto::Sha256 h;
    for (const auto& [k, v] : data_) h.Update(k + "=" + v + ";");
    return h.Finish();
  }

 private:
  static bool InRange(uint64_t h, uint64_t lo, uint64_t hi) {
    return h >= lo && (hi == 0 || h < hi);
  }

  /// Highest epoch of a well-formed "<prefix><lo16>-<hi16>" record
  /// covering hash `h`.
  std::optional<uint64_t> MaxEpoch(const std::string& prefix,
                                   uint64_t h) const {
    std::optional<uint64_t> best;
    const size_t n = prefix.size();
    for (const auto& [k, v] : data_) {
      uint64_t lo = 0, hi = 0, epoch = 0;
      if (k.rfind(prefix, 0) != 0 || k.size() != n + 33 ||
          !ModelParseU64(k.substr(n, 16), 16, &lo) ||
          !ModelParseU64(k.substr(n + 17, 16), 16, &hi) ||
          !ModelParseU64(v, 10, &epoch)) {
        continue;
      }
      if (InRange(h, lo, hi) && (!best || epoch > *best)) best = epoch;
    }
    return best;
  }

  std::map<std::string, std::string> data_;
};

/// Keys: plain ones, internal ones, a malformed and two well-formed
/// range-record keys written by point ops.
const std::vector<std::string> kFuzzKeys = {
    "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "__d.1", "__disown.x",
    "__disown.0000000000000000-8000000000000000",
    "__own.4000000000000000-0000000000000000"};
const std::vector<std::string> kFuzzValues = {
    "0", "1", "2", "3", "4", "07", "-1", "+3", "9223372036854775807"};
/// Range bounds: quarters of the hash space (hi == 0 means 2^64).
const std::vector<std::string> kFuzzBounds = {
    "0", "4611686018427387904", "9223372036854775808", "13835058055282163712"};

/// A run of the C-locale whitespace operator>> skips: 1-3 characters
/// between tokens, 0-2 at either end.
std::string Gap(Rng& rng, bool edge) {
  static const char kSpaces[] = " \t\n\v\f\r";
  size_t n = edge ? rng.NextBounded(3) : 1 + rng.NextBounded(3);
  std::string gap;
  for (size_t i = 0; i < n; ++i) gap += kSpaces[rng.NextBounded(6)];
  return gap;
}

template <class T>
const T& Pick(Rng& rng, const std::vector<T>& from) {
  return from[rng.NextBounded(from.size())];
}

/// Checks everything the store exposes against the model.
void ExpectSameState(const smr::KvStore& kv, const KvModel& model,
                     int step) {
  ASSERT_EQ(kv.size(), model.size()) << "step " << step;
  ASSERT_EQ(kv.StateDigest(), model.Digest()) << "step " << step;
  for (const std::string& key : kFuzzKeys) {
    ASSERT_EQ(kv.Get(key), model.Get(key)) << "step " << step << " " << key;
    ASSERT_EQ(kv.MovedEpoch(key), model.MovedEpoch(key))
        << "step " << step << " " << key;
  }
}

class KvFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvFuzz, MatchesModelOnRandomOps) {
  Rng rng(GetParam());
  auto kv = std::make_unique<smr::KvStore>();
  KvModel model;
  const std::vector<std::string> verbs = {
      "PUT", "PUT", "GET",    "GET",     "DEL",     "SETNX", "CAS",
      "CAS", "INC", "INC",    "DISOWN",  "MIGRATE", "INSTALL", "FROB"};
  int moved = 0, executed = 0, migrated_pairs = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::string& verb = Pick(rng, verbs);
    std::string op, expected;
    if (verb == "INSTALL") {
      // The header is split on single spaces; the payload is framed.
      uint64_t lo = std::stoull(Pick(rng, kFuzzBounds));
      uint64_t hi = std::stoull(Pick(rng, kFuzzBounds));
      if (rng.NextBounded(2) == 0) hi = 0;
      uint64_t epoch = 1 + rng.NextBounded(6);
      KvPairs pairs;
      for (uint64_t i = rng.NextBounded(4); i > 0; --i) {
        pairs.emplace_back(Pick(rng, kFuzzKeys), Pick(rng, kFuzzValues));
      }
      op = "INSTALL " + std::to_string(lo) + " " + std::to_string(hi) + " " +
           std::to_string(epoch) + " " + smr::EncodeKvPairs(pairs);
      expected = model.Install(lo, hi, epoch, pairs);
    } else {
      std::vector<std::string> args;
      if (verb == "DISOWN" || verb == "MIGRATE") {
        args = {Pick(rng, kFuzzBounds),
                rng.NextBounded(2) == 0 ? "0" : Pick(rng, kFuzzBounds),
                std::to_string(1 + rng.NextBounded(6))};
      } else {
        args.push_back(Pick(rng, kFuzzKeys));
        if (verb == "PUT" || verb == "SETNX" || verb == "CAS") {
          args.push_back(Pick(rng, kFuzzValues));
        }
        if (verb == "CAS") args.push_back(Pick(rng, kFuzzValues));
      }
      if (rng.NextBounded(8) == 0) args.pop_back();         // Missing arg.
      for (uint64_t i = rng.NextBounded(8) == 0 ? 1 + rng.NextBounded(2) : 0;
           i > 0; --i) {
        args.push_back(Pick(rng, kFuzzValues));             // Extra tokens.
      }
      op = Gap(rng, true) + verb;
      for (const std::string& arg : args) op += Gap(rng, false) + arg;
      op += Gap(rng, true);
      expected = model.Apply(op);
    }
    ASSERT_EQ(kv->Apply(smr::Command{0, static_cast<uint64_t>(step), op}),
              expected)
        << "step " << step << ": " << op;
    if (expected.rfind("MOVED ", 0) == 0) {
      ++moved;
    } else if (verb != "DISOWN" && verb != "MIGRATE" && verb != "INSTALL" &&
               expected != "ERR") {
      ++executed;
    }
    if (verb == "MIGRATE" && !expected.empty() && expected != "ERR") {
      ++migrated_pairs;
    }
    if (step % 50 == 49) {
      ExpectSameState(*kv, model, step);
      if (HasFatalFailure()) return;
    }
    if (step % 200 == 199) {
      // Continue on a restored copy: Snapshot -> Restore must carry every
      // point key and range record.
      auto restored = std::make_unique<smr::KvStore>();
      restored->Restore(kv->Snapshot());
      kv = std::move(restored);
      ExpectSameState(*kv, model, step);
      if (HasFatalFailure()) return;
    }
  }
  // Both sides of the fence were exercised, and MIGRATE moved data.
  EXPECT_GT(moved, 0);
  EXPECT_GT(executed, 0);
  EXPECT_GT(migrated_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvFuzz, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(KvFuzzExtra, SnapshotRestoreRoundTrips) {
  Rng rng(77);
  smr::KvStore kv;
  for (int i = 0; i < 300; ++i) {
    kv.Apply(smr::Command{0, static_cast<uint64_t>(i),
                          "PUT k" + std::to_string(rng.NextBounded(40)) +
                              " v" + std::to_string(rng.Next() % 1000)});
  }
  // Range records too: the low half fenced, one quarter of it re-owned.
  kv.Apply(smr::Command{0, 300, "DISOWN 0 9223372036854775808 4"});
  kv.Apply(smr::Command{0, 301, "INSTALL 0 4611686018427387904 5 "});
  auto snapshot = kv.Snapshot();
  smr::KvStore clone;
  clone.Restore(snapshot);
  EXPECT_EQ(clone.size(), kv.size());
  EXPECT_EQ(clone.StateDigest(), kv.StateDigest());
  int fenced = 0;
  for (int i = 0; i < 40; ++i) {
    std::string key = "k" + std::to_string(i);
    EXPECT_EQ(clone.MovedEpoch(key), kv.MovedEpoch(key)) << key;
    EXPECT_EQ(clone.Get(key), kv.Get(key)) << key;
    fenced += kv.MovedEpoch(key).has_value();
  }
  EXPECT_GT(fenced, 0);
  EXPECT_LT(fenced, 40);
  EXPECT_EQ(clone.Apply(smr::Command{0, 302, "MIGRATE 0 0 6"}),
            kv.Apply(smr::Command{0, 302, "MIGRATE 0 0 6"}));
  // Diverge after the restore point: digests must split. (Internal keys
  // are never fenced.)
  clone.Apply(smr::Command{0, 999, "PUT __divergent 1"});
  EXPECT_NE(clone.StateDigest(), kv.StateDigest());
}

// ---------------------------------------------------------------------------
// Merkle proofs under random tampering
// ---------------------------------------------------------------------------

class MerkleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MerkleFuzz, TamperedProofsNeverVerify) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    int n = 1 + static_cast<int>(rng.NextBounded(24));
    std::vector<crypto::Digest> leaves;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(crypto::Sha256::Hash(
          "leaf" + std::to_string(trial) + "-" + std::to_string(i)));
    }
    crypto::Digest root = crypto::MerkleRoot(leaves);
    size_t index = rng.NextBounded(n);
    crypto::MerkleProof proof = crypto::BuildMerkleProof(leaves, index);
    ASSERT_TRUE(crypto::VerifyMerkleProof(leaves[index], proof, root));

    if (!proof.siblings.empty()) {
      // Flip one random bit somewhere in the proof.
      crypto::MerkleProof bad = proof;
      size_t which = rng.NextBounded(bad.siblings.size());
      bad.siblings[which][rng.NextBounded(32)] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
      EXPECT_FALSE(crypto::VerifyMerkleProof(leaves[index], bad, root));
    }
    // A wrong root never verifies.
    crypto::Digest wrong_root = root;
    wrong_root[0] ^= 0xff;
    EXPECT_FALSE(crypto::VerifyMerkleProof(leaves[index], proof, wrong_root));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MerkleFuzz, ::testing::Values(11u, 12u, 13u));

// ---------------------------------------------------------------------------
// Signature bit-flip sweep
// ---------------------------------------------------------------------------

TEST(SignatureFuzz, AnyBitFlipInvalidates) {
  crypto::KeyRegistry registry(5, 4);
  crypto::Digest d = crypto::Sha256::Hash("message");
  crypto::Signature sig = registry.Sign(2, d);
  for (int byte = 0; byte < 32; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      crypto::Signature bad = sig;
      bad.tag[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(registry.Verify(bad, d)) << byte << ":" << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Ballot algebra
// ---------------------------------------------------------------------------

TEST(BallotFuzz, TotalOrderLaws) {
  Rng rng(99);
  std::vector<paxos::Ballot> ballots;
  for (int i = 0; i < 100; ++i) {
    ballots.push_back(paxos::Ballot{
        static_cast<int64_t>(rng.NextBounded(10)),
        static_cast<int32_t>(rng.NextBounded(5))});
  }
  for (const auto& a : ballots) {
    EXPECT_FALSE(a < a);
    EXPECT_TRUE(a <= a && a >= a && a == a);
    // Successor is strictly greater for any pid.
    for (int32_t pid = 0; pid < 5; ++pid) {
      EXPECT_TRUE(a < paxos::Ballot::Successor(a, pid));
    }
    for (const auto& b : ballots) {
      // Trichotomy.
      int relations = (a < b) + (b < a) + (a == b);
      EXPECT_EQ(relations, 1);
      for (const auto& c : ballots) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);  // Transitivity.
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator determinism: full-trace replay equality
// ---------------------------------------------------------------------------

struct ChattyMsg : sim::Message {
  explicit ChattyMsg(int h) : hops(h) {}
  const char* TypeName() const override { return "chatty"; }
  int hops;
};

class Chatty : public sim::Process {
 public:
  explicit Chatty(int n) : n_(n) {}
  void OnStart() override {
    Send(static_cast<sim::NodeId>(rng().NextBounded(n_)),
         std::make_shared<ChattyMsg>(40));
  }
  void OnMessage(sim::NodeId, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const ChattyMsg*>(&msg);
    if (m == nullptr || m->hops == 0) return;
    Send(static_cast<sim::NodeId>(rng().NextBounded(n_)),
         std::make_shared<ChattyMsg>(m->hops - 1));
  }

 private:
  int n_;
};

TEST(SimDeterminismFuzz, IdenticalTraceForIdenticalSeed) {
  auto trace_of = [](uint64_t seed) {
    auto sim_owner = sim::Simulation::Builder(seed).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    for (int i = 0; i < 6; ++i) sim.Spawn<Chatty>(6);
    std::vector<std::tuple<sim::Time, int, int>> trace;
    sim.SetTraceFn([&trace](const sim::Envelope& e, sim::Time t) {
      trace.push_back({t, e.from, e.to});
    });
    sim.Start();
    sim.RunFor(5 * sim::kSecond);
    return trace;
  };
  for (uint64_t seed : {1u, 7u, 42u}) {
    auto a = trace_of(seed);
    auto b = trace_of(seed);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "seed " << seed;
  }
  EXPECT_NE(trace_of(1), trace_of(2));
}

}  // namespace
}  // namespace consensus40
