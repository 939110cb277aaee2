#include "smr/erasure.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace consensus40::smr {
namespace {

std::string MakePayload(Rng* rng, size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng->NextBounded(256));
  }
  return s;
}

TEST(Erasure, GfFieldBasics) {
  // Multiplicative inverses really invert, across the whole field.
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(GfMul(static_cast<uint8_t>(a), GfInv(static_cast<uint8_t>(a))),
              1);
  }
  EXPECT_EQ(GfMul(0, 123), 0);
  EXPECT_EQ(GfMul(1, 123), 123);
}

TEST(Erasure, RoundTripAtSeveralGeometries) {
  Rng rng(7);
  const std::string payload = MakePayload(&rng, 1000);
  for (auto [k, n] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {2, 3}, {3, 5}, {4, 7}, {5, 9}, {7, 12}}) {
    std::vector<std::string> shards = ErasureEncode(payload, k, n);
    ASSERT_EQ(static_cast<int>(shards.size()), n);
    std::map<int, std::string> some;
    for (int i = 0; i < k; ++i) some[i] = shards[static_cast<size_t>(i)];
    auto out = ErasureDecode(some, k, n, payload.size());
    ASSERT_TRUE(out.has_value()) << "k=" << k << " n=" << n;
    EXPECT_EQ(*out, payload) << "k=" << k << " n=" << n;
  }
}

TEST(Erasure, EveryKSubsetReconstructs) {
  Rng rng(11);
  const int k = 3, n = 5;
  const std::string payload = MakePayload(&rng, 257);
  std::vector<std::string> shards = ErasureEncode(payload, k, n);
  // All C(5,3) = 10 subsets.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int c = b + 1; c < n; ++c) {
        std::map<int, std::string> subset{{a, shards[static_cast<size_t>(a)]},
                                          {b, shards[static_cast<size_t>(b)]},
                                          {c, shards[static_cast<size_t>(c)]}};
        auto out = ErasureDecode(subset, k, n, payload.size());
        ASSERT_TRUE(out.has_value()) << a << b << c;
        EXPECT_EQ(*out, payload) << a << b << c;
      }
    }
  }
}

TEST(Erasure, FewerThanKShardsFails) {
  const std::string payload = "hello erasure world";
  std::vector<std::string> shards = ErasureEncode(payload, 3, 5);
  std::map<int, std::string> two{{1, shards[1]}, {4, shards[4]}};
  EXPECT_FALSE(ErasureDecode(two, 3, 5, payload.size()).has_value());
}

TEST(Erasure, ShardedCommandSubsetsReassemble) {
  Command cmd{42, 7, "PUT key some-longish-value-payload"};
  cmd.acked = 5;
  ShardedCommand sc = ShardCommand(cmd, 3, 5);
  // Three acceptors holding one rotated shard each: windows {1}, {3}, {4}.
  ShardAssembler asm1;
  EXPECT_TRUE(asm1.Add(sc.Subset(1, 1)));
  EXPECT_FALSE(asm1.Complete());
  EXPECT_TRUE(asm1.Add(sc.Subset(3, 1)));
  EXPECT_TRUE(asm1.Add(sc.Subset(4, 1)));
  ASSERT_TRUE(asm1.Complete());
  std::optional<Entry> back = asm1.Reconstruct();
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->kind(), Entry::Kind::kCommand);
  const Command& rebuilt = back->commands()[0];
  EXPECT_EQ(rebuilt.client, 42);
  EXPECT_EQ(rebuilt.client_seq, 7u);
  EXPECT_EQ(rebuilt.op, cmd.op);
  EXPECT_EQ(rebuilt.acked, 5u);
}

TEST(Erasure, BatchEntriesReassemble) {
  const Entry batch = Entry::Batch(
      {Command{3, 1, "PUT k hello world"}, Command{4, 9, ""},
       Command{3, 2, std::string(300, 'q')}});
  ShardedCommand sc = ShardCommand(batch, 2, 3);
  ShardAssembler assembler;
  ASSERT_TRUE(assembler.Add(sc.Subset(2, 1)));
  ASSERT_TRUE(assembler.Add(sc.Subset(0, 1)));
  std::optional<Entry> back = assembler.Reconstruct();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, batch);
}

TEST(Erasure, UndecodableBatchPayloadFailsReconstruction) {
  // Shards whose checksums all hold but whose payload is no batch: the
  // assembler reports a failed reconstruction, as for a bad checksum.
  ShardSet set = *ShardCommand(Command{1, 1, "not a batch"}, 2, 3)
                      .Subset(0, 3)
                      .shard_set();
  set.header.batch = true;
  ShardAssembler assembler;
  ASSERT_TRUE(assembler.Add(Entry::Shards(set)));
  ASSERT_TRUE(assembler.Complete());
  EXPECT_FALSE(assembler.Reconstruct().has_value());
}

TEST(Erasure, CorruptShardDetectedAndSurvived) {
  Command cmd{1, 1, std::string(200, 'x')};
  ShardedCommand sc = ShardCommand(cmd, 3, 5);
  // Corrupt shard 0's bytes in flight: flip its last byte, keeping the
  // checksum the encoder computed.
  ShardSet corrupted = *sc.Subset(0, 1).shard_set();
  std::string& bytes = corrupted.shards[0].bytes;
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  ShardAssembler assembler;
  EXPECT_TRUE(assembler.Add(Entry::Shards(corrupted)));  // Shard dropped.
  EXPECT_EQ(assembler.distinct(), 0);
  EXPECT_EQ(assembler.corrupt(), 1u);
  // Three clean shards still reconstruct around the corrupt one.
  EXPECT_TRUE(assembler.Add(sc.Subset(1, 1)));
  EXPECT_TRUE(assembler.Add(sc.Subset(2, 1)));
  EXPECT_TRUE(assembler.Add(sc.Subset(3, 1)));
  ASSERT_TRUE(assembler.Complete());
  std::optional<Entry> back = assembler.Reconstruct();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, Entry(cmd));
}

TEST(Erasure, MergedFramesForwardFragments) {
  Command cmd{9, 3, "INSTALL 0 0 7 payload-bytes"};
  ShardedCommand sc = ShardCommand(cmd, 3, 5);
  ShardAssembler a;
  ASSERT_TRUE(a.Add(sc.Subset(0, 2)));  // Shards {0, 1}: not enough.
  EXPECT_FALSE(a.Complete());
  // A peer holding only a merged fragment forwards it; combined with one
  // more shard elsewhere it completes.
  ShardAssembler b;
  ASSERT_TRUE(b.Add(a.Merged()));
  ASSERT_TRUE(b.Add(sc.Subset(4, 1)));
  ASSERT_TRUE(b.Complete());
  ASSERT_TRUE(b.Reconstruct().has_value());
  EXPECT_EQ(*b.Reconstruct(), Entry(cmd));
}

TEST(Erasure, MismatchedFrameRejected) {
  Command cmd1{1, 1, "PUT a 1"};
  Command cmd2{1, 2, "PUT a 2"};
  ShardedCommand s1 = ShardCommand(cmd1, 2, 3);
  ShardedCommand s2 = ShardCommand(cmd2, 2, 3);
  ShardAssembler a;
  ASSERT_TRUE(a.Add(s1.Subset(0, 1)));
  EXPECT_FALSE(a.Add(s2.Subset(1, 1)));  // Different command identity.
  EXPECT_FALSE(a.Add(ShardCommand(cmd1, 1, 3).Subset(1, 1)));  // Geometry.
  EXPECT_FALSE(a.Add(Command{1, 1, "PUT a 1"}));  // Not a shard set.
  EXPECT_EQ(a.distinct(), 1);
}

TEST(Erasure, PropertyRandomPayloadSizes) {
  Rng rng(2024);
  // Random sizes including the degenerate 0 and 1-byte payloads, random
  // geometries, reconstruction from a random k-subset every time.
  std::vector<size_t> sizes{0, 1, 2, 3};
  for (int i = 0; i < 20; ++i) {
    sizes.push_back(static_cast<size_t>(rng.NextBounded(5000)));
  }
  for (size_t len : sizes) {
    const int n = 2 + static_cast<int>(rng.NextBounded(8));  // 2..9
    const int k = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    const std::string payload = MakePayload(&rng, len);
    Command cmd{5, 99, payload};
    ShardedCommand sc = ShardCommand(cmd, k, n);
    // Feed single-shard subsets in a random rotation until complete.
    ShardAssembler assembler;
    const int start = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    for (int j = 0; j < n && !assembler.Complete(); ++j) {
      ASSERT_TRUE(assembler.Add(sc.Subset((start + j) % n, 1)));
    }
    ASSERT_TRUE(assembler.Complete()) << "len=" << len << " k=" << k;
    std::optional<Entry> back = assembler.Reconstruct();
    ASSERT_TRUE(back.has_value()) << "len=" << len << " k=" << k << " n=" << n;
    EXPECT_EQ(back->commands()[0].op, payload)
        << "len=" << len << " k=" << k << " n=" << n;
  }
}

}  // namespace
}  // namespace consensus40::smr
