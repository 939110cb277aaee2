#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/erasure.h"
#include "smr/pipeline.h"
#include "smr/state_machine.h"

namespace consensus40::smr {
namespace {

Command Cmd(int client, uint64_t seq, const std::string& op,
            uint64_t acked = 0) {
  Command cmd{client, seq, op};
  cmd.acked = acked;
  return cmd;
}

TEST(CommandTest, HashDistinguishesFields) {
  Command a = Cmd(1, 1, "PUT x 1");
  EXPECT_EQ(a.Hash(), Cmd(1, 1, "PUT x 1").Hash());
  EXPECT_NE(a.Hash(), Cmd(2, 1, "PUT x 1").Hash());
  EXPECT_NE(a.Hash(), Cmd(1, 2, "PUT x 1").Hash());
  EXPECT_NE(a.Hash(), Cmd(1, 1, "PUT x 2").Hash());
}

TEST(CommandTest, ToStringFormat) {
  EXPECT_EQ(Cmd(3, 7, "GET k").ToString(), "c3#7:GET k");
}

TEST(KvStoreTest, PutGetDel) {
  KvStore kv;
  EXPECT_EQ(kv.Apply(Cmd(0, 1, "PUT a 1")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "GET a")), "1");
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "DEL a")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 4, "GET a")), "NIL");
  EXPECT_EQ(kv.Apply(Cmd(0, 5, "DEL a")), "NIL");
}

TEST(KvStoreTest, CasSemantics) {
  KvStore kv;
  kv.Apply(Cmd(0, 1, "PUT a 1"));
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "CAS a 2 3")), "FAIL");
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "CAS a 1 3")), "OK");
  EXPECT_EQ(*kv.Get("a"), "3");
}

TEST(KvStoreTest, SetnxIsWriteOnce) {
  KvStore kv;
  // First proposal wins; every later proposal reads the established
  // value back — the write-once primitive behind replicated transaction
  // commit records (a recovering participant proposing "A" against an
  // already-decided "C" must learn "C", not overwrite it).
  EXPECT_EQ(kv.Apply(Cmd(0, 1, "SETNX d C")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "SETNX d A")), "C");
  EXPECT_EQ(kv.Apply(Cmd(1, 1, "SETNX d A")), "C");
  EXPECT_EQ(*kv.Get("d"), "C");
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "SETNX")), "ERR");
}

TEST(KvStoreTest, IncCountsFromZero) {
  KvStore kv;
  EXPECT_EQ(kv.Apply(Cmd(0, 1, "INC ctr")), "1");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "INC ctr")), "2");
}

TEST(KvStoreTest, IncPastInt64MaxErrsAndKeepsTheValue) {
  KvStore kv;
  EXPECT_EQ(kv.Apply(Cmd(0, 1, "PUT n 9223372036854775807")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "INC n")), "ERR");
  EXPECT_EQ(*kv.Get("n"), "9223372036854775807");
  // A stored value past the range parses as the maximum too.
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "PUT big 99999999999999999999")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 4, "INC big")), "ERR");
  EXPECT_EQ(*kv.Get("big"), "99999999999999999999");
  EXPECT_EQ(kv.Apply(Cmd(0, 5, "PUT m 9223372036854775806")), "OK");
  EXPECT_EQ(kv.Apply(Cmd(0, 6, "INC m")), "9223372036854775807");
}

TEST(KvStoreTest, TokensSplitOnEveryCLocaleSpace) {
  // The separators of operator>> in the C locale, and nothing else.
  KvStore kv;
  EXPECT_EQ(kv.Apply(Cmd(0, 1, " \t PUT\nk\v\fv\r ")), "OK");
  EXPECT_EQ(*kv.Get("k"), "v");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "PUT\x01k w")), "ERR");  // \x01 joins.
  // Tokens past an op's arguments are ignored.
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "GET k extra tokens")), "v");
  EXPECT_EQ(kv.Apply(Cmd(0, 4, "\t\n")), "ERR");
}

TEST(KvStoreTest, MalformedOpsError) {
  KvStore kv;
  EXPECT_EQ(kv.Apply(Cmd(0, 1, "")), "ERR");
  EXPECT_EQ(kv.Apply(Cmd(0, 2, "FROB x")), "ERR");
  EXPECT_EQ(kv.Apply(Cmd(0, 3, "PUT onlykey")), "ERR");
}

TEST(KvStoreTest, StateDigestReflectsContents) {
  KvStore a, b;
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  a.Apply(Cmd(0, 1, "PUT x 1"));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Apply(Cmd(0, 1, "PUT x 1"));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(KvStoreTest, SameCommandsSameOrderSameState) {
  // The SMR property from the deck: identical logs => identical replicas.
  KvStore a, b;
  std::vector<Command> cmds = {
      Cmd(0, 1, "PUT x 1"), Cmd(1, 1, "INC y"),  Cmd(0, 2, "CAS x 1 2"),
      Cmd(2, 1, "DEL z"),   Cmd(1, 2, "PUT z 9"),
  };
  for (const Command& c : cmds) a.Apply(c);
  for (const Command& c : cmds) b.Apply(c);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(EntryTest, KindsAndTheirCommands) {
  const Command single = Cmd(3, 4, "INC y", 2);
  Entry one = single;
  EXPECT_EQ(one.kind(), Entry::Kind::kCommand);
  ASSERT_EQ(one.commands().size(), 1u);
  EXPECT_EQ(one.commands()[0], single);
  EXPECT_EQ(one.commands()[0].acked, 2u);

  // A batch carries its commands in order, acks included (they drive
  // deterministic session pruning on apply, so they ride in the log).
  const std::vector<Command> cmds = {Cmd(1, 1, "PUT k hello world"),
                                     Cmd(2, 7, "INC ctr", 6),
                                     Cmd(1, 2, "GET k", 1)};
  Entry batch = Entry::Batch(cmds);
  EXPECT_EQ(batch.kind(), Entry::Kind::kBatch);
  ASSERT_EQ(batch.commands().size(), 3u);
  for (size_t i = 0; i < cmds.size(); ++i) {
    EXPECT_EQ(batch.commands()[i], cmds[i]);
    EXPECT_EQ(batch.commands()[i].acked, cmds[i].acked);
  }

  // Protocol-internal entries carry no client commands.
  EXPECT_EQ(Entry::Noop().kind(), Entry::Kind::kNoop);
  EXPECT_TRUE(Entry::Noop().commands().empty());
  Entry config = Entry::Config({0, 2, 5});
  EXPECT_EQ(config.kind(), Entry::Kind::kConfig);
  EXPECT_TRUE(config.commands().empty());
  ASSERT_NE(config.config(), nullptr);
  EXPECT_EQ(*config.config(), (std::vector<int32_t>{0, 2, 5}));
  EXPECT_EQ(one.config(), nullptr);
  EXPECT_EQ(batch.shard_set(), nullptr);
}

TEST(EntryTest, CopiesShareBatchCommands) {
  Entry batch = Entry::Batch({Cmd(1, 1, "INC a"), Cmd(2, 1, "INC b")});
  Entry copy = batch;
  EXPECT_EQ(copy.commands().data(), batch.commands().data());
  EXPECT_EQ(copy, batch);
}

TEST(EntryTest, EqualityIsByKindAndContent) {
  EXPECT_EQ(Entry(Cmd(1, 1, "INC x", 0)), Entry(Cmd(1, 1, "INC x", 5)));
  EXPECT_NE(Entry(Cmd(1, 1, "INC x")), Entry::Batch({Cmd(1, 1, "INC x")}));
  EXPECT_NE(Entry::Batch({Cmd(1, 1, "INC x", 0)}),
            Entry::Batch({Cmd(1, 1, "INC x", 1)}));
  EXPECT_EQ(Entry::Noop(), Entry::Noop());
  EXPECT_NE(Entry::Noop(), Entry::Config({}));
  EXPECT_NE(Entry::Config({0, 1}), Entry::Config({0, 2}));
}

// Entry::ByteSize() is 16 plus the length of the text form each kind is
// accounted as. These encoders write those forms and are the reference.
std::string BatchText(const std::vector<Command>& cmds) {
  std::string out;
  for (const Command& cmd : cmds) {
    out += std::to_string(cmd.client) + " " + std::to_string(cmd.client_seq) +
           " " + std::to_string(cmd.acked) + " " +
           std::to_string(cmd.op.size()) + " " + cmd.op;
  }
  return out;
}

std::string ConfigText(const std::vector<int32_t>& members) {
  std::string out = "CONFIG";
  for (int32_t member : members) out += " " + std::to_string(member);
  return out;
}

std::string ShardSetText(const ShardSet& set) {
  const ShardSet::Header& h = set.header;
  std::string out = (h.batch ? "-4" : std::to_string(h.client)) + " " +
                    std::to_string(h.client_seq) + " " +
                    std::to_string(h.acked) + " " + std::to_string(h.k) +
                    " " + std::to_string(h.n) + " " +
                    std::to_string(h.payload_len) + " " +
                    std::to_string(h.payload_check) + " " +
                    std::to_string(set.shards.size()) + " ";
  for (const Shard& shard : set.shards) {
    out += std::to_string(shard.index) + " " +
           std::to_string(shard.bytes.size()) + " " +
           std::to_string(shard.check) + " " + shard.bytes;
  }
  return out;
}

int TextSize(const std::string& text) {
  return 16 + static_cast<int>(text.size());
}

TEST(EntryTest, ByteSizeMatchesTextForm) {
  EXPECT_EQ(Entry::Noop().ByteSize(), TextSize("NOOP"));
  const std::vector<int32_t> clients = {INT32_MIN, -4, -1, 0, 7, 10,
                                        123456, INT32_MAX};
  const std::vector<uint64_t> numbers = {0, 1, 9, 10, 99, 100, 65536,
                                         UINT64_MAX};
  const std::vector<size_t> op_lengths = {0, 1, 9, 10, 99, 100, 255, 300};
  for (size_t len : op_lengths) {
    std::vector<Command> cmds;
    for (size_t i = 0; i < clients.size(); ++i) {
      cmds.push_back(Cmd(clients[i], numbers[i],
                         std::string(len, static_cast<char>('a' + i)),
                         numbers[(i + 3) % numbers.size()]));
      const Entry one = cmds.back();
      EXPECT_EQ(one.ByteSize(), TextSize(cmds.back().op));
      const Entry batch = Entry::Batch(cmds);
      EXPECT_EQ(batch.ByteSize(), TextSize(BatchText(cmds)))
          << len << " bytes, " << cmds.size() << " commands";
    }
  }
  EXPECT_EQ(Entry::Batch({}).ByteSize(), TextSize(""));
  for (const std::vector<int32_t>& members :
       std::vector<std::vector<int32_t>>{
           {}, {0}, {0, 1, 2}, {0, 2, 5, 10, 123}, {-1, INT32_MAX}}) {
    EXPECT_EQ(Entry::Config(members).ByteSize(),
              TextSize(ConfigText(members)));
  }
}

TEST(EntryTest, ShardSetByteSizeMatchesFrame) {
  auto check = [](const Entry& entry) {
    ASSERT_NE(entry.shard_set(), nullptr);
    EXPECT_EQ(entry.ByteSize(), TextSize(ShardSetText(*entry.shard_set())))
        << entry.ToString();
  };
  const std::vector<Entry> payloads = {
      Entry(Cmd(42, 7, "PUT key some-longish-value-payload", 5)),
      Entry(Cmd(0, 1, "")),
      Entry(Cmd(INT32_MAX, UINT64_MAX, std::string(300, 'v'), UINT64_MAX)),
      Entry::Batch({Cmd(1, 1, "INC a"), Cmd(-3, 12, "PUT b 2", 11)}),
      Entry::Batch({Cmd(9, 100, std::string(257, 'z'), 99)})};
  for (auto [k, n] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {2, 3}, {3, 5}, {4, 7}, {5, 9}, {7, 12}}) {
    for (const Entry& payload : payloads) {
      ShardedCommand sc = ShardCommand(payload, k, n);
      for (int first = 0; first < n; ++first) {
        for (int count = 1; count <= n; ++count) {
          check(sc.Subset(first, count));
        }
      }
      ShardAssembler assembler;
      ASSERT_TRUE(assembler.Add(sc.Subset(n - 1, 1)));
      check(assembler.Merged());
      ASSERT_TRUE(assembler.Add(sc.Subset(0, n)));
      check(assembler.Merged());
      std::optional<Entry> back = assembler.Reconstruct();
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, payload);
    }
  }
}

TEST(DedupingExecutorTest, OutOfOrderWindowArrivalsExecuteExactlyOnce) {
  // A windowed client's seqs can reach the log out of order; the session
  // must neither drop them as "duplicates" nor double-apply them.
  KvStore kv;
  DedupingExecutor dedup;
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 2, "INC x")), "1");  // Ahead of seq 1.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "2");  // Fills the gap.
  // Retries of both return their own cached results without re-execution.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 2, "INC x")), "1");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "2");
  EXPECT_EQ(*kv.Get("x"), "2");
  // Results are retained until the client ACKS them (nothing is pruned
  // on mere contiguity: any unacked seq may still be retried). A later
  // command piggybacking acked=2 prunes both and advances the floor.
  EXPECT_EQ(dedup.sessions().at(1).above.size(), 2u);
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 3, "INC x", /*acked=*/2)), "3");
  const DedupingExecutor::Session& s = dedup.sessions().at(1);
  EXPECT_EQ(s.floor, 2u);
  EXPECT_EQ(s.above.size(), 1u);  // Only the unacked seq 3 remains.
}

TEST(DedupingExecutorTest, ReplyLostRetryGetsItsOwnResultNotANeighbours) {
  // THE windowed-dedup regression: client window > 1, seq 1's reply is
  // lost while seqs 2..5 complete and are acked. The late retry of seq 1
  // must return seq 1's own result — under the old contiguous-floor
  // scheme it returned the highest contiguous op's cached result (seq
  // 5's), handing the client a different operation's outcome.
  KvStore kv;
  DedupingExecutor dedup;
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "1");
  // Seq 1 stays unacked (its reply never arrived), so later commands
  // piggyback acked=0 even as their own replies are consumed.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 2, "INC x")), "2");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 3, "SETNX d C")), "OK");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 4, "INC x")), "3");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 5, "INC x")), "4");
  // Retry of the reply-lost op: exact result, both paths.
  ASSERT_NE(dedup.Lookup(1, 1), nullptr);
  EXPECT_EQ(*dedup.Lookup(1, 1), "1");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "1");
  // Same for a 2PC-decision-style SETNX mid-window.
  EXPECT_EQ(*dedup.Lookup(1, 3), "OK");
  EXPECT_EQ(*kv.Get("x"), "4");  // Nothing re-executed.
}

TEST(DedupingExecutorTest, FloorSkipsOffLogSeqsOnceAcked) {
  // Read-index reads consume seqs without ever reaching the log. The
  // acked frontier still advances the floor past them, so one off-log
  // seq cannot pin the session's memory forever.
  KvStore kv;
  DedupingExecutor dedup;
  dedup.Apply(&kv, Cmd(1, 1, "INC x"));
  // Seq 2 was a read-index read (never applied); seq 3 acks both.
  dedup.Apply(&kv, Cmd(1, 3, "INC x", /*acked=*/2));
  const DedupingExecutor::Session& s = dedup.sessions().at(1);
  EXPECT_EQ(s.floor, 2u);
  ASSERT_EQ(s.above.size(), 1u);
  EXPECT_EQ(s.above.count(3), 1u);
}

TEST(DedupingExecutorTest, LookupIsTheDuplicateFastPath) {
  KvStore kv;
  DedupingExecutor dedup;
  EXPECT_EQ(dedup.Lookup(1, 1), nullptr);
  dedup.Apply(&kv, Cmd(1, 1, "INC x"));
  dedup.Apply(&kv, Cmd(1, 3, "INC x"));  // Out of order: unacked window.
  ASSERT_NE(dedup.Lookup(1, 1), nullptr);
  EXPECT_EQ(*dedup.Lookup(1, 1), "1");
  ASSERT_NE(dedup.Lookup(1, 3), nullptr);
  EXPECT_EQ(*dedup.Lookup(1, 3), "2");
  EXPECT_EQ(dedup.Lookup(1, 2), nullptr);  // The gap is not executed.
  EXPECT_EQ(dedup.Lookup(9, 1), nullptr);  // Unknown client.
  // Acked seqs keep answering non-null (the leader must not re-propose)
  // but with a placeholder: the exact result was discarded and the
  // client, having acked, can never consume the reply.
  dedup.Apply(&kv, Cmd(1, 4, "INC x", /*acked=*/3));
  ASSERT_NE(dedup.Lookup(1, 1), nullptr);
  EXPECT_EQ(*dedup.Lookup(1, 1), "");
}

TEST(DedupingExecutorTest, DedupCacheAnswersRetriesAcrossAMigrateFence) {
  // The exactly-once contract a live shard move rests on: an op that
  // executed BEFORE the range was fenced away must keep answering its
  // retries from the dedup cache — the cache is consulted before the
  // store, so the fence never converts an executed op's retry into a
  // MOVED bounce (which the client would treat as "not executed" and
  // re-issue at the new owner: a double-apply).
  KvStore kv;
  DedupingExecutor dedup;
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "1");
  // MIGRATE fences the whole space (lo 0, hi 0 = 2^64) at epoch 2 and
  // returns the snapshot payload containing the counter.
  std::string payload = dedup.Apply(&kv, Cmd(2, 1, "MIGRATE 0 0 2"));
  auto pairs = DecodeKvPairs(payload);
  ASSERT_TRUE(pairs.has_value());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].first, "x");
  EXPECT_EQ((*pairs)[0].second, "1");
  // The pre-fence op's retry: cached result, not MOVED, and no
  // re-execution behind the fence.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 1, "INC x")), "1");
  EXPECT_EQ(*kv.Get("x"), "1");
  // A NEW op on the fenced key bounces with the flip epoch.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 2, "INC x")), "MOVED 2");
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 3, "GET x")), "MOVED 2");
  // Internal "__" keys (decision records, fences) are never fenced.
  EXPECT_EQ(dedup.Apply(&kv, Cmd(1, 4, "SETNX __d.1 C")), "OK");
  // Installing the payload at the (unfenced) destination restores the
  // exact pre-fence state.
  KvStore dest;
  DedupingExecutor dest_dedup;
  EXPECT_EQ(dest_dedup.Apply(&dest, Cmd(2, 2, "INSTALL 0 0 2 " + payload)),
            "OK 1");
  EXPECT_EQ(*dest.Get("x"), "1");
  EXPECT_EQ(dest_dedup.Apply(&dest, Cmd(1, 5, "INC x")), "2");
}

TEST(KvStoreTest, InstallOutranksStaleFenceOnRoundTripMove) {
  // A -> B -> A: the range leaves A (fence stamped epoch 2) and comes
  // back (INSTALL stamped epoch 3). The returning INSTALL's ownership
  // record must outrank the stale fence, or A bounces every op on the
  // range with "MOVED 2" forever — a livelock, since clients' tables
  // route the range straight back to A.
  KvStore a;
  EXPECT_EQ(a.Apply(Cmd(1, 1, "PUT x 1")), "OK");
  std::string payload = a.Apply(Cmd(2, 1, "MIGRATE 0 0 2"));
  EXPECT_EQ(a.Apply(Cmd(1, 2, "GET x")), "MOVED 2");
  EXPECT_EQ(a.Apply(Cmd(2, 2, "INSTALL 0 0 3 " + payload)), "OK 1");
  EXPECT_EQ(a.Apply(Cmd(1, 3, "GET x")), "1");
  // Moving away AGAIN re-fences at a higher epoch: newest stamp wins.
  a.Apply(Cmd(2, 3, "MIGRATE 0 0 4"));
  EXPECT_EQ(a.Apply(Cmd(1, 4, "GET x")), "MOVED 4");
}

TEST(KvStoreTest, InstallReownsOnlyTheInstalledSubrange) {
  // Only the installed [lo, hi) is re-owned: hashes under the fence but
  // outside the returning range keep bouncing.
  std::string low, high;  // One key hashing into each half of the space.
  for (int i = 0; low.empty() || high.empty(); ++i) {
    std::string k = "k" + std::to_string(i);
    std::string& slot = KeyHash(k) < (1ull << 63) ? low : high;
    if (slot.empty()) slot = k;
  }
  KvStore a;
  a.Apply(Cmd(2, 1, "DISOWN 0 0 2"));  // Whole space fenced at epoch 2.
  // The low half returns at epoch 3 (empty payload).
  a.Apply(Cmd(2, 2, "INSTALL 0 9223372036854775808 3 "));
  EXPECT_EQ(a.Apply(Cmd(1, 1, "GET " + low)), "NIL");
  EXPECT_EQ(a.Apply(Cmd(1, 2, "GET " + high)), "MOVED 2");
}

TEST(KvStoreTest, InstallRejectsMalformedHeader) {
  KvStore a;
  EXPECT_EQ(a.Apply(Cmd(1, 1, "INSTALL ")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 2, "INSTALL 0 0")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 3, "INSTALL 0 x 2 ")), "ERR");
  // Numbers are decimal digits that fit in a u64: no sign, no
  // whitespace, no wrap.
  EXPECT_EQ(a.Apply(Cmd(1, 4, "INSTALL +0 5 1 2:ab1:c")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 5, "INSTALL \t0 5 1 2:ab1:c")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 6, "INSTALL 0 5 1 +2:ab1:c")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 7, "INSTALL 0 5 1  2:ab1:c")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 8, "INSTALL 0 18446744073709551616 1 ")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 9, "DISOWN -1 0 7")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 10, "MIGRATE 0 0 -2")), "ERR");
  EXPECT_EQ(a.Apply(Cmd(1, 11, "DISOWN 0x10 0 7")), "ERR");
  // None of them installed a pair or fenced a range.
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.MovedEpoch("k").has_value());
  // The well-formed header still installs.
  EXPECT_EQ(a.Apply(Cmd(1, 12, "INSTALL 0 5 1 2:ab1:c")), "OK 1");
  EXPECT_EQ(*a.Get("ab"), "c");
}

TEST(KvStoreTest, DecodeKvPairsRejectsAWrappingLength) {
  // colon + 1 + len wraps past 2^64 for this length; compared against
  // the bytes remaining it is simply too long.
  EXPECT_FALSE(DecodeKvPairs("1:a18446744073709551614:abcd1:z").has_value());
  EXPECT_FALSE(DecodeKvPairs("1:a2:b").has_value());    // Runs past the end.
  EXPECT_FALSE(DecodeKvPairs("+1:a1:b").has_value());   // Signed length.
  EXPECT_FALSE(DecodeKvPairs(" 1:a1:b").has_value());   // Padded length.
  auto pairs = DecodeKvPairs("1:a3:b:c");
  ASSERT_TRUE(pairs.has_value());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].first, "a");
  EXPECT_EQ((*pairs)[0].second, "b:c");
  EXPECT_TRUE(DecodeKvPairs("").has_value());
}

TEST(ReplicatedLogTest, OutOfOrderFillThenApply) {
  ReplicatedLog log;
  KvStore kv;
  log.Set(1, Cmd(0, 2, "PUT b 2"));
  log.CommitThrough(1);
  // Gap at index 0 blocks application.
  EXPECT_TRUE(log.ApplyCommitted(&kv).empty());
  EXPECT_EQ(log.applied_frontier(), 0u);

  log.Set(0, Cmd(0, 1, "PUT a 1"));
  std::vector<std::string> out = log.ApplyCommitted(&kv);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(log.applied_frontier(), 2u);
  EXPECT_EQ(*kv.Get("a"), "1");
  EXPECT_EQ(*kv.Get("b"), "2");
}

TEST(ReplicatedLogTest, CommitFrontierMonotone) {
  ReplicatedLog log;
  log.CommitThrough(5);
  log.CommitThrough(2);
  EXPECT_EQ(log.commit_frontier(), 6u);
}

TEST(ReplicatedLogTest, CommittedPrefixStopsAtGap) {
  ReplicatedLog log;
  log.Set(0, Cmd(0, 1, "a"));
  log.Set(2, Cmd(0, 3, "c"));
  log.CommitThrough(2);
  std::vector<Command> prefix = log.CommittedPrefix();
  ASSERT_EQ(prefix.size(), 1u);
  EXPECT_EQ(prefix[0].op, "a");
}

TEST(ReplicatedLogTest, BatchCommandsInPrefixAndCallbackApply) {
  ReplicatedLog log;
  KvStore kv;
  DedupingExecutor dedup;
  log.Set(0, Cmd(1, 1, "INC x"));
  log.Set(1, Entry::Batch({Cmd(1, 2, "INC x"), Cmd(2, 1, "INC x")}));
  log.CommitThrough(1);

  // The callback fires once per CLIENT command (3, not 2), reporting the
  // batch's slot index for its sub-commands.
  std::vector<std::pair<uint64_t, std::string>> applied;
  log.ApplyCommitted(&kv, &dedup,
                     [&](uint64_t index, const Command&,
                         const std::string& result) {
                       applied.push_back({index, result});
                     });
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0], (std::pair<uint64_t, std::string>{0, "1"}));
  EXPECT_EQ(applied[1], (std::pair<uint64_t, std::string>{1, "2"}));
  EXPECT_EQ(applied[2], (std::pair<uint64_t, std::string>{1, "3"}));

  // CommittedPrefix sees the same per-command view.
  std::vector<Command> prefix = log.CommittedPrefix();
  ASSERT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix[1], Cmd(1, 2, "INC x"));
  EXPECT_EQ(prefix[2], Cmd(2, 1, "INC x"));
}

TEST(ReplicatedLogTest, TruncatePrefixDropsSlotsAndIgnoresStaleWrites) {
  ReplicatedLog log;
  KvStore kv;
  for (uint64_t i = 0; i < 4; ++i) {
    log.Set(i, Cmd(1, i + 1, "INC x"));
  }
  log.CommitThrough(3);
  log.ApplyCommitted(&kv);
  log.TruncatePrefix(3);

  EXPECT_EQ(log.start(), 3u);
  EXPECT_EQ(log.Get(1), nullptr);  // Folded into the checkpoint.
  ASSERT_NE(log.Get(3), nullptr);
  // A late write below start() (e.g. a straggler Chosen) is a no-op, not
  // a violation.
  log.Set(1, Cmd(9, 9, "INC y"));
  EXPECT_EQ(log.Get(1), nullptr);
  // The retained prefix restarts at start().
  std::vector<Command> prefix = log.CommittedPrefix();
  ASSERT_EQ(prefix.size(), 1u);
  EXPECT_EQ(prefix[0].client_seq, 4u);
}

TEST(ReplicatedLogTest, ResetToSnapshotRebasesALaggingLog) {
  ReplicatedLog log;
  log.Set(0, Cmd(1, 1, "INC x"));
  log.CommitThrough(0);
  log.ResetToSnapshot(5);  // Snapshot covers [0, 5).
  EXPECT_EQ(log.start(), 5u);
  EXPECT_EQ(log.commit_frontier(), 5u);
  EXPECT_EQ(log.applied_frontier(), 5u);
  EXPECT_TRUE(log.CommittedPrefix().empty());
  // Replication resumes above the snapshot.
  KvStore kv;
  log.Set(5, Cmd(1, 6, "INC x"));
  log.CommitThrough(5);
  EXPECT_EQ(log.ApplyCommitted(&kv).size(), 1u);
}

TEST(PrefixConsistencyTest, DetectsDivergence) {
  ReplicatedLog a, b;
  a.Set(0, Cmd(0, 1, "PUT x 1"));
  b.Set(0, Cmd(0, 1, "PUT x 1"));
  a.Set(1, Cmd(0, 2, "PUT y 1"));
  b.Set(1, Cmd(9, 9, "PUT y 666"));
  a.CommitThrough(1);
  b.CommitThrough(1);
  std::string err = CheckPrefixConsistency({&a, &b});
  EXPECT_NE(err.find("diverge at index 1"), std::string::npos) << err;
}

TEST(PrefixConsistencyTest, AcceptsLaggingReplica) {
  ReplicatedLog a, b;
  a.Set(0, Cmd(0, 1, "PUT x 1"));
  a.Set(1, Cmd(0, 2, "PUT y 1"));
  a.CommitThrough(1);
  b.Set(0, Cmd(0, 1, "PUT x 1"));
  b.CommitThrough(0);
  EXPECT_EQ(CheckPrefixConsistency({&a, &b}), "");
}


// ---------------------------------------------------------------------------
// LeaderPipeline, driven through recording hooks: a cut appends the cut
// entries to `log`, sends are recorded, and timers wait in a list until
// the test fires them.
// ---------------------------------------------------------------------------

struct TestReply : ClientReplyMsg {
  using ClientReplyMsg::ClientReplyMsg;
  const char* TypeName() const override { return "reply"; }
};

class PipelineHarness {
 public:
  PipelineHarness(int batch_size, sim::Duration batch_delay)
      : pipeline({batch_size, batch_delay},
                 {[this] { Cut(); },
                  [this](sim::NodeId to, sim::MessagePtr msg) {
                    sent.emplace_back(
                        to, std::static_pointer_cast<const TestReply>(msg));
                  },
                  [](uint64_t seq,
                     const std::string& result) -> sim::MessagePtr {
                    return std::make_shared<TestReply>(seq, result, 0);
                  },
                  [this](sim::Duration, std::function<void()> fn) {
                    timers.push_back(std::move(fn));
                    return static_cast<uint64_t>(timers.size());
                  },
                  [this](uint64_t timer) { cancelled.insert(timer); }}) {}

  void Cut() {
    pipeline.DisarmLinger();
    while (pipeline.HasQueued()) {
      const uint64_t index = log.size();
      log.push_back(pipeline.CutNext(index));
    }
  }
  /// Fires every armed, uncancelled timer once.
  void FireTimers() {
    for (size_t i = 0; i < timers.size(); ++i) {
      if (cancelled.count(i + 1) == 0 && fired.insert(i + 1).second) {
        timers[i]();
      }
    }
  }
  size_t ArmedTimers() const {
    size_t armed = 0;
    for (size_t i = 0; i < timers.size(); ++i) {
      armed += cancelled.count(i + 1) == 0 && fired.count(i + 1) == 0;
    }
    return armed;
  }

  std::vector<Entry> log;
  std::vector<std::pair<sim::NodeId, std::shared_ptr<const TestReply>>> sent;
  std::vector<std::function<void()>> timers;
  std::set<uint64_t> cancelled, fired;
  LeaderPipeline pipeline;
};

TEST(LeaderPipelineTest, CutsAtBatchSize) {
  PipelineHarness h(/*batch_size=*/3, 5 * sim::kMillisecond);
  h.pipeline.Admit(9, Cmd(1, 1, "INC x"), /*leading=*/true);
  h.pipeline.Admit(9, Cmd(1, 2, "INC x"), true);
  EXPECT_TRUE(h.log.empty()) << "cut before the batch filled";
  h.pipeline.Admit(9, Cmd(1, 3, "INC x"), true);
  ASSERT_EQ(h.log.size(), 1u);
  EXPECT_EQ(h.log[0].kind(), Entry::Kind::kBatch);
  EXPECT_EQ(h.log[0].commands().size(), 3u);
  EXPECT_EQ(h.pipeline.batches_cut(), 1);
  EXPECT_EQ(h.pipeline.queued_ops(), 0u);
  EXPECT_EQ(h.pipeline.inflight_ops(), 3u);
  EXPECT_EQ(h.ArmedTimers(), 0u) << "the cut must disarm the linger";

  // Unbatched, a lone command ships as a command entry.
  PipelineHarness raw(/*batch_size=*/1, 0);
  raw.pipeline.Admit(9, Cmd(1, 1, "INC x"), true);
  ASSERT_EQ(raw.log.size(), 1u);
  EXPECT_EQ(raw.log[0], Cmd(1, 1, "INC x"));
  EXPECT_EQ(raw.pipeline.batches_cut(), 0);
}

TEST(LeaderPipelineTest, LingerArmedOnceOnFirstEnqueue) {
  PipelineHarness h(/*batch_size=*/4, 5 * sim::kMillisecond);
  h.pipeline.Admit(9, Cmd(1, 1, "INC x"), true);
  EXPECT_EQ(h.timers.size(), 1u);
  h.pipeline.Admit(9, Cmd(1, 2, "INC x"), true);
  h.pipeline.Admit(9, Cmd(2, 1, "INC y"), true);
  EXPECT_EQ(h.timers.size(), 1u) << "later enqueues must not re-arm";
  EXPECT_TRUE(h.log.empty());
  h.FireTimers();
  ASSERT_EQ(h.log.size(), 1u);
  EXPECT_EQ(h.log[0].commands().size(), 3u);
  // The next first enqueue arms a fresh linger.
  h.pipeline.Admit(9, Cmd(1, 3, "INC x"), true);
  EXPECT_EQ(h.timers.size(), 2u);

  // A replica still running its election queues without lingering.
  PipelineHarness electing(/*batch_size=*/4, 5 * sim::kMillisecond);
  electing.pipeline.Admit(9, Cmd(1, 1, "INC x"), /*leading=*/false);
  EXPECT_TRUE(electing.timers.empty());
  EXPECT_EQ(electing.pipeline.queued_ops(), 1u);
}

TEST(LeaderPipelineTest, RetryReRegistersReplyAddressWithoutSecondEntry) {
  PipelineHarness h(/*batch_size=*/1, 0);
  h.pipeline.Admit(5, Cmd(1, 1, "INC x"), true);
  ASSERT_EQ(h.log.size(), 1u);
  // The client retried through another node while the entry was in
  // flight: one entry, and the reply goes to the newest address.
  h.pipeline.Admit(6, Cmd(1, 1, "INC x"), true);
  EXPECT_EQ(h.log.size(), 1u);
  EXPECT_EQ(h.pipeline.inflight_ops(), 1u);
  EXPECT_TRUE(h.sent.empty());
  h.pipeline.ApplyEntry(h.log[0]);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, 6);
  EXPECT_EQ(h.sent[0].second->result, "1");
  EXPECT_EQ(h.pipeline.inflight_ops(), 0u);
  EXPECT_EQ(h.pipeline.executed().size(), 1u);
  // A retry after apply is answered from the dedup cache.
  h.pipeline.Admit(5, Cmd(1, 1, "INC x"), true);
  EXPECT_EQ(h.log.size(), 1u);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].first, 5);
  EXPECT_EQ(h.sent[1].second->result, "1");
}

TEST(LeaderPipelineTest, DeposeDropsTheQueue) {
  PipelineHarness h(/*batch_size=*/4, 5 * sim::kMillisecond);
  h.pipeline.Admit(9, Cmd(1, 1, "INC x"), true);
  h.pipeline.Admit(9, Cmd(1, 2, "INC x"), true);
  EXPECT_EQ(h.pipeline.queued_ops(), 2u);
  EXPECT_EQ(h.ArmedTimers(), 1u);
  h.pipeline.Depose();
  EXPECT_EQ(h.pipeline.queued_ops(), 0u);
  EXPECT_EQ(h.pipeline.inflight_ops(), 0u);
  EXPECT_EQ(h.ArmedTimers(), 0u) << "deposition must stop the linger";
  h.FireTimers();
  EXPECT_TRUE(h.log.empty());
  // Nothing lingers as "in flight": a retry queues afresh.
  h.pipeline.Admit(9, Cmd(1, 1, "INC x"), true);
  EXPECT_EQ(h.pipeline.queued_ops(), 1u);
}

}  // namespace
}  // namespace consensus40::smr
