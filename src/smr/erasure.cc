#include "smr/erasure.h"

#include <cassert>
#include <charconv>

namespace consensus40::smr {

namespace {

/// GF(256) log/exp tables over the 0x11d polynomial, generator 0x02.
/// Built once; every table access after that is branch-free.
struct GfTables {
  uint8_t exp[512];
  uint8_t log[256];
  GfTables() {
    int x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<uint8_t>(x);
      log[x] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // Undefined; callers guard zero.
  }
};

const GfTables& Tables() {
  static const GfTables t;
  return t;
}

/// x^e for shard index x (0 means: 1 when e == 0, else 0).
uint8_t GfPow(int x, int e) {
  if (e == 0) return 1;
  if (x == 0) return 0;
  const GfTables& t = Tables();
  return t.exp[(t.log[x] * e) % 255];
}

/// Solves the k x k Vandermonde system for the given shard indices:
/// returns the inverse of A where A[r][j] = x_r^j, or empty on a
/// singular matrix (impossible for distinct indices; kept as a guard).
std::vector<uint8_t> InvertVandermonde(const std::vector<int>& xs, int k) {
  // Gauss–Jordan over GF(256) on [A | I].
  std::vector<uint8_t> a(static_cast<size_t>(k) * k);
  std::vector<uint8_t> inv(static_cast<size_t>(k) * k, 0);
  for (int r = 0; r < k; ++r) {
    for (int j = 0; j < k; ++j) a[r * k + j] = GfPow(xs[r], j);
    inv[r * k + r] = 1;
  }
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (a[r * k + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) return {};
    if (pivot != col) {
      for (int j = 0; j < k; ++j) {
        std::swap(a[pivot * k + j], a[col * k + j]);
        std::swap(inv[pivot * k + j], inv[col * k + j]);
      }
    }
    const uint8_t d = GfInv(a[col * k + col]);
    for (int j = 0; j < k; ++j) {
      a[col * k + j] = GfMul(a[col * k + j], d);
      inv[col * k + j] = GfMul(inv[col * k + j], d);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const uint8_t f = a[r * k + col];
      if (f == 0) continue;
      for (int j = 0; j < k; ++j) {
        a[r * k + j] = static_cast<uint8_t>(a[r * k + j] ^
                                            GfMul(f, a[col * k + j]));
        inv[r * k + j] = static_cast<uint8_t>(inv[r * k + j] ^
                                              GfMul(f, inv[col * k + j]));
      }
    }
  }
  return inv;
}

/// A batch's payload: "<client> <seq> <acked> <len> <op>" per command —
/// whitespace-delimited headers, byte-exact ops (ops may contain spaces).
/// `acked` rides along so every replica applying the rebuilt batch
/// advances its session floors identically (see DedupingExecutor).
std::string EncodeBatch(std::span<const Command> cmds) {
  std::string out;
  for (const Command& cmd : cmds) {
    out += std::to_string(cmd.client);
    out += ' ';
    out += std::to_string(cmd.client_seq);
    out += ' ';
    out += std::to_string(cmd.acked);
    out += ' ';
    out += std::to_string(cmd.op.size());
    out += ' ';
    out += cmd.op;
  }
  return out;
}

/// Inverse of EncodeBatch; nullopt for bytes it did not write.
std::optional<std::vector<Command>> DecodeBatch(const std::string& s) {
  std::vector<Command> cmds;
  size_t pos = 0;
  // One header number and the space after it.
  auto read = [&s, &pos](auto* out) {
    const size_t space = s.find(' ', pos);
    if (space == std::string::npos) return false;
    const char* begin = s.data() + pos;
    auto [end, ec] = std::from_chars(begin, s.data() + space, *out);
    pos = space + 1;
    return ec == std::errc() && end == s.data() + space;
  };
  while (pos < s.size()) {
    Command cmd;
    uint64_t len = 0;
    if (!read(&cmd.client) || !read(&cmd.client_seq) || !read(&cmd.acked) ||
        !read(&len) || len > s.size() - pos) {
      return std::nullopt;
    }
    cmd.op = s.substr(pos, len);
    pos += len;
    cmds.push_back(std::move(cmd));
  }
  return cmds;
}

}  // namespace

uint8_t GfMul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const GfTables& t = Tables();
  return t.exp[t.log[a] + t.log[b]];
}

uint8_t GfInv(uint8_t a) {
  assert(a != 0);
  const GfTables& t = Tables();
  return t.exp[255 - t.log[a]];
}

std::vector<std::string> ErasureEncode(const std::string& payload, int k,
                                       int n) {
  assert(1 <= k && k <= n && n <= 255);
  const size_t stripe = (payload.size() + static_cast<size_t>(k) - 1) /
                        static_cast<size_t>(k);
  std::vector<std::string> shards(static_cast<size_t>(n),
                                  std::string(stripe, '\0'));
  for (int i = 0; i < n; ++i) {
    std::string& out = shards[static_cast<size_t>(i)];
    for (int j = 0; j < k; ++j) {
      const uint8_t coef = GfPow(i, j);
      if (coef == 0) continue;
      const size_t base = static_cast<size_t>(j) * stripe;
      const size_t end =
          base < payload.size()
              ? (payload.size() - base < stripe ? payload.size() - base
                                                : stripe)
              : 0;
      for (size_t b = 0; b < end; ++b) {
        out[b] = static_cast<char>(
            static_cast<uint8_t>(out[b]) ^
            GfMul(static_cast<uint8_t>(payload[base + b]), coef));
      }
    }
  }
  return shards;
}

std::optional<std::string> ErasureDecode(
    const std::map<int, std::string>& shards, int k, int n,
    uint64_t payload_len) {
  if (k < 1 || n < k || static_cast<int>(shards.size()) < k) {
    return std::nullopt;
  }
  const size_t stripe = (static_cast<size_t>(payload_len) +
                         static_cast<size_t>(k) - 1) /
                        static_cast<size_t>(k);
  std::vector<int> xs;
  std::vector<const std::string*> rows;
  for (const auto& [index, data] : shards) {
    if (index < 0 || index >= n || data.size() != stripe) return std::nullopt;
    xs.push_back(index);
    rows.push_back(&data);
    if (static_cast<int>(xs.size()) == k) break;
  }
  const std::vector<uint8_t> inv = InvertVandermonde(xs, k);
  if (inv.empty()) return std::nullopt;
  std::string payload(static_cast<size_t>(payload_len), '\0');
  for (int j = 0; j < k; ++j) {
    const size_t base = static_cast<size_t>(j) * stripe;
    if (base >= payload.size()) break;
    const size_t end =
        payload.size() - base < stripe ? payload.size() - base : stripe;
    for (int r = 0; r < k; ++r) {
      const uint8_t coef = inv[static_cast<size_t>(j) * k + r];
      if (coef == 0) continue;
      const std::string& row = *rows[static_cast<size_t>(r)];
      for (size_t b = 0; b < end; ++b) {
        payload[base + b] = static_cast<char>(
            static_cast<uint8_t>(payload[base + b]) ^
            GfMul(static_cast<uint8_t>(row[b]), coef));
      }
    }
  }
  return payload;
}

Entry ShardedCommand::Subset(int first, int count) const {
  ShardSet set{header, {}};
  for (int i = 0; i < count && i < header.n; ++i) {
    set.shards.push_back(shards[static_cast<size_t>((first + i) % header.n)]);
  }
  return Entry::Shards(std::move(set));
}

ShardedCommand ShardCommand(const Entry& entry, int k, int n) {
  assert(entry.kind() == Entry::Kind::kCommand ||
         entry.kind() == Entry::Kind::kBatch);
  ShardedCommand sc;
  ShardSet::Header& h = sc.header;
  std::string batch;
  if (entry.kind() == Entry::Kind::kBatch) {
    h.batch = true;
    batch = EncodeBatch(entry.commands());
  } else {
    const Command& cmd = entry.commands()[0];
    h.client = cmd.client;
    h.client_seq = cmd.client_seq;
    h.acked = cmd.acked;
  }
  const std::string& payload = h.batch ? batch : entry.commands()[0].op;
  h.k = k;
  h.n = n;
  h.payload_len = payload.size();
  h.payload_check = Fnv1a(payload);
  std::vector<std::string> coded = ErasureEncode(payload, k, n);
  for (int i = 0; i < n; ++i) {
    std::string& bytes = coded[static_cast<size_t>(i)];
    const uint64_t check = Fnv1a(bytes);
    sc.shards.push_back({i, std::move(bytes), check});
  }
  return sc;
}

bool ShardAssembler::Add(const Entry& entry) {
  const ShardSet* set = entry.shard_set();
  if (set == nullptr) return false;
  const ShardSet::Header& h = set->header;
  if (header_.k == 0) {
    header_ = h;
  } else if (header_.client != h.client ||
             header_.client_seq != h.client_seq ||
             header_.batch != h.batch || header_.k != h.k ||
             header_.n != h.n || header_.payload_len != h.payload_len ||
             header_.payload_check != h.payload_check) {
    return false;  // A shard set of a different entry or geometry.
  }
  if (h.acked > header_.acked) header_.acked = h.acked;
  for (const Shard& shard : set->shards) {
    if (Fnv1a(shard.bytes) != shard.check) {
      ++corrupt_;  // Detected bit-rot: drop the shard, keep the set.
      continue;
    }
    shards_.emplace(shard.index, shard.bytes);  // First copy of an index wins.
  }
  return true;
}

std::optional<Entry> ShardAssembler::Reconstruct() const {
  if (!Complete()) return std::nullopt;
  std::optional<std::string> payload =
      ErasureDecode(shards_, header_.k, header_.n, header_.payload_len);
  if (!payload.has_value() || Fnv1a(*payload) != header_.payload_check) {
    return std::nullopt;
  }
  if (header_.batch) {
    std::optional<std::vector<Command>> cmds = DecodeBatch(*payload);
    if (!cmds.has_value()) return std::nullopt;
    return Entry::Batch(std::move(*cmds));
  }
  Command cmd{header_.client, header_.client_seq, std::move(*payload)};
  cmd.acked = header_.acked;
  return Entry(std::move(cmd));
}

Entry ShardAssembler::Merged() const {
  ShardSet set{header_, {}};
  for (const auto& [index, bytes] : shards_) {
    set.shards.push_back({index, bytes, Fnv1a(bytes)});
  }
  return Entry::Shards(std::move(set));
}

}  // namespace consensus40::smr
