#include "smr/state_machine.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>

namespace consensus40::smr {

namespace {

/// The separators operator>> skips in the C locale: space, \t, \n, \v,
/// \f, \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The leading whitespace-separated tokens of an op, as views into it.
/// No op reads past its fourth token, so tokenizing stops there: size()
/// counts at most four, and any further tokens are ignored.
class Tokens {
 public:
  explicit Tokens(std::string_view op) {
    size_t pos = 0;
    while (count_ < tokens_.size()) {
      while (pos < op.size() && IsSpace(op[pos])) ++pos;
      if (pos == op.size()) break;
      const size_t start = pos;
      while (pos < op.size() && !IsSpace(op[pos])) ++pos;
      tokens_[count_++] = op.substr(start, pos - start);
    }
  }
  size_t size() const { return count_; }
  std::string_view operator[](size_t i) const { return tokens_[i]; }

 private:
  std::array<std::string_view, 4> tokens_;
  size_t count_ = 0;
};

/// Reserved prefix for store-internal records (prepare/decision/fence
/// keys). Never fenced, never migrated.
constexpr std::string_view kInternalPrefix = "__";
/// Range records. Fences sort before ownership records.
constexpr std::string_view kDisownPrefix = "__disown.";
constexpr std::string_view kOwnPrefix = "__own.";

bool IsInternalKey(std::string_view key) {
  return key.starts_with(kInternalPrefix);
}

/// Keys held in the range table rather than the point table.
bool IsRangeKey(std::string_view key) {
  return key.starts_with(kDisownPrefix) || key.starts_with(kOwnPrefix);
}

/// 16-digit fixed-width lowercase hex, so disown-record keys sort and
/// parse trivially.
std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string RangeKey(std::string_view prefix, uint64_t lo, uint64_t hi) {
  std::string key(prefix);
  key += HexU64(lo);
  key += '-';
  key += HexU64(hi);
  return key;
}

/// True if hash `h` falls in [lo, hi), where hi == 0 means 2^64.
bool HashInRange(uint64_t h, uint64_t lo, uint64_t hi) {
  return h >= lo && (hi == 0 || h < hi);
}

}  // namespace

std::string EncodeKvPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  for (const auto& [k, v] : pairs) {
    out += std::to_string(k.size());
    out += ':';
    out += k;
    out += std::to_string(v.size());
    out += ':';
    out += v;
  }
  return out;
}

std::optional<std::vector<std::pair<std::string, std::string>>> DecodeKvPairs(
    std::string_view payload) {
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t pos = 0;
  auto read_one = [&payload, &pos](std::string* out) {
    size_t colon = payload.find(':', pos);
    if (colon == std::string_view::npos) return false;
    uint64_t len = 0;
    if (!ParseU64(payload.substr(pos, colon - pos), &len)) return false;
    if (len > payload.size() - (colon + 1)) return false;
    *out = payload.substr(colon + 1, len);
    pos = colon + 1 + len;
    return true;
  };
  while (pos < payload.size()) {
    std::string k, v;
    if (!read_one(&k) || !read_one(&v)) return std::nullopt;
    pairs.emplace_back(std::move(k), std::move(v));
  }
  return pairs;
}

namespace {

/// Highest epoch of any range record under `prefix` whose [lo, hi)
/// covers hash `h`. Record shape: "<prefix><lo_hex16>-<hi_hex16>" ->
/// decimal epoch.
std::optional<uint64_t> MaxCoveringEpoch(const KvStore::RangeTable& ranges,
                                         std::string_view prefix, uint64_t h) {
  std::optional<uint64_t> best;
  const size_t plen = prefix.size();
  for (auto it = ranges.lower_bound(prefix);
       it != ranges.end() && it->first.starts_with(prefix); ++it) {
    const std::string_view key = it->first;
    uint64_t lo = 0, hi = 0, epoch = 0;
    if (key.size() != plen + 16 + 1 + 16) continue;
    if (!ParseU64(key.substr(plen, 16), &lo, 16)) continue;
    if (!ParseU64(key.substr(plen + 17, 16), &hi, 16)) continue;
    if (!ParseU64(it->second, &epoch)) continue;
    if (HashInRange(h, lo, hi) && (!best || epoch > *best)) best = epoch;
  }
  return best;
}

bool IsPointVerb(std::string_view verb) {
  return verb == "PUT" || verb == "GET" || verb == "DEL" || verb == "SETNX" ||
         verb == "CAS" || verb == "INC";
}

/// Executes point op `t` (verb and key present) on the table holding its
/// key.
template <class Table>
std::string ApplyPointOp(Table& table, const Tokens& t) {
  const std::string_view verb = t[0];
  auto it = table.find(t[1]);
  const bool found = it != table.end();
  auto set = [&](std::string_view value) {
    if (found) {
      it->second = value;
    } else {
      table.emplace(std::string(t[1]), std::string(value));
    }
  };
  if (verb == "PUT" && t.size() >= 3) {
    set(t[2]);
    return "OK";
  }
  if (verb == "GET") return found ? it->second : "NIL";
  if (verb == "DEL") {
    if (!found) return "NIL";
    table.erase(it);
    return "OK";
  }
  if (verb == "SETNX" && t.size() >= 3) {
    if (found) return it->second;
    set(t[2]);
    return "OK";
  }
  if (verb == "CAS" && t.size() >= 4) {
    if (!found || it->second != t[2]) return "FAIL";
    set(t[3]);
    return "OK";
  }
  if (verb == "INC") {
    const int64_t v =
        found ? std::strtoll(it->second.c_str(), nullptr, 10) : 0;
    // strtoll saturates an out-of-range value at the maximum too.
    if (v == std::numeric_limits<int64_t>::max()) return "ERR";
    std::string next = std::to_string(v + 1);
    set(next);
    return next;
  }
  return "ERR";
}

}  // namespace

std::optional<uint64_t> KvStore::MovedEpoch(std::string_view key) const {
  // Fences sort first in ranges_, so a store without one answers here.
  if (ranges_.empty() || !ranges_.begin()->first.starts_with(kDisownPrefix)) {
    return std::nullopt;
  }
  if (IsInternalKey(key)) return std::nullopt;
  uint64_t h = KeyHash(key);
  std::optional<uint64_t> fence = MaxCoveringEpoch(ranges_, kDisownPrefix, h);
  if (!fence.has_value()) return std::nullopt;
  // A fence is only as fresh as its epoch stamp: an INSTALL at or above
  // that epoch means the range moved BACK here afterwards (A->B->A), and
  // the newer ownership record outranks the stale fence — without this,
  // the returning owner would bounce every op on the range forever.
  std::optional<uint64_t> own = MaxCoveringEpoch(ranges_, kOwnPrefix, h);
  if (own.has_value() && *own >= *fence) return std::nullopt;
  return fence;
}

std::string KvStore::Apply(const Command& cmd) {
  const std::string_view op = cmd.op;
  // "INSTALL <lo> <hi> <epoch> <pairs>" carries a length-prefixed
  // payload that must not be whitespace-tokenized; handle it before the
  // token dispatch.
  if (op.starts_with("INSTALL ")) {
    size_t pos = 8;
    uint64_t lo = 0, hi = 0, epoch = 0;
    for (uint64_t* field : {&lo, &hi, &epoch}) {
      size_t sp = op.find(' ', pos);
      if (sp == std::string_view::npos ||
          !ParseU64(op.substr(pos, sp - pos), field)) {
        return "ERR";
      }
      pos = sp + 1;
    }
    auto pairs = DecodeKvPairs(op.substr(pos));
    if (!pairs.has_value()) return "ERR";
    for (auto& [k, v] : *pairs) {
      if (IsRangeKey(k)) {
        ranges_.insert_or_assign(std::move(k), std::move(v));
      } else {
        points_.insert_or_assign(std::move(k), std::move(v));
      }
    }
    // Ownership record: outranks any lower-epoch fence over the
    // installed range (see MovedEpoch), so a range returning to a
    // previous owner serves again instead of bouncing on its old fence.
    ranges_.insert_or_assign(RangeKey(kOwnPrefix, lo, hi),
                             std::to_string(epoch));
    return "OK " + std::to_string(pairs->size());
  }
  const Tokens t(op);
  if (t.size() == 0) return "ERR";
  const std::string_view verb = t[0];
  if ((verb == "DISOWN" || verb == "MIGRATE") && t.size() >= 4) {
    uint64_t lo = 0, hi = 0, epoch = 0;
    if (!ParseU64(t[1], &lo) || !ParseU64(t[2], &hi) || !ParseU64(t[3], &epoch))
      return "ERR";
    std::string payload;
    if (verb == "MIGRATE") {
      // Snapshot the range BEFORE fencing: one atomic log entry, so the
      // copied set is exactly the set of writes that beat the fence.
      // Range records are internal keys, so only points_ can match; the
      // payload lists them in key order.
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const auto& [k, v] : points_) {
        if (IsInternalKey(k)) continue;
        if (HashInRange(KeyHash(k), lo, hi)) pairs.emplace_back(k, v);
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      payload = EncodeKvPairs(pairs);
    }
    ranges_.insert_or_assign(RangeKey(kDisownPrefix, lo, hi),
                             std::to_string(epoch));
    return verb == "MIGRATE" ? payload : "OK";
  }
  if (t.size() < 2 || !IsPointVerb(verb)) return "ERR";
  // Point ops on a migrated-away key bounce with the flip epoch instead
  // of executing (retries of ops that DID execute pre-fence are answered
  // from the dedup cache before reaching here, so exactly-once holds
  // across a move).
  if (std::optional<uint64_t> epoch = MovedEpoch(t[1])) {
    return "MOVED " + std::to_string(*epoch);
  }
  return IsRangeKey(t[1]) ? ApplyPointOp(ranges_, t) : ApplyPointOp(points_, t);
}

crypto::Digest KvStore::StateDigest() const {
  // Hashed in key order across both tables: the order one ordered map
  // over every key would iterate in.
  std::vector<const PointTable::value_type*> entries;
  entries.reserve(size());
  for (const auto& entry : points_) entries.push_back(&entry);
  for (const auto& entry : ranges_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  crypto::Sha256 h;
  for (const auto* entry : entries) {
    h.Update(entry->first);
    h.Update("=", 1);
    h.Update(entry->second);
    h.Update(";", 1);
  }
  return h.Finish();
}

std::optional<std::string> KvStore::Get(std::string_view key) const {
  auto get = [key](const auto& table) -> std::optional<std::string> {
    auto it = table.find(key);
    if (it == table.end()) return std::nullopt;
    return it->second;
  };
  return IsRangeKey(key) ? get(ranges_) : get(points_);
}

void ReplicatedLog::Set(uint64_t index, Entry entry) {
  if (index < start_) return;  // Already folded into a checkpoint.
  slots_[index] = std::move(entry);
}

const Entry* ReplicatedLog::Get(uint64_t index) const {
  auto it = slots_.find(index);
  return it == slots_.end() ? nullptr : &it->second;
}

void ReplicatedLog::CommitThrough(uint64_t index) {
  if (index + 1 > commit_frontier_) commit_frontier_ = index + 1;
}

uint64_t ReplicatedLog::Size() const {
  return slots_.empty() ? start_ : slots_.rbegin()->first + 1;
}

void ReplicatedLog::TruncatePrefix(uint64_t end) {
  if (end > applied_frontier_) end = applied_frontier_;
  slots_.erase(slots_.begin(), slots_.lower_bound(end));
  if (end > start_) start_ = end;
}

void ReplicatedLog::ResetToSnapshot(uint64_t end) {
  slots_.erase(slots_.begin(), slots_.lower_bound(end));
  if (end > start_) start_ = end;
  if (end > commit_frontier_) commit_frontier_ = end;
  if (end > applied_frontier_) applied_frontier_ = end;
}

namespace {

/// Advances the session floor over the client-acked prefix, discarding
/// the cached results it covers. An acked seq can never be retried, so
/// dropping its exact result is safe; seqs the floor skips without an
/// `above` entry were consumed off-log (e.g. read-index reads) or acked
/// duplicates — nothing to discard. The floor never passes `acked`, so
/// every executed-but-unacked seq keeps its own result.
void AdvanceFloor(DedupingExecutor::Session* s) {
  while (s->floor < s->acked) {
    ++s->floor;
    s->above.erase(s->floor);
  }
}

/// Placeholder reply for retries of acked (result-discarded) seqs.
const std::string kDiscardedResult;

}  // namespace

std::string DedupingExecutor::Apply(KvStore* kv, const Command& cmd) {
  Session& s = sessions_[cmd.client];
  // Piggybacked cumulative ack: the client consumed every reply up to
  // cmd.acked, so those results are unreachable and can be discarded.
  // Applied commands are identical on every replica, so the floors
  // advance identically too.
  if (cmd.acked > s.acked) {
    s.acked = cmd.acked;
    AdvanceFloor(&s);
  }
  // Seq 0 is only used by protocol-internal commands; it sits outside the
  // 1-based session numbering, so it is tracked in `above` forever rather
  // than confused with the pristine floor == 0.
  if (cmd.client_seq != 0 && cmd.client_seq <= s.floor) {
    return kDiscardedResult;  // Duplicate of an acked operation.
  }
  auto it = s.above.find(cmd.client_seq);
  if (it != s.above.end()) return it->second;  // Duplicate: exact result.
  std::string result = kv->Apply(cmd);
  s.above[cmd.client_seq] = result;
  return result;
}

const std::string* DedupingExecutor::Lookup(int32_t client,
                                            uint64_t seq) const {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) return nullptr;
  const Session& s = it->second;
  if (seq != 0 && seq <= s.floor) return &kDiscardedResult;
  auto above = s.above.find(seq);
  return above == s.above.end() ? nullptr : &above->second;
}

std::vector<std::string> ReplicatedLog::ApplyCommitted(
    KvStore* kv, DedupingExecutor* dedup) {
  std::vector<std::string> outputs;
  ApplyCommitted(kv, dedup,
                 [&outputs](uint64_t, const Command&, const std::string& out) {
                   outputs.push_back(out);
                 });
  return outputs;
}

void ReplicatedLog::ApplyCommitted(KvStore* kv, DedupingExecutor* dedup,
                                   const ApplyFn& fn) {
  while (applied_frontier_ < commit_frontier_) {
    const Entry* entry = Get(applied_frontier_);
    if (entry == nullptr) break;  // Gap: cannot apply past it yet.
    for (const Command& cmd : entry->commands()) {
      std::string result =
          dedup != nullptr ? dedup->Apply(kv, cmd) : kv->Apply(cmd);
      if (fn) fn(applied_frontier_, cmd, result);
    }
    ++applied_frontier_;
  }
}

std::vector<Command> ReplicatedLog::CommittedPrefix() const {
  std::vector<Command> out;
  for (uint64_t i = start_; i < commit_frontier_; ++i) {
    const Entry* entry = Get(i);
    if (entry == nullptr) break;
    const std::span<const Command> cmds = entry->commands();
    out.insert(out.end(), cmds.begin(), cmds.end());
  }
  return out;
}

std::string CheckPrefixConsistency(
    const std::vector<const ReplicatedLog*>& logs) {
  for (size_t a = 0; a < logs.size(); ++a) {
    for (size_t b = a + 1; b < logs.size(); ++b) {
      uint64_t overlap =
          std::min(logs[a]->commit_frontier(), logs[b]->commit_frontier());
      for (uint64_t i = 0; i < overlap; ++i) {
        const Entry* ca = logs[a]->Get(i);
        const Entry* cb = logs[b]->Get(i);
        if (ca == nullptr || cb == nullptr) continue;  // Sparse slot.
        if (!(*ca == *cb)) {
          return "logs " + std::to_string(a) + " and " + std::to_string(b) +
                 " diverge at index " + std::to_string(i) + ": '" +
                 ca->ToString() + "' vs '" + cb->ToString() + "'";
        }
      }
    }
  }
  return "";
}

}  // namespace consensus40::smr
