#include "shard/routing.h"

#include <algorithm>
#include <string_view>

#include "smr/command.h"

namespace consensus40::shard {

namespace {

std::string HexU64(uint64_t v) {
  if (v == 0) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  while (v != 0) {
    out.insert(out.begin(), kDigits[v & 0xf]);
    v >>= 4;
  }
  return out;
}

}  // namespace

RoutingTable RoutingTable::Initial(int shards) {
  RoutingTable t;
  t.entries_.clear();
  if (shards < 1) shards = 1;
  for (int i = 0; i < shards; ++i) {
    uint64_t lo = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(i) << 64) / shards);
    t.entries_.push_back({lo, i});
  }
  return t;
}

int RoutingTable::GroupFor(uint64_t h) const {
  // Last entry with lo <= h.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), h,
      [](uint64_t v, const Entry& e) { return v < e.lo; });
  return std::prev(it)->group;
}

int RoutingTable::GroupForKey(const std::string& key) const {
  return GroupFor(smr::KeyHash(key));
}

bool RoutingTable::SoleOwner(uint64_t lo, uint64_t hi, int* owner) const {
  if (hi != 0 && hi <= lo) return false;
  int g = GroupFor(lo);
  for (const Entry& e : entries_) {
    if (e.lo > lo && (hi == 0 || e.lo < hi) && e.group != g) return false;
  }
  *owner = g;
  return true;
}

void RoutingTable::ApplyMove(uint64_t lo, uint64_t hi, int group) {
  // Group resuming at hi (the old owner of the hash just past the moved
  // range); irrelevant when the move runs to the end of the space.
  int after = hi == 0 ? -1 : GroupFor(hi);
  std::vector<Entry> next;
  for (const Entry& e : entries_) {
    if (e.lo < lo || (hi != 0 && e.lo >= hi)) next.push_back(e);
  }
  next.push_back({lo, group});
  if (hi != 0) next.push_back({hi, after});
  std::sort(next.begin(), next.end(),
            [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
  // Normalize: collapse adjacent same-group ranges (this is what makes a
  // move back to the neighbour's owner a merge).
  entries_.clear();
  for (const Entry& e : next) {
    if (!entries_.empty() && entries_.back().group == e.group) continue;
    entries_.push_back(e);
  }
  ++epoch_;
}

std::string RoutingTable::Encode() const {
  std::string out = "e" + std::to_string(epoch_) + "|";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ',';
    out += HexU64(entries_[i].lo);
    out += ':';
    out += std::to_string(entries_[i].group);
  }
  return out;
}

std::optional<RoutingTable> RoutingTable::Decode(const std::string& encoded,
                                                 int total_groups) {
  const std::string_view s = encoded;
  if (s.empty() || s[0] != 'e') return std::nullopt;
  size_t bar = s.find('|');
  if (bar == std::string_view::npos) return std::nullopt;
  RoutingTable t;
  if (!smr::ParseU64(s.substr(1, bar - 1), &t.epoch_)) return std::nullopt;
  t.entries_.clear();
  size_t pos = bar + 1;
  while (pos < s.size()) {
    size_t colon = s.find(':', pos);
    if (colon == std::string_view::npos) return std::nullopt;
    size_t comma = s.find(',', colon);
    if (comma == std::string_view::npos) comma = s.size();
    Entry e;
    uint64_t group = 0;
    if (!smr::ParseU64(s.substr(pos, colon - pos), &e.lo, 16) ||
        !smr::ParseU64(s.substr(colon + 1, comma - colon - 1), &group) ||
        group >= static_cast<uint64_t>(std::max(total_groups, 0))) {
      return std::nullopt;
    }
    e.group = static_cast<int>(group);
    t.entries_.push_back(e);
    pos = comma + 1;
  }
  if (t.entries_.empty() || t.entries_[0].lo != 0) return std::nullopt;
  for (size_t i = 1; i < t.entries_.size(); ++i) {
    if (t.entries_[i].lo <= t.entries_[i - 1].lo) return std::nullopt;
  }
  // Only the form Encode writes: no leading zeros, lowercase hex, no
  // trailing separator — so every table has exactly one encoding.
  if (t.Encode() != encoded) return std::nullopt;
  return t;
}

bool RoutingTable::MaybeAdopt(const RoutingTable& other) {
  if (other.epoch_ <= epoch_) return false;
  *this = other;
  return true;
}

std::string RoutingTable::RtKey(uint64_t epoch) {
  return "__rt." + std::to_string(epoch);
}

}  // namespace consensus40::shard
