#include "smr/command.h"

#include <algorithm>
#include <charconv>

namespace consensus40::smr {

namespace {

/// Decimal digits of `v`.
int Width(uint64_t v) {
  int width = 1;
  for (; v >= 10; v /= 10) ++width;
  return width;
}

/// Decimal characters of `v`, sign included.
int SignedWidth(int64_t v) {
  return v < 0 ? 1 + Width(0 - static_cast<uint64_t>(v))
               : Width(static_cast<uint64_t>(v));
}

constexpr int kHeaderBytes = 16;

}  // namespace

crypto::Digest Command::Hash() const {
  crypto::Sha256 h;
  h.Update(&client, sizeof(client));
  h.Update(&client_seq, sizeof(client_seq));
  h.Update(op);
  return h.Finish();
}

std::string Command::ToString() const {
  std::string out = "c";
  out += std::to_string(client);
  out += "#";
  out += std::to_string(client_seq);
  out += ":";
  out += op;
  return out;
}

Entry::Entry() : Entry(std::monostate{}, kHeaderBytes + 4) {}

Entry::Entry(Command cmd)
    : value_(std::move(cmd)),
      byte_size_(std::get<Command>(value_).ByteSize()) {}

Entry Entry::Batch(std::vector<Command> cmds) {
  int size = kHeaderBytes;
  for (const Command& cmd : cmds) {
    size += SignedWidth(cmd.client) + Width(cmd.client_seq) +
            Width(cmd.acked) + Width(cmd.op.size()) + 4 +
            static_cast<int>(cmd.op.size());
  }
  return Entry(std::make_shared<const std::vector<Command>>(std::move(cmds)),
               size);
}

Entry Entry::Config(std::vector<int32_t> members) {
  int size = kHeaderBytes + 6;
  for (int32_t member : members) size += 1 + SignedWidth(member);
  return Entry(std::move(members), size);
}

Entry Entry::Shards(ShardSet set) {
  const ShardSet::Header& h = set.header;
  int size = kHeaderBytes + (h.batch ? 2 : SignedWidth(h.client)) +
             Width(h.client_seq) + Width(h.acked) +
             Width(static_cast<uint64_t>(h.k)) +
             Width(static_cast<uint64_t>(h.n)) + Width(h.payload_len) +
             Width(h.payload_check) + Width(set.shards.size()) + 8;
  for (const Shard& shard : set.shards) {
    size += Width(static_cast<uint64_t>(shard.index)) +
            Width(shard.bytes.size()) + Width(shard.check) + 3 +
            static_cast<int>(shard.bytes.size());
  }
  return Entry(std::make_shared<const ShardSet>(std::move(set)), size);
}

std::span<const Command> Entry::commands() const {
  if (const Command* cmd = std::get_if<Command>(&value_)) return {cmd, 1};
  if (const auto* batch =
          std::get_if<std::shared_ptr<const std::vector<Command>>>(&value_)) {
    return **batch;
  }
  return {};
}

const std::vector<int32_t>* Entry::config() const {
  return std::get_if<std::vector<int32_t>>(&value_);
}

const ShardSet* Entry::shard_set() const {
  const auto* set = std::get_if<std::shared_ptr<const ShardSet>>(&value_);
  return set == nullptr ? nullptr : set->get();
}

bool Entry::operator==(const Entry& other) const {
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case Kind::kCommand:
      return commands()[0] == other.commands()[0];
    case Kind::kBatch:
      return std::ranges::equal(commands(), other.commands(),
                                [](const Command& a, const Command& b) {
                                  return a == b && a.acked == b.acked;
                                });
    case Kind::kNoop:
      return true;
    case Kind::kConfig:
      return *config() == *other.config();
    case Kind::kShardSet:
      return *shard_set() == *other.shard_set();
  }
  return false;
}

uint64_t Entry::Digest() const {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  };
  mix(static_cast<uint64_t>(kind()));
  for (const Command& cmd : commands()) {
    mix(static_cast<uint32_t>(cmd.client));
    mix(cmd.client_seq);
    mix(Fnv1a(cmd.op));
    if (kind() == Kind::kBatch) mix(cmd.acked);  // As operator== compares.
  }
  if (const std::vector<int32_t>* members = config()) {
    for (int32_t member : *members) mix(static_cast<uint32_t>(member));
  }
  if (const ShardSet* set = shard_set()) {
    mix(set->header.payload_check);
    for (const Shard& shard : set->shards) {
      mix(static_cast<uint64_t>(shard.index));
      mix(shard.check);
    }
  }
  return h;
}

std::string Entry::ToString() const {
  switch (kind()) {
    case Kind::kCommand:
      return commands()[0].ToString();
    case Kind::kBatch: {
      std::string out = "batch[";
      for (const Command& cmd : commands()) out += " " + cmd.ToString();
      return out + " ]";
    }
    case Kind::kNoop:
      return "noop";
    case Kind::kConfig:
      return "config";
    case Kind::kShardSet:
      return "shard set";
  }
  return "";
}

bool ParseU64(std::string_view s, uint64_t* out, int base) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out, base);
  return ec == std::errc() && ptr == end;
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t KeyHash(std::string_view s) {
  uint64_t h = Fnv1a(s);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace consensus40::smr
