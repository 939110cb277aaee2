#include "smr/command.h"

#include <charconv>
#include <cstdlib>

namespace consensus40::smr {

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

Command EncodeBatch(const std::vector<Command>& cmds) {
  // "<client> <seq> <acked> <oplen> <opbytes>" per sub-command;
  // whitespace-delimited headers, byte-exact payloads. `acked` rides
  // along so replicas applying the decoded batch advance their session
  // floors identically (see DedupingExecutor).
  std::string encoded;
  for (const Command& cmd : cmds) {
    encoded += std::to_string(cmd.client);
    encoded += ' ';
    encoded += std::to_string(cmd.client_seq);
    encoded += ' ';
    encoded += std::to_string(cmd.acked);
    encoded += ' ';
    encoded += std::to_string(cmd.op.size());
    encoded += ' ';
    encoded += cmd.op;
  }
  return Command{kBatchClient, 0, std::move(encoded)};
}

std::optional<std::vector<Command>> DecodeBatch(const Command& batch) {
  if (!IsBatch(batch)) return std::nullopt;
  std::vector<Command> cmds;
  const std::string& s = batch.op;
  size_t pos = 0;
  while (pos < s.size()) {
    char* end = nullptr;
    long client = std::strtol(s.c_str() + pos, &end, 10);
    if (end == nullptr || *end != ' ') return std::nullopt;
    pos = static_cast<size_t>(end - s.c_str()) + 1;
    unsigned long long seq = std::strtoull(s.c_str() + pos, &end, 10);
    if (end == nullptr || *end != ' ') return std::nullopt;
    pos = static_cast<size_t>(end - s.c_str()) + 1;
    unsigned long long acked = std::strtoull(s.c_str() + pos, &end, 10);
    if (end == nullptr || *end != ' ') return std::nullopt;
    pos = static_cast<size_t>(end - s.c_str()) + 1;
    unsigned long long len = std::strtoull(s.c_str() + pos, &end, 10);
    if (end == nullptr || *end != ' ') return std::nullopt;
    pos = static_cast<size_t>(end - s.c_str()) + 1;
    if (pos + len > s.size()) return std::nullopt;
    Command cmd{static_cast<int32_t>(client), static_cast<uint64_t>(seq),
                s.substr(pos, len)};
    cmd.acked = static_cast<uint64_t>(acked);
    cmds.push_back(std::move(cmd));
    pos += len;
  }
  return cmds;
}

std::vector<Command> FlattenCommand(const Command& cmd) {
  if (IsBatch(cmd)) {
    return DecodeBatch(cmd).value_or(std::vector<Command>{});
  }
  return {cmd};
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
