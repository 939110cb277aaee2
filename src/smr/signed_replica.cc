#include "smr/signed_replica.h"

namespace consensus40::smr {

SignedReplica::SignedReplica(int n) {
  for (int i = 0; i < n; ++i) members_.push_back(i);
}

bool SignedReplica::ValidRequest(const Command& cmd,
                                 const crypto::Signature& sig,
                                 const crypto::KeyRegistry& registry) {
  return sig.signer == cmd.client && registry.Verify(sig, cmd.Hash());
}

const std::string* SignedReplica::CachedResult(const Command& cmd) const {
  return dedup_.Lookup(cmd.client, cmd.client_seq);
}

std::string SignedReplica::ApplyAndRecord(const Command& cmd) {
  Command unacked = cmd;
  unacked.acked = 0;
  std::string result = dedup_.Apply(&kv_, unacked);
  executed_.push_back(std::move(unacked));
  return result;
}

std::string SignedReplica::ExecuteOnce(const Command& cmd) {
  const std::string* cached = CachedResult(cmd);
  return cached != nullptr ? *cached : ApplyAndRecord(cmd);
}

void SignedReplica::ArmWatchdog(const Command& cmd,
                                std::function<void()> on_fire) {
  const RequestKey key{cmd.client, cmd.client_seq};
  if (watchdogs_.count(key) > 0) return;
  watchdogs_[key] =
      SetTimer(kRequestTimeout, [this, key, on_fire = std::move(on_fire)] {
        watchdogs_.erase(key);
        on_fire();
      });
}

void SignedReplica::DisarmWatchdog(const Command& cmd) {
  auto it = watchdogs_.find({cmd.client, cmd.client_seq});
  if (it == watchdogs_.end()) return;
  CancelTimer(it->second);
  watchdogs_.erase(it);
}

void SignedReplica::DisarmAllWatchdogs() {
  for (const auto& [key, timer] : watchdogs_) CancelTimer(timer);
  watchdogs_.clear();
}

}  // namespace consensus40::smr
