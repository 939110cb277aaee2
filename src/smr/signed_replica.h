/// \file
/// The replica side of Byzantine-fault state machine replication, shared
/// by PBFT, Zyzzyva, MinBFT, CheapBFT, XFT, HotStuff and SeeMoRe.
///
/// In the paper's C&C framework these protocols differ in leader election
/// and agreement, but their decision step is the same: accept only
/// client-signed requests, execute each committed command once, answer
/// retries from a cache, and watch the primary while a forwarded request
/// waits. SignedReplica owns that step as pieces each replica calls; it
/// never branches on which protocol is calling. What stays protocol code:
///
///   - PBFT and Zyzzyva apply and record every ordered command
///     (ApplyAndRecord), even one the cache already holds; the others
///     skip commands they already executed (ExecuteOnce);
///   - PBFT, MinBFT and XFT arm a request watchdog only for a command not
///     yet executed, and drop every watchdog when a new view installs;
///     XFT re-arms one that fires; CheapBFT arms on "not yet watched"
///     alone;
///   - each replica builds and sends its own replies (SeeMoRe counts its
///     sends).

#ifndef CONSENSUS40_SMR_SIGNED_REPLICA_H_
#define CONSENSUS40_SMR_SIGNED_REPLICA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/state_machine.h"

namespace consensus40::smr {

/// Base of the Byzantine-fault replicas (see the file comment).
class SignedReplica : public sim::Process {
 public:
  /// How long a request watchdog waits for its request to execute before
  /// the replica suspects the primary.
  static constexpr sim::Duration kRequestTimeout = 300 * sim::kMillisecond;

  /// True iff `sig` is `cmd`'s client's signature over cmd.Hash(): a
  /// Byzantine leader can reorder or drop requests but never order one
  /// that no client signed.
  static bool ValidRequest(const Command& cmd, const crypto::Signature& sig,
                           const crypto::KeyRegistry& registry);

  const KvStore& kv() const { return kv_; }
  /// Every command this replica applied, in order.
  const std::vector<Command>& executed_commands() const { return executed_; }
  /// Safety violations this replica detected in itself (PBFT and HotStuff
  /// check for some; the others report none).
  const std::vector<std::string>& violations() const { return violations_; }

 protected:
  /// The replica group is processes 0..n-1.
  explicit SignedReplica(int n);

  const std::vector<sim::NodeId>& Everyone() const { return members_; }

  /// The result of `cmd`'s (client, seq) if this replica executed it
  /// already, else nullptr.
  const std::string* CachedResult(const Command& cmd) const;

  /// Applies `cmd` with `acked` cleared through the dedup sessions,
  /// appends it to the executed log and returns its result. Neither the
  /// client signature nor any leader digest covers `acked` (Command::Hash
  /// leaves it out), so a Byzantine leader could rewrite it to make
  /// replicas skip the op or diverge. Byzantine-fault clients never ack,
  /// so honest runs apply exactly what they would with it.
  std::string ApplyAndRecord(const Command& cmd);

  /// The cached result if `cmd` was executed already, else
  /// ApplyAndRecord(cmd).
  std::string ExecuteOnce(const Command& cmd);

  /// Request watchdogs, at most one per (client, seq). ArmWatchdog does
  /// nothing while one is armed for `cmd`; otherwise `on_fire` runs after
  /// kRequestTimeout unless the watchdog is disarmed first.
  void ArmWatchdog(const Command& cmd, std::function<void()> on_fire);
  void DisarmWatchdog(const Command& cmd);
  void DisarmAllWatchdogs();
  bool AnyWatchdogArmed() const { return !watchdogs_.empty(); }

  void ReportViolation(std::string violation) {
    violations_.push_back(std::move(violation));
  }

 private:
  using RequestKey = std::pair<int32_t, uint64_t>;

  std::vector<sim::NodeId> members_;
  KvStore kv_;
  DedupingExecutor dedup_;
  std::vector<Command> executed_;
  std::map<RequestKey, uint64_t> watchdogs_;  ///< (client, seq) -> timer.
  std::vector<std::string> violations_;
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_SIGNED_REPLICA_H_
