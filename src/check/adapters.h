/// \file
/// Factory declarations for every protocol's checker adapter. The
/// definitions live next to the protocols they wrap (src/pbft/
/// pbft_check.cc, src/shard/shard_check.cc, ...), so protocol authors
/// keep ownership of their observables; this header is the checker-side
/// roster.
///
/// Three families share one adapter each: the log-based crash-fault
/// groups (GroupCheckAdapter over the consensus::ReplicaGroup registry),
/// the Byzantine-fault protocols (one adapter over smr::SignedReplica,
/// driven by a per-protocol SignedProtocol below), and the sharded
/// compositions (one scenario adapter in shard_check.cc). The remaining
/// single-decree, commit and agreement protocols keep their own.
///
/// Factories named *OutOfBounds* configure the protocol outside its
/// stated fault/quorum model and exist so tests can assert the checker
/// finds the violations the paper predicts (non-intersecting Paxos
/// quorums, FloodSet with only f rounds, PBFT at n = 3f).

#ifndef CONSENSUS40_CHECK_ADAPTERS_H_
#define CONSENSUS40_CHECK_ADAPTERS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "crypto/signatures.h"
#include "sim/byzantine.h"

namespace consensus40::smr {
class SignedReplica;
}  // namespace consensus40::smr

namespace consensus40::check {

/// Generic SMR adapter over the consensus::ReplicaGroup registry:
/// `protocol` is a registry key ("raft", "multi_paxos", or anything a
/// test registered). MakeRaftAdapter / MakeMultiPaxosAdapter below are
/// now thin wrappers around this.
/// `num_ops` sizes the client workload. The default 6 finishes within
/// ~100 ms of virtual time — before the schedule generator's first fault
/// slot — so it exercises recovery of *persisted* state. Protocols whose
/// failure mode only shows when commits straddle a fault (e.g. Crossword's
/// coded entries dying with the leader) pass a larger count so the
/// workload spans the whole fault window.
AdapterFactory MakeGroupAdapter(std::string protocol, int num_ops = 6);

/// The same group adapter with the hot-path optimisations on: leader-side
/// batching (batch_size 4, 1ms linger) and a windowed client (4 ops in
/// flight). The sweep proof that batched log entries and out-of-order
/// client arrivals stay inside the safety envelope.
AdapterFactory MakeBatchedGroupAdapter(std::string protocol);

// --- In-bounds adapters (safety must hold for every schedule) ---
AdapterFactory MakePaxosAdapter();          ///< single-decree, n=5
AdapterFactory MakeMultiPaxosAdapter();     ///< SMR, n=5 + client
AdapterFactory MakeFastPaxosAdapter();      ///< n=4, coordinator shielded
AdapterFactory MakeRaftAdapter();           ///< SMR, n=5 + client
AdapterFactory MakePbftAdapter();           ///< n=4, f=1
AdapterFactory MakeMinBftAdapter();         ///< n=3, f=1 (USIG)
AdapterFactory MakeHotStuffAdapter();       ///< n=4, f=1
AdapterFactory MakeXftAdapter();            ///< n=5, crash faults only
AdapterFactory MakeZyzzyvaAdapter();        ///< n=4, primary shielded
AdapterFactory MakeCheapBftAdapter();       ///< f=1, passive activation
AdapterFactory MakeTwoPhaseCommitAdapter();   ///< blocking: no liveness claim
AdapterFactory MakeThreePhaseCommitAdapter(); ///< crash-only, synchronous
AdapterFactory MakeBenOrAdapter();          ///< n=5, f=2, randomized
AdapterFactory MakeFloodSetAdapter();       ///< f+1 rounds (runs direct)

/// The sharded state machine (src/shard/): 2 shards x 3 replicas plus a
/// 3-replica decision group, cross-shard transactions committed by
/// 2PC-over-consensus. In bounds even for coordinator crashes in the
/// prepare/commit window and whole-shard partitions: atomicity must hold
/// and — because the decision is a replicated record — the workload must
/// still terminate.
AdapterFactory MakeShardAdapter();

/// The shard composition with batching + windowed clients throughout
/// (see MakeBatchedGroupAdapter); same fault bounds and expectations.
AdapterFactory MakeShardBatchedAdapter();

/// Crossword: adaptive erasure-coded Multi-Paxos (n=5). The adaptive
/// variant slides between full copies and coded shards; the _rs variant
/// pins one shard per acceptor, which maximises the reconstruction and
/// fragment-recovery machinery the sweep needs to stress. Both are in
/// bounds for the usual crash/restart/partition envelope because the
/// widened accept quorum q2(c) = max(n+1-c, majority) keeps every
/// phase-1 majority able to reassemble any possibly-chosen value.
AdapterFactory MakeCrosswordAdapter();
AdapterFactory MakeCrosswordRsAdapter();

/// Elastic resharding: 2 shards + 1 spare group with one live range move
/// racing the transactions, under mover-crash and owner-partition faults
/// on top of the usual envelope. Must stay atomic AND terminate: every
/// move transition is a write-once decision-group record.
AdapterFactory MakeShardReshardAdapter();

/// Typed read-write transactions (GET/PUT/DELETE/CAS with prepare-time
/// shared/exclusive locking) plus repeated read-only snapshots, racing a
/// live range move under the reshard fault envelope. On top of the
/// atomicity verdicts the adapter audits serializability: every
/// schedule's committed reads must admit a serial order.
AdapterFactory MakeShardTxnAdapter();

/// A Byzantine-fault replica's executed commands in Observation::logs
/// form, one Command::ToString() per command. Every BFT adapter observes
/// its replicas through this.
std::vector<std::string> ExecutedLog(const smr::SignedReplica& replica);

/// One Byzantine-fault protocol as the signed-replica adapter drives it:
/// n replicas derived from smr::SignedReplica at node ids 0..n-1, then
/// one closed-loop "INC x" client. Each protocol's *_check.cc fills one
/// in; the adapter owns the key registry (seeded, n + 4 keys), a USIG
/// over it, and the observables: every replica's executed log and
/// self-reported violations, plus what the client was told, which must
/// read "1", "2", ... in order (every op increments x on a fresh store).
struct SignedProtocol {
  /// Adapter name; the Byzantine twin's is name + "_byz".
  std::string name;
  int n = 0;
  /// The in-bounds crash envelope.
  FaultBounds bounds;
  /// The twin's envelope: `bounds` plus its Byzantine fields.
  FaultBounds twin_bounds;
  /// Protocol hooks for the twin's interposer; unset leaves it
  /// protocol-blind (withhold, drop-on-corrupt, replay).
  std::function<sim::ByzantineInterposer::Hooks(const crypto::KeyRegistry*)>
      twin_hooks;
  /// Spawns one replica; called n times, so the i-th call is node i.
  std::function<smr::SignedReplica*(sim::Simulation*,
                                    const crypto::KeyRegistry*, crypto::Usig*)>
      spawn_replica;
  /// Spawns the client for `ops` ops and returns the results it records.
  std::function<const std::vector<std::string>*(
      sim::Simulation*, const crypto::KeyRegistry*, int ops)>
      spawn_client;
};

/// The adapter over `protocol`: 4 ops under `protocol.bounds`, or for the
/// Byzantine twin 12 ops under `protocol.twin_bounds` with a
/// sim::ByzantineInterposer attached after the client.
AdapterFactory MakeSignedAdapter(SignedProtocol protocol, bool twin);

// --- In-bounds Byzantine variants (sim::ByzantineInterposer-driven) ---
//
// Each BFT adapter's Byzantine twin keeps the protocol inside its stated
// fault model (|crashed ∪ byzantine| <= f) but lets the schedule turn one
// node into a liar for seed-chosen windows: equivocation (where the
// protocol has a forge hook), withheld or corrupted outbound traffic, and
// replayed stale captures. Safety must hold for every schedule.
AdapterFactory MakePbftByzantineAdapter();      ///< full hooks + view storms
AdapterFactory MakeZyzzyvaByzantineAdapter();   ///< backups only lie
AdapterFactory MakeMinBftByzantineAdapter();    ///< USIG bounds the lying
AdapterFactory MakeHotStuffByzantineAdapter();  ///< pacemaker absorbs it
AdapterFactory MakeXftByzantineAdapter();       ///< non-anarchy slice
AdapterFactory MakeCheapBftByzantineAdapter();  ///< PANIC/CheapSwitch path

// --- Out-of-bounds adapters (violations must be discoverable) ---

/// Paxos with q1 = q2 = 2 at n = 4: quorums need not intersect, so a
/// partition lets two proposers decide different values.
AdapterFactory MakePaxosOutOfBoundsAdapter();

/// FloodSet cut one round short (f rounds for f crashes): a crash chain
/// can hide a value from part of the cluster in every round.
AdapterFactory MakeFloodSetOutOfBoundsAdapter();

/// PBFT at n = 3, f = 1 (i.e. n = 3f): the quorum math degenerates
/// (computed f' = 0, replicas commit straight from a pre-prepare), so an
/// equivocating primary — f'+1 liars for the quorum math in force,
/// schedule-driven through the reusable Byzantine interposer — forks the
/// two honest backups into a pinned, shrinkable prefix violation.
AdapterFactory MakePbftOutOfBoundsAdapter();

/// Plain 2PC (src/commit/) under the coordinator-crash-between-prepare-
/// and-commit window with no restart — the blocking scenario the shard
/// layer's replicated decision record exists to eliminate. Termination
/// is (deliberately, wrongly) expected, so every schedule that fires the
/// coordinator crash yields a discoverable liveness violation while
/// safety still holds.
AdapterFactory MakeTwoPhaseCommitBlockingAdapter();

/// Crossword with the coded-accept quorum cut to a bare majority
/// (unsafe_majority_quorum): a 1-shard entry can be "chosen" with only
/// majority-many distinct shards outstanding, fewer than the k needed to
/// reconstruct. Crash the right acceptors and the value is either
/// unrecoverable (liveness violation: the group stalls on a slot nobody
/// can reassemble) or a new leader no-op-fills a decided slot (prefix
/// divergence). Escalation is disabled so the schedule's crashes land.
AdapterFactory MakeCrosswordOutOfBoundsAdapter();

/// The typed-transaction composition with GET ops' shared locks
/// switched off (unsafe_no_read_locks) and two concurrent write-skew
/// clients: both commit having read the initial versions of each
/// other's write targets, so no serial order explains the history — the
/// serializability audit must find it.
AdapterFactory MakeShardTxnNoReadLocksAdapter();

/// The live-move ladder with the flip made BEFORE freeze + drain: a
/// transaction still in flight at the old owner applies its writes
/// behind the copy snapshot and the routing fence, so a committed write
/// exists at no owner — the lost-write violation the safe phase order
/// (claim -> freeze -> drain -> copy -> flip -> unfreeze) prevents.
AdapterFactory MakeShardReshardOutOfBoundsAdapter();

/// The full in-bounds roster, as (name, factory) pairs, for sweeping.
std::vector<std::pair<const char*, AdapterFactory>> AllInBoundsAdapters();

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_ADAPTERS_H_
