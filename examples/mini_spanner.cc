// mini_spanner: the deck's Google Spanner architecture slide, miniature —
// data partitioned across shards, each shard replicated by its own
// consensus group, and cross-shard transactions committed with 2PC
// running ON TOP of the replication layer ("Transactions: 2PL+2PC" over
// "Abstract Replication: PAXOS").
//
// Everything here is built from the protocol-agnostic pieces: the shard
// layer (src/shard/) obtains its replication groups from the
// consensus::ReplicaGroup registry by NAME, so changing `protocol` below
// to any registered protocol re-runs the same demo over a different
// consensus algorithm with no other change.
//
// The demo moves 40 credits from an account on one shard to an account on
// another, crashes a replica mid-protocol, and shows the transfer
// committing atomically anyway. Then it does what the original Spanner
// slide cannot show with plain 2PC: it kills the COORDINATOR mid-
// transaction — the classic blocking window — and the prepared shards
// still terminate the transaction on their own, because the commit
// decision is a write-once record in a replicated decision group (Gray &
// Lamport's "Consensus on Transaction Commit").
//
//   $ ./mini_spanner

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consensus/replica_group.h"
#include "shard/shard.h"
#include "sim/simulation.h"
#include "smr/state_machine.h"

using namespace consensus40;

namespace {

/// The application front-end: begins transactions against the shard
/// layer's coordinator and re-submits on timeout (which is how a real
/// client rides out a coordinator crash).
class DemoClient : public sim::Process {
 public:
  explicit DemoClient(sim::NodeId coordinator) : coordinator_(coordinator) {}

  void Begin(uint64_t tx_id, std::vector<shard::TxOp> ops) {
    pending_[tx_id] = std::move(ops);
    Submit(tx_id);
  }

  bool Resolved(uint64_t tx_id) const { return outcomes_.count(tx_id) > 0; }
  bool Committed(uint64_t tx_id) const {
    auto it = outcomes_.find(tx_id);
    return it != outcomes_.end() && it->second;
  }

  void OnMessage(sim::NodeId, const sim::Message& msg) override {
    const auto* m = dynamic_cast<const shard::TxOutcomeMsg*>(&msg);
    if (m == nullptr || pending_.count(m->tx_id) == 0) return;
    CancelTimer(timers_[m->tx_id]);
    outcomes_[m->tx_id] = m->committed;
    pending_.erase(m->tx_id);
  }

 private:
  void Submit(uint64_t tx_id) {
    Send(coordinator_,
         std::make_shared<shard::BeginTxMsg>(tx_id, pending_[tx_id]));
    timers_[tx_id] = SetTimer(2 * sim::kSecond, [this, tx_id] {
      if (pending_.count(tx_id)) Submit(tx_id);
    });
  }

  sim::NodeId coordinator_;
  std::map<uint64_t, std::vector<shard::TxOp>> pending_;
  std::map<uint64_t, uint64_t> timers_;
  std::map<uint64_t, bool> outcomes_;
};

/// Replays the longest committed prefix across a group's replicas — the
/// group's authoritative key-value state.
smr::KvStore Replay(const consensus::ReplicaGroup* group) {
  std::vector<smr::Command> best;
  for (size_t i = 0; i < group->members().size(); ++i) {
    auto prefix = group->CommittedPrefix(static_cast<int>(i));
    if (prefix.size() > best.size()) best = std::move(prefix);
  }
  smr::KvStore kv;
  smr::DedupingExecutor dedup;
  for (const smr::Command& cmd : best) dedup.Apply(&kv, cmd);
  return kv;
}

}  // namespace

int main() {
  std::printf("== consensus40: mini-Spanner (2PC over replicated groups) ==\n\n");

  shard::ShardOptions options;  // 2 shards x 3 replicas + 3-replica
  options.protocol = "multi_paxos";  // decision group; registry key.

  shard::ShardedStateMachine ssm(options);
  DemoClient* client = nullptr;
  auto sim = sim::Simulation::Builder(2026)
                 .Setup([&](sim::Simulation& s) { ssm.Build(&s); })
                 .Setup([&](sim::Simulation& s) {
                   client = s.Spawn<DemoClient>(ssm.coordinator_id());
                 })
                 .Build();
  std::printf("shards replicated via the \"%s\" registry protocol\n",
              options.protocol.c_str());
  sim->RunFor(500 * sim::kMillisecond);  // Let every group elect a leader.

  // Seed balances; alice and bob hash to different shards.
  client->Begin(1, {shard::TxOp::Put("alice", "100")});
  client->Begin(2, {shard::TxOp::Put("bob", "10")});
  sim->RunUntil(
      [&] { return client->Resolved(1) && client->Resolved(2); },
      sim->now() + 30 * sim::kSecond);
  std::printf("seeded:    alice=100 (shard %d), bob=10 (shard %d)\n",
              ssm.ShardOf("alice"), ssm.ShardOf("bob"));

  // The cross-shard transfer, with a replica of alice's shard crashing
  // mid-flight: the replication layer hides the machine failure.
  client->Begin(
      3, {shard::TxOp::Put("alice", "60"), shard::TxOp::Put("bob", "50")});
  sim::NodeId victim = ssm.ShardMembers(ssm.ShardOf("alice"))[1];
  sim->ScheduleAfter(2 * sim::kMillisecond, [&] {
    std::printf("crashing replica %d of alice's shard mid-transaction...\n",
                victim);
    sim->Crash(victim);
  });
  bool committed = sim->RunUntil([&] { return client->Resolved(3); },
                                 sim->now() + 120 * sim::kSecond) &&
                   client->Committed(3);
  std::printf("transfer:  40 credits alice -> bob  [tx3 %s]\n\n",
              committed ? "committed" : "FAILED");

  // Now the failure plain 2PC cannot survive: kill the COORDINATOR in
  // the prepare window. The prepared shards time out, propose ABORT to
  // the replicated decision group themselves, and the transaction
  // terminates — no blocking, no inconsistency.
  std::printf("killing the 2PC coordinator mid-transaction...\n");
  client->Begin(
      4, {shard::TxOp::Put("alice", "0"), shard::TxOp::Put("bob", "110")});
  sim->ScheduleAfter(4 * sim::kMillisecond,
                     [&] { sim->Crash(ssm.coordinator_id()); });
  sim->ScheduleAfter(3 * sim::kSecond,
                     [&] { sim->Restart(ssm.coordinator_id()); });
  sim->RunUntil([&] { return client->Resolved(4); },
                sim->now() + 120 * sim::kSecond);
  smr::KvStore decisions = Replay(ssm.decision_group());
  auto d4 = decisions.Get(shard::DecisionKey(4));
  std::printf("tx4 %s; replicated decision record: %s\n\n",
              !client->Resolved(4)      ? "BLOCKED"
              : client->Committed(4)    ? "committed"
                                        : "aborted",
              d4 ? d4->c_str() : "(none)");

  sim->RunFor(3 * sim::kSecond);  // Drain commit broadcasts.
  auto lookup = [&](const std::string& key) {
    auto v = Replay(ssm.shard_group(ssm.ShardOf(key))).Get(key);
    return v ? *v : std::string("-");
  };
  std::printf("final replicated state: alice=%s bob=%s\n",
              lookup("alice").c_str(), lookup("bob").c_str());
  std::printf(
      "\nThe transfer survived a replica crash because 2PC's records are\n"
      "entries in each shard's replicated log; the coordinator crash did\n"
      "not block the system because the commit decision itself lives in a\n"
      "replicated group any prepared participant can consult — the\n"
      "layering in the deck's Spanner figure, taken one step further.\n");
  bool tx4_ok = client->Resolved(4) && ssm.Violations().empty();
  return committed && tx4_ok ? 0 : 1;
}
