#ifndef CONSENSUS40_PAXOS_FAST_PAXOS_H_
#define CONSENSUS40_PAXOS_FAST_PAXOS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace consensus40::paxos {

/// Configuration for a Fast Paxos ensemble (single decree).
struct FastPaxosOptions {
  /// Number of acceptors; must be 3f+1 for f tolerated crash faults.
  /// Acceptors are processes 0..n-1; process 0 is also the coordinator.
  int n = 4;
};

/// Fast Paxos acceptor (process 0 doubles as coordinator/leader):
///
///  - Coordinator opens the round with an "Any" message, delegating value
///    choice to the clients.
///  - Clients send Accept! directly to all acceptors: a fast round needs
///    only 2 message delays (client->acceptor->learner) instead of 3.
///  - If concurrent clients collide and no value reaches the fast quorum,
///    the coordinator recovers in a classic round: it picks the value with
///    a majority among the collected responses (if any) and runs a normal
///    accept phase.
///
/// With n = 3f+1, both the fast and the classic quorum are 2f+1: any two
/// fast quorums and any classic quorum share a node, which is what makes
/// coordinated recovery safe.
class FastPaxosAcceptor : public sim::Process {
 public:
  explicit FastPaxosAcceptor(FastPaxosOptions options);

  /// Message a client uses to propose its value directly to acceptors.
  struct ClientAcceptMsg : sim::Message {
    explicit ClientAcceptMsg(std::string v) : value(std::move(v)) {}
    const char* TypeName() const override { return "accept!"; }
    int ByteSize() const override {
      return 16 + static_cast<int>(value.size());
    }
    std::string value;
  };

  /// Broadcast when the value is chosen; also the client's completion
  /// signal.
  struct CommitMsg : sim::Message {
    explicit CommitMsg(std::string v) : value(std::move(v)) {}
    const char* TypeName() const override { return "commit"; }
    int ByteSize() const override {
      return 16 + static_cast<int>(value.size());
    }
    std::string value;
  };

  bool IsCoordinator() const { return id() == 0; }
  const std::optional<std::string>& chosen() const { return chosen_; }
  /// Simulation time at which the coordinator learned the chosen value.
  sim::Time chosen_at() const { return chosen_at_; }
  /// Number of classic (recovery) rounds the coordinator ran.
  int classic_rounds() const { return classic_rounds_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  struct AnyMsg;
  struct AcceptedMsg;
  struct ClassicAcceptMsg;

  void EvaluateFastRound();
  void StartClassicRound();
  void Choose(const std::string& value);
  std::vector<sim::NodeId> Acceptors() const;

  FastPaxosOptions options_;
  int fast_quorum_;
  int classic_quorum_;

  // Acceptor state.
  int rnd_ = 0;           ///< Highest round joined.
  int vrnd_ = -1;         ///< Round of last accepted value.
  std::string vval_;      ///< Last accepted value.
  bool any_active_ = false;  ///< An Any message opened the current round.

  // Coordinator state.
  int current_round_ = 0;
  bool round_is_fast_ = true;
  /// acceptor -> value accepted in current round.
  std::map<sim::NodeId, std::string> responses_;
  std::set<sim::NodeId> known_clients_;
  uint64_t collision_timer_ = 0;
  int classic_rounds_ = 0;

  std::optional<std::string> chosen_;
  sim::Time chosen_at_ = -1;
};

/// A Fast Paxos client: proposes one value straight to every acceptor at a
/// configurable time; records when it saw the commit.
class FastPaxosClient : public sim::Process {
 public:
  FastPaxosClient(int n, std::string value, sim::Duration send_at);

  bool done() const { return done_at_ >= 0; }
  sim::Time done_at() const { return done_at_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  int n_;
  std::string value_;
  sim::Duration send_at_;
  sim::Time done_at_ = -1;
};

}  // namespace consensus40::paxos

#endif  // CONSENSUS40_PAXOS_FAST_PAXOS_H_
