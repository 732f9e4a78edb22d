// Replicated log (state-machine replication) on top of ◇C-consensus.
//
// The motivating application for consensus: a cluster agrees on the ORDER
// of client commands. Each log slot is one independent instance of the
// paper's Figs. 3-4 algorithm, run by core::LogReplica. Every process
// submits its own commands; whatever each slot decides is appended to the
// log at every replica — so all replicas end with the same sequence even
// though each kept pushing its own commands, the leader crashed mid-run,
// and the detector had to re-elect.
//
// Build & run:  ./build/examples/replicated_log

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/ecfd_compose.hpp"
#include "core/replicated_log.hpp"
#include "fd/ring_fd.hpp"
#include "net/scenario.hpp"

using namespace ecfd;

namespace {
constexpr int kN = 5;
constexpr int kCommandsPerReplica = 3;
}  // namespace

int main() {
  ScenarioConfig cfg;
  cfg.n = kN;
  cfg.seed = 7;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(100);
  cfg.delta = msec(5);
  cfg.with_crash(0, msec(25));  // the first leader dies mid-log

  auto sys = make_system(cfg);

  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < kN; ++p) {
    rings.push_back(&sys->host(p).emplace<fd::RingFd>());
  }
  std::vector<core::EcfdFromRing> oracles(rings.begin(), rings.end());
  // Classic mode: every replica proposes into every slot (a no-op when it
  // has nothing queued), so each one's commands get a turn.
  std::vector<core::LogReplica*> replicas;
  for (ProcessId p = 0; p < kN; ++p) {
    replicas.push_back(&sys->host(p).emplace<core::LogReplica>(
        &oracles[static_cast<std::size_t>(p)]));
  }

  sys->start();
  for (ProcessId p = 0; p < kN; ++p) {
    for (int i = 1; i <= kCommandsPerReplica; ++i) {
      replicas[p]->submit((p + 1) * 1000 + i);  // "author*1000 + seq"
    }
  }
  sys->run_until(sec(20));

  std::cout << "replica | log (command = author*1000 + local seq)\n";
  std::cout << "--------+------------------------------------------\n";
  for (ProcessId p = 0; p < kN; ++p) {
    std::cout << "   p" << p << (sys->host(p).crashed() ? " X " : "   ") << "|";
    for (const auto& e : replicas[p]->log()) std::cout << ' ' << e.command;
    std::cout << '\n';
  }

  // All surviving replicas must hold identical logs, and every survivor's
  // commands must be in them.
  const auto& reference = replicas[1]->log();
  bool identical = true;
  for (ProcessId p = 2; p < kN; ++p) {
    const auto& log = replicas[p]->log();
    identical = identical && log.size() == reference.size() &&
                std::equal(log.begin(), log.end(), reference.begin(),
                           [](const auto& a, const auto& b) {
                             return a.command == b.command;
                           });
  }
  const std::size_t survivor_commands = (kN - 1) * kCommandsPerReplica;
  std::cout << "\nSurvivor logs identical: " << (identical ? "YES" : "NO")
            << "  (" << reference.size() << " commands in "
            << replicas[1]->applied_slots() << " slots)\n";
  return identical && reference.size() >= survivor_commands ? 0 : 1;
}
