// A1 — ablation of the library's own design choices (DESIGN.md §4):
//
//   (a) adaptive timeouts: every detector widens a pair's timeout after a
//       false suspicion. The proofs of eventual accuracy (Theorem 1's
//       "after a bounded number of times the time-out will be larger than
//       2Φ+Δ") rely on it. Ablation: increment = 0 in a network whose
//       post-GST delay bound exceeds the initial timeout — mistakes then
//       never stop.
//   (b) the ring detector's recovery polls: a process that everybody
//       suspects is polled by nobody, so without the occasional direct
//       probe of a suspect, a false suspicion of an isolated process can
//       only be cleared indirectly. Ablation: recovery_every = 0.
//
// Metrics come from the obs::QosScoreboard over the recorded suspicion
// transitions (bench/fd_qos.hpp): false-suspicion episodes and query
// accuracy over a long run, exact to the event.

#include "fd/heartbeat_p.hpp"
#include "fd/ring_fd.hpp"
#include "fd_qos.hpp"
#include "net/scenario.hpp"
#include "table.hpp"

namespace {

using namespace ecfd;

struct Metrics {
  int episodes{};
  double accuracy{};
  bool settled{};  ///< no suspicions of correct processes at the end
};

template <class InstallFn>
Metrics run(std::uint64_t seed, InstallFn install) {
  ScenarioConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(300);
  cfg.pre_gst_max = msec(120);
  // Post-GST delays up to 40ms: a heartbeat gap can reach ~50ms, well
  // above the default 30ms initial timeout, so a fixed timeout keeps
  // producing false suspicions forever while an adaptive one stops.
  cfg.delta = msec(40);
  auto sys = make_system(cfg);
  obs::Recorder rec(obs::Recorder::kStateDepth);
  sys->attach_recorder(&rec);

  std::vector<const SuspectOracle*> oracles(5, nullptr);
  install(*sys, oracles);
  const TimeUs horizon = sec(20);
  sys->start();
  sys->run_until(horizon);

  const obs::QosScoreboard sb = bench::score_run(rec, 5, horizon);
  const ProcessSet correct = ProcessSet::full(5);
  Metrics m;
  m.episodes = bench::false_suspicions(sb, correct);
  m.accuracy = bench::mean_query_accuracy(sb, correct);
  m.settled = true;
  for (ProcessId p = 0; p < 5; ++p) {
    if (!oracles[static_cast<std::size_t>(p)]->suspected().empty()) m.settled = false;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  ecfd::bench::init(argc, argv, "a1_adaptivity_ablation");
  ecfd::bench::section("A1: adaptivity ablation (timeout widening, ring recovery)");
  std::cout << "n=5, failure-free, post-GST delta=40ms vs initial timeout "
               "30ms, 20s run. QoS over recorded suspicion events.\n";

  ecfd::bench::Table table({"detector", "variant", "mistakes", "accuracy%",
                            "settled"}, 16);
  table.print_header();

  for (DurUs inc : {msec(10), DurUs{0}}) {
    const Metrics m = run(11, [inc](System& sys,
                                    std::vector<const SuspectOracle*>& out) {
      for (ProcessId p = 0; p < 5; ++p) {
        fd::HeartbeatP::Config hc;
        hc.timeout_increment = inc;
        out[static_cast<std::size_t>(p)] = &sys.host(p).emplace<fd::HeartbeatP>(hc);
      }
    });
    table.print_row("heartbeatP", inc > 0 ? "adaptive" : "fixed-timeout",
                    m.episodes, 100.0 * m.accuracy, m.settled ? "yes" : "NO");
  }

  for (int rec : {4, 0}) {
    const Metrics m = run(12, [rec](System& sys,
                                    std::vector<const SuspectOracle*>& out) {
      for (ProcessId p = 0; p < 5; ++p) {
        fd::RingFd::Config rc;
        rc.recovery_every = rec;
        out[static_cast<std::size_t>(p)] = &sys.host(p).emplace<fd::RingFd>(rc);
      }
    });
    table.print_row("ring", rec > 0 ? "recovery-polls" : "no-recovery",
                    m.episodes, 100.0 * m.accuracy, m.settled ? "yes" : "NO");
  }

  std::cout << "\nShape check: removing timeout adaptation keeps the "
               "mistake stream alive for the whole run (orders of "
               "magnitude more episodes, lower accuracy, typically "
               "unsettled at the end) — the adaptivity every Theorem here "
               "relies on. The ring's recovery polls, by contrast, measure "
               "as redundant in this scenario: a falsely suspected process "
               "washes itself clean through its own outgoing polls, so the "
               "mechanism is belt-and-braces for gossip-path corner "
               "cases.\n";
  return ecfd::bench::finish();
}
