// Fig. 1 — the paper's class table, regenerated empirically.
//
// Fig. 1 defines the four eventual failure-detector classes by their
// completeness/accuracy combination:
//
//                  | eventual strong acc. | eventual weak acc.
//   strong compl.  |        ◇P            |        ◇S
//   weak compl.    |        ◇Q            |        ◇W
//
// plus Omega (Property 1) and the paper's ◇C (Definition 1). We run every
// detector implementation in this library through the same crash scenario
// and print which properties its output satisfied at the end of the run, as
// the online property monitor (check::SimMonitor sampling every 5 ms)
// classified it — reproducing the table with measured data instead of
// definitions.

#include <memory>
#include <string_view>

#include "check/sim_monitor.hpp"
#include "core/c_to_p.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/omega_from_s.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/stable_leader.hpp"
#include "fd/w_to_s.hpp"
#include "net/scenario.hpp"
#include "table.hpp"

namespace {

using namespace ecfd;

struct OraclePair {
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

using Installer = std::function<OraclePair(
    ProcessHost&, ProcessId, std::vector<std::shared_ptr<void>>&)>;

/// Fig. 1's axes plus Omega and the coupling clause; each is "holding at the
/// end of the run" (an eventual property that stabilized at any time).
struct Classes {
  bool sc{false};     ///< strong completeness
  bool wc{false};     ///< weak completeness
  bool esa{false};    ///< eventual strong accuracy
  bool ewa{false};    ///< eventual weak accuracy
  bool omega{false};  ///< Property 1
  bool coupling{false};

  [[nodiscard]] bool eventually_perfect() const { return sc && esa; }
  [[nodiscard]] bool eventually_strong() const { return sc && ewa; }
  [[nodiscard]] bool eventually_weak() const { return wc && ewa; }
  [[nodiscard]] bool eventually_quasi_perfect() const { return wc && esa; }
  [[nodiscard]] bool eventually_consistent() const {
    return eventually_strong() && omega && coupling;
  }
};

Classes classify(const Installer& install, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = 6;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(250);
  cfg.delta = msec(5);
  cfg.pre_gst_max = msec(50);
  cfg.with_crash(2, msec(700));
  cfg.with_crash(5, sec(1));

  auto sys = make_system(cfg);
  std::vector<std::shared_ptr<void>> keepalive;
  std::vector<OraclePair> oracles;
  check::SimMonitor::Config mc;
  mc.period = msec(5);
  mc.check_suspect = false;
  mc.check_leader = false;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    oracles.push_back(install(sys->host(p), p, keepalive));
    mc.check_suspect = mc.check_suspect || oracles.back().suspect != nullptr;
    mc.check_leader = mc.check_leader || oracles.back().leader != nullptr;
  }
  ProcessSet correct = ProcessSet::full(cfg.n);
  correct.remove(2);
  correct.remove(5);
  const TimeUs horizon = sec(10);
  check::SimMonitor monitor(mc);
  monitor.install(*sys, correct, horizon);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    const OraclePair& o = oracles[static_cast<std::size_t>(p)];
    monitor.attach_fd(p, o.suspect, o.leader);
  }
  monitor.start();
  sys->start();
  sys->run_until(horizon);

  const std::vector<check::Verdict> verdicts = monitor.fd()->verdicts();
  auto holding = [&verdicts](std::string_view name) {
    for (const check::Verdict& v : verdicts) {
      if (v.property == name) return v.state == check::VerdictState::kHolding;
    }
    return false;  // not evaluated: the detector lacks that output
  };
  Classes c;
  c.sc = holding("fd.strong_completeness");
  c.wc = mc.check_suspect && monitor.fd()->weak_completeness().state ==
                                 check::VerdictState::kHolding;
  c.esa = holding("fd.eventual_strong_accuracy");
  c.ewa = holding("fd.eventual_weak_accuracy");
  c.omega = holding("fd.leader_agreement");
  c.coupling = holding("fd.coupling");
  return c;
}

const char* yn(bool b) { return b ? "yes" : "-"; }

}  // namespace

int main(int argc, char** argv) {
  ecfd::bench::init(argc, argv, "fig1_classification");
  ecfd::bench::section("Fig. 1: measured class membership of every detector");
  std::cout << "scenario: n=6, crashes of p2@700ms and p5@1s, GST=250ms; "
               "10s monitored run.\nSC/WC = strong/weak completeness, "
               "ESA/EWA = eventual strong/weak accuracy.\n";

  ecfd::bench::Table table({"detector", "SC", "WC", "ESA", "EWA", "Omega",
                            "dC", "class"},
                           9);
  table.print_header();

  auto row = [&table](const char* name, const Classes& r) {
    const char* cls = "-";
    if (r.eventually_consistent() && r.eventually_perfect()) {
      cls = "dP+dC";
    } else if (r.eventually_perfect()) {
      cls = "dP";
    } else if (r.eventually_consistent()) {
      cls = "dC";
    } else if (r.eventually_strong()) {
      cls = "dS";
    } else if (r.eventually_quasi_perfect()) {
      cls = "dQ";
    } else if (r.eventually_weak()) {
      cls = "dW";
    } else if (r.omega) {
      cls = "Omega";
    }
    table.print_row(name, yn(r.sc), yn(r.wc), yn(r.esa), yn(r.ewa),
                    yn(r.omega), yn(r.eventually_consistent()), cls);
  };

  row("heartbeatP", classify(
                        [](ProcessHost& h, ProcessId,
                           std::vector<std::shared_ptr<void>>&) {
                          auto& fd = h.emplace<fd::HeartbeatP>();
                          return OraclePair{&fd, nullptr};
                        },
                        1));

  row("ring", classify(
                  [](ProcessHost& h, ProcessId,
                     std::vector<std::shared_ptr<void>>&) {
                    auto& fd = h.emplace<fd::RingFd>();
                    return OraclePair{&fd, &fd};
                  },
                  2));

  row("efficientP", classify(
                        [](ProcessHost& h, ProcessId,
                           std::vector<std::shared_ptr<void>>&) {
                          auto& fd = h.emplace<fd::EfficientP>();
                          return OraclePair{&fd, &fd};
                        },
                        3));

  row("leader-cand", classify(
                         [](ProcessHost& h, ProcessId,
                            std::vector<std::shared_ptr<void>>&) {
                           auto& fd = h.emplace<fd::LeaderCandidate>();
                           return OraclePair{nullptr, &fd};
                         },
                         4));

  row("stable-ldr", classify(
                        [](ProcessHost& h, ProcessId,
                           std::vector<std::shared_ptr<void>>&) {
                          auto& fd = h.emplace<fd::StableLeader>();
                          return OraclePair{nullptr, &fd};
                        },
                        5));

  // Weakly complete input lifted to ◇S by the CT transformation: only p0's
  // module ever suspects the crashed processes directly.
  row("WtoS(weak)", classify(
                        [](ProcessHost& h, ProcessId p,
                           std::vector<std::shared_ptr<void>>&) {
                          const int n = h.n();
                          ProcessSet crashed(n);
                          crashed.add(2);
                          crashed.add(5);
                          std::vector<fd::ScriptedFd::Step> steps;
                          steps.push_back({0, ProcessSet(n), 0});
                          if (p == 0) steps.push_back({sec(2), crashed, 0});
                          auto& in = h.emplace<fd::ScriptedFd>(steps);
                          auto& out = h.emplace<fd::WToS>(&in);
                          return OraclePair{&out, nullptr};
                        },
                        6));

  row("hb+OmegaFromS", classify(
                           [](ProcessHost& h, ProcessId,
                              std::vector<std::shared_ptr<void>>& keep) {
                             auto& hb = h.emplace<fd::HeartbeatP>();
                             auto& om = h.emplace<fd::OmegaFromS>(&hb);
                             auto c = std::make_shared<
                                 core::EcfdFromSAndOmega>(&hb, &om);
                             keep.push_back(c);
                             return OraclePair{c.get(), c.get()};
                           },
                           7));

  row("Omega->dC", classify(
                       [](ProcessHost& h, ProcessId p,
                          std::vector<std::shared_ptr<void>>& keep) {
                         auto& lc = h.emplace<fd::LeaderCandidate>();
                         auto c = std::make_shared<core::EcfdFromOmega>(
                             h.n(), p, &lc);
                         keep.push_back(c);
                         return OraclePair{c.get(), c.get()};
                       },
                       8));

  row("CToP(Fig.2)", classify(
                         [](ProcessHost& h, ProcessId,
                            std::vector<std::shared_ptr<void>>&) {
                           auto& omega = h.emplace<fd::LeaderCandidate>();
                           auto& ctp = h.emplace<core::CToP>(&omega);
                           return OraclePair{&ctp, &omega};
                         },
                         9));

  std::cout << "\nExpected per the paper: heartbeat/ring/efficientP/CToP "
               "reach dP (hence dS/dC with a leader); the Omega-only "
               "detectors satisfy Property 1 only; Omega->dC is dC but NOT "
               "dP (worst accuracy); WtoS lifts weak to strong "
               "completeness.\n";
  return ecfd::bench::finish();
}
