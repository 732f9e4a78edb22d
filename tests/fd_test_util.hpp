#pragma once

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/sim_monitor.hpp"
#include "net/scenario.hpp"
#include "scenario_util.hpp"

/// \file fd_test_util.hpp
/// Shared scaffolding for failure-detector property tests: build a system
/// from a scenario, install a detector stack on every process, and classify
/// the run with the online property monitor (check::SimMonitor sampling
/// every 5 ms into check::FdPropertyMonitor). Scenario construction itself
/// lives in scenario_util.hpp (pulled in here so FD suites get both with
/// one include).

namespace ecfd::testutil {

/// Property names, as FdPropertyMonitor reports them.
inline constexpr std::string_view kStrongCompleteness = "fd.strong_completeness";
inline constexpr std::string_view kWeakCompleteness = "fd.weak_completeness";
inline constexpr std::string_view kStrongAccuracy = "fd.eventual_strong_accuracy";
inline constexpr std::string_view kWeakAccuracy = "fd.eventual_weak_accuracy";
inline constexpr std::string_view kOmega = "fd.leader_agreement";
inline constexpr std::string_view kCoupling = "fd.coupling";

/// What the per-process installer hands back for monitoring. Either
/// pointer may be null when the detector has no such output.
struct OracleRefs {
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

/// Installs a detector on host \p host (process \p p). Adapters that are
/// not protocols can be kept alive by pushing them into \p keepalive.
using Installer = std::function<OracleRefs(
    ProcessHost& host, ProcessId p,
    std::vector<std::shared_ptr<void>>& keepalive)>;

/// The monitor's classification of one finished run. A property the run
/// did not evaluate (no suspect or no leader output attached) has no
/// verdict and never holds.
struct FdRunResult {
  /// FdPropertyMonitor::verdicts() plus, with a suspect output, its
  /// weak_completeness() query.
  std::vector<check::Verdict> verdicts;
  /// The agreed leader at the end (kNoProcess unless Omega holds).
  ProcessId omega_leader{kNoProcess};
  TimeUs horizon{};
  std::int64_t messages_sent{};

  [[nodiscard]] const check::Verdict* verdict(std::string_view name) const {
    for (const check::Verdict& v : verdicts) {
      if (v.property == name) return &v;
    }
    return nullptr;
  }
  /// Holding at the end of the run, whenever it stabilized.
  [[nodiscard]] bool holds(std::string_view name) const {
    const check::Verdict* v = verdict(name);
    return v != nullptr && v->state == check::VerdictState::kHolding;
  }
  /// Holding and stabilized at least \p margin before the end (guards
  /// against "stabilized on the last sample" flukes).
  [[nodiscard]] bool holds_with_margin(std::string_view name,
                                       DurUs margin) const {
    const check::Verdict* v = verdict(name);
    return v != nullptr && check::satisfied(*v, horizon, margin);
  }
  /// ◇P = strong completeness + eventual strong accuracy.
  [[nodiscard]] bool eventually_perfect() const {
    return holds(kStrongCompleteness) && holds(kStrongAccuracy);
  }
  /// ◇C (Definition 1): ◇S suspected sets, an Omega leader, and the
  /// coupling clause.
  [[nodiscard]] bool eventually_consistent() const {
    return holds(kStrongCompleteness) && holds(kWeakAccuracy) &&
           holds(kOmega) && holds(kCoupling);
  }
  /// Every verdict, one per line, for assertion messages.
  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    for (const check::Verdict& v : verdicts) os << "\n  " << v.to_string();
    return os.str();
  }
};

/// Runs one FD scenario end to end. \p prepare, when given, adjusts the
/// system (links, gray hosts) after installation and before start.
inline FdRunResult run_fd_scenario(
    const ScenarioConfig& cfg, const Installer& install, TimeUs horizon,
    const std::function<void(System&)>& prepare = {}) {
  auto sys = make_system(cfg);
  std::vector<std::shared_ptr<void>> keepalive;
  std::vector<OracleRefs> refs;
  check::SimMonitor::Config mc;
  mc.period = msec(5);
  mc.check_suspect = false;
  mc.check_leader = false;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    refs.push_back(install(sys->host(p), p, keepalive));
    mc.check_suspect = mc.check_suspect || refs.back().suspect != nullptr;
    mc.check_leader = mc.check_leader || refs.back().leader != nullptr;
  }
  ProcessSet correct = ProcessSet::full(cfg.n);
  for (const CrashPlan& c : cfg.crashes) correct.remove(c.process);
  check::SimMonitor monitor(mc);
  monitor.install(*sys, correct, horizon);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    const OracleRefs& r = refs[static_cast<std::size_t>(p)];
    monitor.attach_fd(p, r.suspect, r.leader);
  }
  if (prepare) prepare(*sys);
  monitor.start();
  sys->start();
  sys->run_until(horizon);

  FdRunResult out;
  out.verdicts = monitor.fd()->verdicts();
  if (mc.check_suspect) {
    out.verdicts.push_back(monitor.fd()->weak_completeness());
  }
  out.omega_leader = monitor.fd()->common_leader();
  out.horizon = horizon;
  out.messages_sent = sys->network().sent_total();
  return out;
}

}  // namespace ecfd::testutil
