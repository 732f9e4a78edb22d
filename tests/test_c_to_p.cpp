// Tests for the paper's Fig. 2 algorithm: transforming ◇C into ◇P in
// partial synchrony (Theorem 1).
#include "core/c_to_p.hpp"

#include <gtest/gtest.h>

#include "fd/leader_candidate.hpp"
#include "fd/scripted_fd.hpp"
#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(50));
}

/// Installs a scripted Omega (common leader from `stable_at`) + CToP.
testutil::Installer scripted_installer(int n, ProcessId leader,
                                       TimeUs stable_at) {
  return [n, leader, stable_at](ProcessHost& host, ProcessId p,
                                std::vector<std::shared_ptr<void>>&) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), p});  // everyone trusts itself first
    steps.push_back({stable_at, ProcessSet(n), leader});
    auto& omega = host.emplace<fd::ScriptedFd>(steps);
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
}

/// Installs a real LeaderCandidate Omega + CToP (the full stack).
testutil::Installer real_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& omega = host.emplace<fd::LeaderCandidate>();
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
}

TEST(CToP, Theorem1OutputIsEventuallyPerfect) {
  auto cfg = base_scenario(5, 1);
  cfg.with_crash(2, msec(800)).with_crash(4, sec(1));
  auto res = run_fd_scenario(cfg, scripted_installer(5, 0, msec(300)),
                             sec(6));
  EXPECT_TRUE(res.eventually_perfect())
      << "SC=" << res.holds(testutil::kStrongCompleteness)
      << " ESA=" << res.holds(testutil::kStrongAccuracy);
  EXPECT_TRUE(res.holds_with_margin(testutil::kStrongCompleteness, sec(1)));
}

TEST(CToP, WorksOnTopOfRealOmega) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(3, sec(1));
  auto res = run_fd_scenario(cfg, real_installer(), sec(8));
  EXPECT_TRUE(res.eventually_perfect());
}

TEST(CToP, SurvivesLeaderCrash) {
  // The scripted leader is p0 until it crashes; afterwards the script
  // moves everyone to p1. The transformation must re-stabilize.
  const int n = 5;
  auto cfg = base_scenario(n, 3);
  cfg.with_crash(0, sec(1));
  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), p});
    steps.push_back({msec(300), ProcessSet(n), 0});
    steps.push_back({sec(1) + msec(200), ProcessSet(n), 1});
    auto& omega = host.emplace<fd::ScriptedFd>(steps);
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.eventually_perfect());
}

TEST(CToP, SteadyStateCostIs2NMinus1) {
  // Section 4: once the leader is stable, 2(n-1) messages per period —
  // n-1 lists from the leader, n-1 I-AM-ALIVEs to it.
  const int n = 8;
  auto cfg = base_scenario(n, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 0});  // p0 is leader from the start
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    sys->host(p).emplace<core::CToP>(&omega);
  }
  sys->start();
  sys->run_until(sec(2));
  const auto lists = sys->counters().get("msg.ctp.list.sent");
  const auto alives = sys->counters().get("msg.ctp.alive.sent");
  core::CToP::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.list_period;
  EXPECT_NEAR(static_cast<double>(lists), periods * (n - 1),
              periods * (n - 1) * 0.05);
  EXPECT_NEAR(static_cast<double>(alives), periods * (n - 1),
              periods * (n - 1) * 0.05);
}

TEST(CToP, EventuallyOnlyLeaderLinksCarryMessages) {
  // With a stable leader, every message involves the leader as source or
  // destination — the "eventually only these links carry messages" claim.
  const int n = 5;
  auto cfg = base_scenario(n, 5);
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 2});  // p2 stable leader
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    sys->host(p).emplace<core::CToP>(&omega);
  }
  sys->start();
  sys->run_until(sec(1));
  // Non-leaders never broadcast lists (they never consider themselves
  // leader), and all alive messages target p2: total = lists(n-1 per
  // period, from p2) + alives(n-1 per period, to p2). Verify no alive
  // message was sent to a non-leader by checking totals match exactly.
  const auto lists = sys->counters().get("msg.ctp.list.sent");
  const auto alives = sys->counters().get("msg.ctp.alive.sent");
  EXPECT_GT(lists, 0);
  EXPECT_NEAR(static_cast<double>(lists), static_cast<double>(alives),
              static_cast<double>(alives) * 0.1);
}

TEST(CToP, ToleratesFairLossyLeaderOutputLinks) {
  // Section 4's link requirements: leader input links partially
  // synchronous, leader OUTPUT links merely fair. Drop 40% of the
  // leader's list messages; ◇P must still hold.
  const int n = 5;
  const ProcessId leader = 0;
  auto cfg = base_scenario(n, 6);
  cfg.with_crash(3, sec(1));
  const auto install = [n, leader](ProcessHost& host, ProcessId,
                                   std::vector<std::shared_ptr<void>>&) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), leader});
    auto& omega = host.emplace<fd::ScriptedFd>(steps);
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
  const auto lossy_leader_links = [n, leader](System& sys) {
    for (ProcessId d = 0; d < n; ++d) {
      if (d == leader) continue;
      FairLossyLink::Config lossy;
      lossy.loss_p = 0.4;
      lossy.force_deliver_every = 5;
      sys.network().set_link(leader, d,
                             std::make_unique<FairLossyLink>(lossy));
    }
  };
  auto res = run_fd_scenario(cfg, install, sec(6), lossy_leader_links);
  EXPECT_TRUE(res.eventually_perfect())
      << "fairness of output links suffices for list adoption"
      << res.summary();
}

TEST(CToP, ActingLeaderFlagTracksTrustedSelf) {
  const int n = 3;
  auto cfg = base_scenario(n, 7);
  auto sys = make_system(cfg);
  std::vector<core::CToP*> ctps;
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 1});
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    ctps.push_back(&sys->host(p).emplace<core::CToP>(&omega));
  }
  sys->start();
  sys->run_until(msec(200));
  EXPECT_TRUE(ctps[1]->acting_leader());
  EXPECT_FALSE(ctps[0]->acting_leader());
  EXPECT_FALSE(ctps[2]->acting_leader());
}

}  // namespace
}  // namespace ecfd
