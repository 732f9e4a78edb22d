// Tests for the SWIM gossip membership detector (fd/swim.hpp): class-◇C
// membership under crashes, indirect probing masking a bad direct link,
// suspicion + refutation across a partition/heal, the O(1)-per-node
// steady-state message bound, and bitwise determinism at n=256.
#include "fd/swim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer installer(fd::SwimFd::Config cfg = {}) {
  return [cfg](ProcessHost& host, ProcessId,
               std::vector<std::shared_ptr<void>>&) {
    auto& f = host.emplace<fd::SwimFd>(cfg);
    return testutil::OracleRefs{&f, &f};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(50));
}

TEST(Swim, IsEventuallyConsistentUnderCrashes) {
  auto cfg = base_scenario(8, 1);
  cfg.with_crash(2, msec(700)).with_crash(5, sec(1));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.eventually_perfect());
  EXPECT_TRUE(res.eventually_consistent());
  EXPECT_EQ(res.omega_leader, 0);
}

TEST(Swim, LowestIdCrashMovesTrust) {
  auto cfg = base_scenario(6, 2);
  cfg.with_crash(0, msec(800));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.eventually_consistent());
  EXPECT_EQ(res.omega_leader, 1);
}

TEST(Swim, IndirectProbesMaskOneBadLinkPair) {
  // The SWIM selling point: p0<->p1 is severed in BOTH directions, so
  // every direct probe between them dies — yet neither may suspect the
  // other, because ping-req relays (p2..) still reach the target and route
  // the ack back. A plain heartbeat detector suspects here; SWIM must not.
  const int n = 6;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 3;
  cfg.links = LinkKind::kReliable;
  auto sys = make_system(cfg);
  std::vector<fd::SwimFd*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::SwimFd>());
  }
  sys->network().set_blocked(0, 1, true);
  sys->network().set_blocked(1, 0, true);
  sys->start();
  sys->run_until(sec(5));
  EXPECT_FALSE(fds[0]->suspected().contains(1));
  EXPECT_FALSE(fds[1]->suspected().contains(0));
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_TRUE(fds[p]->suspected().empty()) << "false suspicion at p" << p;
  }
}

TEST(Swim, RefutationClearsSuspicionAfterHeal) {
  // Partition {p0,p1} away long enough for both sides to suspect — and
  // with the default 400ms suspicion timeout, declare — each other dead.
  // After heal, pings carry the stale claims to their subjects (see
  // SwimFd::attach_subject_state), the victims refute at a higher
  // incarnation, and every suspicion must clear: alive-overrides-dead is
  // exactly what keeps this detector in ◇C after a split un-happens.
  const int n = 8;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 4;
  cfg.links = LinkKind::kReliable;
  auto sys = make_system(cfg);
  std::vector<fd::SwimFd*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::SwimFd>());
  }
  sys->start();
  sys->run_until(msec(500));
  sys->network().partition(testutil::minority(n, 2));
  sys->run_until(sec(3));
  EXPECT_TRUE(fds[4]->suspected().contains(0));
  EXPECT_TRUE(fds[0]->suspected().contains(4));
  sys->network().heal();
  sys->run_until(sec(12));
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_TRUE(fds[p]->suspected().empty())
        << "unrefuted suspicion at p" << p;
    EXPECT_EQ(fds[p]->trusted(), 0) << "trust at p" << p;
  }
  // The refutations happened by outliving the death verdicts, not by
  // forgetting them: both isolated processes must have bumped their
  // incarnation past the majority's claims.
  EXPECT_GT(fds[0]->incarnation(), 0u);
  EXPECT_GT(fds[1]->incarnation(), 0u);
}

TEST(Swim, SteadyStateMessageCostIsConstantPerNode) {
  // One direct probe per node per period: ping + ack = 2 messages per node
  // per period in a healthy cluster, independent of n.
  const int n = 64;
  auto cfg = base_scenario(n, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) sys->host(p).emplace<fd::SwimFd>();
  sys->start();
  sys->run_until(sec(1));
  const auto before = sys->network().sent_total();
  sys->run_until(sec(3));
  const auto sent = sys->network().sent_total() - before;
  fd::SwimFd::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  EXPECT_LT(static_cast<double>(sent), periods * 2.5 * n);
  EXPECT_GT(static_cast<double>(sent), periods * 1.5 * n);
}

TEST(Swim, DeterministicAtN256) {
  auto run_once = [](std::vector<ProcessSet>* susp, std::int64_t* sent) {
    auto cfg = base_scenario(256, 6);
    cfg.with_crash(129, msec(600));
    auto sys = make_system(cfg);
    std::vector<fd::SwimFd*> fds;
    for (ProcessId p = 0; p < 256; ++p) {
      fds.push_back(&sys->host(p).emplace<fd::SwimFd>());
    }
    sys->start();
    sys->run_until(sec(3));
    for (auto* f : fds) susp->push_back(f->suspected());
    *sent = sys->network().sent_total();
  };
  std::vector<ProcessSet> susp_a, susp_b;
  std::int64_t sent_a = 0, sent_b = 0;
  run_once(&susp_a, &sent_a);
  run_once(&susp_b, &sent_b);
  EXPECT_EQ(sent_a, sent_b);
  ASSERT_EQ(susp_a.size(), susp_b.size());
  for (std::size_t i = 0; i < susp_a.size(); ++i) {
    EXPECT_EQ(susp_a[i], susp_b[i]) << "membership diverged at p" << i;
  }
  EXPECT_TRUE(susp_a[0].contains(129));
}

TEST(Swim, UnmutatedPassesGrayDisseminatorScenario) {
  // The exact scenario check/fuzz.cpp uses to catch Mutant::
  // kDroppedRefutation, with the hook OFF: p1 is gray (3x slow timers,
  // +30ms on every send), which provokes real false suspicions — the
  // healthy detector must refute them all and keep eventual strong
  // accuracy (promised in check/mutants.hpp).
  const int n = 5;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.links = LinkKind::kReliable;
  cfg.with_crash(n - 1, sec(2));
  const auto install = [](ProcessHost& host, ProcessId,
                          std::vector<std::shared_ptr<void>>&) {
    auto& f = host.emplace<fd::SwimFd>();
    return testutil::OracleRefs{&f, &f};
  };
  auto res = run_fd_scenario(cfg, install, sec(10), [](System& sys) {
    sys.host(1).set_gray(3000, msec(30));
  });
  EXPECT_TRUE(res.holds(testutil::kStrongCompleteness));
  EXPECT_TRUE(res.holds(testutil::kStrongAccuracy));
  EXPECT_TRUE(res.eventually_consistent()) << res.summary();
}

}  // namespace
}  // namespace ecfd
