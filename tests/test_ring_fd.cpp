#include "fd/ring_fd.hpp"

#include <gtest/gtest.h>

#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer ring_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& ring = host.emplace<fd::RingFd>();
    return testutil::OracleRefs{&ring, &ring};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(300), msec(60));
}

TEST(RingFd, FailureFreeConvergesToNoSuspicionsAndLeaderP0) {
  auto res = run_fd_scenario(base_scenario(5, 1), ring_installer(), sec(8));
  EXPECT_TRUE(res.holds(testutil::kStrongAccuracy));
  EXPECT_TRUE(res.holds(testutil::kOmega));
  EXPECT_EQ(res.omega_leader, 0) << "ring leader is first in order";
  EXPECT_TRUE(res.eventually_consistent());
}

TEST(RingFd, CrashDetectedAndPropagatedAroundRing) {
  auto cfg = base_scenario(6, 2);
  cfg.with_crash(2, sec(1));
  auto res = run_fd_scenario(cfg, ring_installer(), sec(10));
  EXPECT_TRUE(res.eventually_perfect()) << res.summary();
}

TEST(RingFd, LeaderFallsToFirstCorrectWhenP0Crashes) {
  auto cfg = base_scenario(5, 3);
  cfg.with_crash(0, sec(1)).with_crash(1, sec(2));
  auto res = run_fd_scenario(cfg, ring_installer(), sec(12));
  EXPECT_TRUE(res.holds(testutil::kOmega));
  EXPECT_EQ(res.omega_leader, 2)
      << "first correct process in ring order";
  EXPECT_TRUE(res.eventually_consistent());
}

TEST(RingFd, LinearMessageCost) {
  // 2n messages per period (n QUERY + n REPLY) in the steady state, plus
  // the occasional recovery poll.
  ScenarioConfig cfg = base_scenario(8, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<fd::RingFd>();
  sys->start();
  sys->run_until(sec(2));
  const auto queries = sys->counters().get("msg.ring.query.sent");
  const auto replies = sys->counters().get("msg.ring.reply.sent");
  fd::RingFd::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  EXPECT_NEAR(static_cast<double>(queries), periods * cfg.n,
              periods * cfg.n * 0.10);
  EXPECT_NEAR(static_cast<double>(replies), periods * cfg.n,
              periods * cfg.n * 0.10);
}

TEST(RingFd, TargetSkipsSuspectedProcesses) {
  ScenarioConfig cfg = base_scenario(4, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    rings.push_back(&sys->host(p).emplace<fd::RingFd>());
  }
  sys->crash_at(1, msec(100));
  sys->start();
  sys->run_until(sec(3));
  EXPECT_EQ(rings[0]->target(), 2) << "p0 must skip crashed p1";
  EXPECT_TRUE(rings[0]->suspected().contains(1));
}

// The ◇C sweep over stacks of the FD table: the ring's seeds, then the
// stable-Omega stacks a UDP node runs by default (stable_leader and the
// paper's ecfd composition).
struct SweepParam {
  std::uint64_t seed;
  int n;
  int crashes;
  consensus::FdStack stack{consensus::FdStack::kRing};
};

class RingFdSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RingFdSweep, EventuallyConsistent) {
  const SweepParam param = GetParam();
  auto cfg = base_scenario(param.n, param.seed);
  for (int i = 0; i < param.crashes; ++i) {
    // Crash from the middle of the ring, staggered.
    cfg.with_crash((param.n / 2 + i) % param.n, msec(400) + i * msec(500));
  }
  auto res = run_fd_scenario(cfg, testutil::stack_installer(param.stack),
                             sec(15));
  EXPECT_TRUE(res.eventually_consistent())
      << consensus::fd_stack_info(param.stack).name << " seed=" << param.seed
      << " n=" << param.n << " crashes=" << param.crashes << res.summary();
}

constexpr auto kStableLeader = consensus::FdStack::kStableLeader;
constexpr auto kEcfd = consensus::FdStack::kEcfd;

INSTANTIATE_TEST_SUITE_P(
    Seeds, RingFdSweep,
    ::testing::Values(SweepParam{21, 4, 1}, SweepParam{22, 5, 2},
                      SweepParam{23, 6, 1}, SweepParam{24, 7, 3},
                      SweepParam{25, 5, 0}, SweepParam{26, 3, 1},
                      SweepParam{27, 8, 2},
                      SweepParam{31, 4, 1, kStableLeader},
                      SweepParam{32, 7, 3, kStableLeader},
                      SweepParam{33, 5, 0, kStableLeader},
                      SweepParam{34, 4, 1, kEcfd},
                      SweepParam{35, 7, 3, kEcfd},
                      SweepParam{36, 5, 0, kEcfd}));

}  // namespace
}  // namespace ecfd
