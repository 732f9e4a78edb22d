// Tests for the Section 3 constructions of ◇C from other classes.
#include "core/ecfd_compose.hpp"

#include <gtest/gtest.h>

#include "check/fuzz.hpp"
#include "fd/heartbeat_p.hpp"
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

// --- EcfdFromOmega (trivial construction) ------------------------------

TEST(EcfdFromOmega, SuspectsEveryoneExceptTrusted) {
  System sys(4, 1);
  std::vector<fd::ScriptedFd::Step> steps;
  steps.push_back({0, ProcessSet(4), 2});
  auto& omega = sys.host(1).emplace<fd::ScriptedFd>(steps);
  core::EcfdFromOmega c(4, /*self=*/1, &omega);
  sys.start();
  EXPECT_EQ(c.trusted(), 2);
  const ProcessSet s = c.suspected();
  EXPECT_FALSE(s.contains(2)) << "never the trusted process";
  EXPECT_FALSE(s.contains(1)) << "never self";
  EXPECT_TRUE(s.contains(0) && s.contains(3));
}

TEST(EcfdFromOmega, SatisfiesDefinition1OnRealOmega) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(0, msec(400));
  auto install = [&cfg](ProcessHost& host, ProcessId p,
                        std::vector<std::shared_ptr<void>>& keepalive) {
    auto& lc = host.emplace<fd::LeaderCandidate>();
    auto adapter = std::make_shared<core::EcfdFromOmega>(cfg.n, p, &lc);
    keepalive.push_back(adapter);
    return testutil::OracleRefs{adapter.get(), adapter.get()};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.eventually_consistent());
  EXPECT_EQ(res.omega_leader, 1);
  // But the accuracy is the worst possible: strong accuracy fails because
  // correct non-leaders are suspected forever (the paper's point about the
  // poor accuracy of this construction).
  EXPECT_FALSE(res.holds(testutil::kStrongAccuracy));
}

// --- EcfdFromP ----------------------------------------------------------

TEST(EcfdFromP, TrustedIsFirstUnsuspected) {
  System sys(4, 1);
  ProcessSet susp(4);
  susp.add(0);
  susp.add(1);
  std::vector<fd::ScriptedFd::Step> steps;
  steps.push_back({0, susp, kNoProcess});
  auto& p_mod = sys.host(2).emplace<fd::ScriptedFd>(steps);
  core::EcfdFromP c(&p_mod);
  sys.start();
  EXPECT_EQ(c.trusted(), 2);
  EXPECT_EQ(c.suspected(), susp);
}

TEST(EcfdFromP, SatisfiesDefinition1OnRealHeartbeat) {
  auto cfg = base_scenario(5, 3);
  cfg.with_crash(0, msec(500)).with_crash(3, sec(1));
  auto install = [](ProcessHost& host, ProcessId,
                    std::vector<std::shared_ptr<void>>& keepalive) {
    auto& hb = host.emplace<fd::HeartbeatP>();
    auto adapter = std::make_shared<core::EcfdFromP>(&hb);
    keepalive.push_back(adapter);
    return testutil::OracleRefs{adapter.get(), adapter.get()};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.eventually_consistent());
  EXPECT_EQ(res.omega_leader, 1) << "first correct process";
  // From ◇P we even keep eventual strong accuracy — the best accuracy of
  // all the constructions.
  EXPECT_TRUE(res.holds(testutil::kStrongAccuracy));
}

// --- EcfdFromSAndOmega ----------------------------------------------------

TEST(EcfdFromSAndOmega, ErasesTrustedFromSuspectedSet) {
  System sys(4, 1);
  ProcessSet susp(4);
  susp.add(1);
  susp.add(3);
  std::vector<fd::ScriptedFd::Step> steps;
  steps.push_back({0, susp, /*trusted=*/3});  // inconsistent pair on purpose
  auto& mod = sys.host(0).emplace<fd::ScriptedFd>(steps);
  core::EcfdFromSAndOmega c(&mod, &mod);
  sys.start();
  EXPECT_EQ(c.trusted(), 3);
  EXPECT_FALSE(c.suspected().contains(3))
      << "Definition 1 clause 3 enforced at the adapter";
  EXPECT_TRUE(c.suspected().contains(1));
}

TEST(EcfdFromSAndOmega, ComposesHeartbeatAndLeaderCandidate) {
  auto cfg = base_scenario(5, 4);
  cfg.with_crash(0, msec(600));
  auto install = [](ProcessHost& host, ProcessId,
                    std::vector<std::shared_ptr<void>>& keepalive) {
    auto& hb = host.emplace<fd::HeartbeatP>();
    auto& lc = host.emplace<fd::LeaderCandidate>();
    auto adapter = std::make_shared<core::EcfdFromSAndOmega>(&hb, &lc);
    keepalive.push_back(adapter);
    return testutil::OracleRefs{adapter.get(), adapter.get()};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.eventually_consistent());
  EXPECT_EQ(res.omega_leader, 1);
}

// --- the FD stack table ------------------------------------------------

// ecfd_sim and ecfd_node resolve names and aliases, ecfd_fuzz and repro
// files canonical names only: every one must pick exactly its own row, and
// rows sit at their enum ordinal (fuzz digests hash it).
TEST(FdStackTable, NamesAndAliasesResolveToTheirOwnRow) {
  const auto& rows = consensus::all_fd_stacks();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const consensus::FdStackInfo& info = rows[i];
    EXPECT_EQ(static_cast<std::size_t>(info.id), i) << info.name;
    EXPECT_EQ(consensus::fd_stack_by_name(info.name), &info) << info.name;
    EXPECT_EQ(consensus::fd_stack_by_name(info.alias), &info) << info.alias;
    EXPECT_EQ(check::fd_stack_from_name(info.name), info.id) << info.name;
  }
  EXPECT_EQ(consensus::fd_stack_by_name("stable_leader")->id,
            consensus::FdStack::kStableLeader);
  EXPECT_EQ(consensus::fd_stack_by_name("ecfd")->id, consensus::FdStack::kEcfd);
}

}  // namespace
}  // namespace ecfd
