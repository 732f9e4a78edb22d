// Tests for state-machine replication on repeated ◇C-consensus
// (core/replicated_log.hpp).
#include "core/replicated_log.hpp"

#include <gtest/gtest.h>

#include "core/ecfd_compose.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "net/scenario.hpp"
#include "obs/recorder.hpp"

namespace ecfd::core {
namespace {

struct Cluster {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<LogReplica*> replicas;  // owned by the hosts
};

Cluster make_cluster(int n, std::uint64_t seed,
                     std::vector<CrashPlan> crashes = {},
                     bool quiescent = false) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(100);
  cfg.delta = msec(5);
  cfg.crashes = std::move(crashes);

  Cluster c;
  c.sys = make_system(cfg);
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < n; ++p) {
    rings.push_back(&c.sys->host(p).emplace<fd::RingFd>());
  }
  for (ProcessId p = 0; p < n; ++p) {
    c.oracles.push_back(std::make_unique<EcfdFromRing>(rings[p]));
    LogReplica::Config lc;
    lc.quiescent = quiescent;
    c.replicas.push_back(
        &c.sys->host(p).emplace<LogReplica>(c.oracles.back().get(), lc));
  }
  return c;
}

std::vector<consensus::Value> commands_of(const LogReplica& r) {
  std::vector<consensus::Value> out;
  for (const auto& e : r.log()) out.push_back(e.command);
  return out;
}

TEST(LogReplica, AllReplicasApplyIdenticalLogs) {
  auto c = make_cluster(4, 1);
  c.sys->start();
  // Two clients submit interleaved commands.
  c.replicas[0]->submit(101);
  c.replicas[0]->submit(102);
  c.replicas[2]->submit(201);
  c.sys->run_until(sec(10));

  const auto reference = commands_of(*c.replicas[0]);
  EXPECT_EQ(reference.size(), 3u);
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference) << "replica " << p;
  }
  // Every submitted command made it in.
  for (consensus::Value v : {101, 102, 201}) {
    EXPECT_NE(std::find(reference.begin(), reference.end(), v),
              reference.end())
        << v;
  }
}

TEST(LogReplica, NoOpsFillSlotsWithoutAppearingInTheLog) {
  auto c = make_cluster(3, 2);
  c.sys->start();
  c.sys->run_until(sec(10));  // nobody submits anything
  for (int p = 0; p < 3; ++p) {
    EXPECT_GE(c.replicas[p]->applied_slots(), 5) << "slots keep deciding";
    EXPECT_TRUE(c.replicas[p]->log().empty()) << "but nothing applied";
  }
}

TEST(LogReplica, SlotsAreAppliedInOrder) {
  auto c = make_cluster(4, 3);
  std::vector<int> applied_slots;
  c.replicas[1]->set_apply([&applied_slots](const LogReplica::Entry& e) {
    applied_slots.push_back(e.slot);
  });
  c.sys->start();
  for (int i = 0; i < 5; ++i) c.replicas[3]->submit(900 + i);
  c.sys->run_until(sec(12));
  ASSERT_GE(applied_slots.size(), 5u);
  EXPECT_TRUE(std::is_sorted(applied_slots.begin(), applied_slots.end()));
  // Commands from one submitter preserve their submission order.
  const auto cmds = commands_of(*c.replicas[1]);
  std::vector<consensus::Value> mine;
  for (auto v : cmds) {
    if (v >= 900) mine.push_back(v);
  }
  EXPECT_EQ(mine, (std::vector<consensus::Value>{900, 901, 902, 903, 904}));
}

TEST(LogReplica, SurvivesLeaderCrashMidLog) {
  auto c = make_cluster(5, 4, {{0, msec(150)}});
  c.sys->start();
  for (ProcessId p = 1; p < 5; ++p) c.replicas[p]->submit(1000 + p);
  c.sys->run_until(sec(20));
  const auto reference = commands_of(*c.replicas[1]);
  for (int p = 2; p < 5; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference);
  }
  // All four survivor commands eventually decided.
  EXPECT_EQ(c.replicas[1]->pending(), 0u);
  EXPECT_GE(reference.size(), 4u);
}

TEST(LogReplica, UnboundedRunKeepsLiveInstancesInsideTheWindow) {
  // No slot budget: a free-running cluster keeps committing long past any
  // fixed capacity, and each replica frees a slot's instances once it is
  // applied, so the live ones never exceed the window.
  auto c = make_cluster(3, 5);
  c.sys->start();
  for (int i = 0; i < 5; ++i) c.replicas[0]->submit(10 + i);
  int max_live = 0;
  for (TimeUs t = msec(100); t <= sec(10); t += msec(100)) {
    c.sys->run_until(t);
    for (const auto& r : c.replicas) {
      max_live = std::max(max_live, r->live_instances());
    }
  }
  const LogReplica& r0 = *c.replicas[0];
  EXPECT_GT(r0.applied_slots(), r0.window()) << "ran past one window";
  EXPECT_LE(max_live, r0.window());
  EXPECT_LE(r0.live_instances(), 2) << "pipeline depth 1: one slot in flight";
  EXPECT_EQ(r0.pending(), 0u) << "every command committed";
  EXPECT_EQ(commands_of(r0),
            (std::vector<consensus::Value>{10, 11, 12, 13, 14}));
}

TEST(LogReplica, QuiescentIdleClusterConsumesNoSlots) {
  // The flip side of NoOpsFillSlots: with quiescent mode on, an idle
  // cluster leaves the bounded log untouched — the property the kv
  // service relies on to not burn through its capacity between requests.
  auto c = make_cluster(3, 2, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(sec(10));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(c.replicas[p]->applied_slots(), 0) << "replica " << p;
    EXPECT_TRUE(c.replicas[p]->log().empty()) << "replica " << p;
  }
}

TEST(LogReplica, QuiescentClusterStillReplicatesLeaderSubmissions) {
  // Foreign traffic on a slot wakes the dormant instances, so a quiescent
  // log still commits: the leader proposes, everyone else joins in.
  auto c = make_cluster(3, 9, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader
  c.replicas[0]->submit(601);
  c.replicas[0]->submit(602);
  c.sys->run_until(sec(10));

  const auto reference = commands_of(*c.replicas[0]);
  EXPECT_EQ(reference, (std::vector<consensus::Value>{601, 602}));
  for (int p = 1; p < 3; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference) << "replica " << p;
  }
  // Only the slots that carried commands were consumed, and each one's
  // instances were freed once it was applied.
  for (int p = 0; p < 3; ++p) {
    EXPECT_LT(c.replicas[p]->applied_slots(), 8) << "replica " << p;
    EXPECT_EQ(c.replicas[p]->live_instances(), 0) << "replica " << p;
  }
}

TEST(LogReplica, CompactDropsTheAppliedPrefix) {
  auto c = make_cluster(3, 7, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader
  for (int i = 0; i < 4; ++i) c.replicas[0]->submit(500 + i);
  c.sys->run_until(sec(10));
  auto& r = *c.replicas[0];
  ASSERT_EQ(r.log().size(), 4u);

  const int cut = r.log()[2].slot;  // keep the last two entries
  r.compact(cut);
  EXPECT_EQ(r.compacted_upto(), cut);
  ASSERT_EQ(r.log().size(), 2u);
  for (const auto& e : r.log()) EXPECT_GE(e.slot, cut);

  // Monotone: compacting backwards is a no-op.
  r.compact(0);
  EXPECT_EQ(r.compacted_upto(), cut);
  ASSERT_EQ(r.log().size(), 2u);

  // Clamped to the applied prefix (here: everything).
  r.compact(1000);
  EXPECT_EQ(r.compacted_upto(), r.applied_slots());
  EXPECT_TRUE(r.log().empty());
}

TEST(LogReplica, InstallSnapshotFastForwardsPastMissedSlots) {
  // The install-on-join flow: a partitioned-away replica misses the whole
  // run (decide messages are one-shot diffusion, never retransmitted), and
  // a snapshot covering the decided prefix fast-forwards it — without
  // running apply callbacks for the covered slots.
  auto c = make_cluster(3, 8, {}, /*quiescent=*/true);
  int p2_applies = 0;
  c.replicas[2]->set_apply(
      [&p2_applies](const LogReplica::Entry&) { ++p2_applies; });
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader

  ProcessSet majority_side(3);
  majority_side.add(0);
  majority_side.add(1);
  c.sys->network().partition(majority_side);  // {p0, p1} vs {p2}

  for (int i = 0; i < 4; ++i) c.replicas[0]->submit(700 + i);
  c.sys->run_until(sec(10));
  // The majority decided every command without p2 (it is suspected, so
  // the Phase 2/4 waits don't block on it); p2 learned none of it.
  const int upto = c.replicas[0]->applied_slots();
  ASSERT_GE(upto, 4);
  ASSERT_EQ(c.replicas[0]->log().size(), 4u);
  ASSERT_EQ(c.replicas[2]->applied_slots(), 0);

  // Shrinking/no-op installs do nothing.
  c.replicas[2]->install_snapshot(0);
  EXPECT_EQ(c.replicas[2]->applied_slots(), 0);

  // The real install: the service hands p2 a state snapshot covering the
  // full decided prefix and fast-forwards the log.
  c.replicas[2]->install_snapshot(upto);
  EXPECT_EQ(c.replicas[2]->applied_slots(), upto);
  EXPECT_EQ(c.replicas[2]->compacted_upto(), upto);
  EXPECT_TRUE(c.replicas[2]->log().empty()) << "covered slots not replayed";
  EXPECT_EQ(p2_applies, 0) << "no apply callbacks for installed slots";
  EXPECT_FALSE(c.replicas[2]->behind()) << "caught up, can propose again";

  // After healing, stray messages for covered slots are ignored, and the
  // log continues past the snapshot on p2 as everywhere else.
  c.sys->network().heal();
  c.sys->run_until(sec(14));
  EXPECT_EQ(p2_applies, 0);
  c.replicas[0]->submit(799);
  c.sys->run_until(sec(20));
  EXPECT_EQ(p2_applies, 1);
  EXPECT_EQ(commands_of(*c.replicas[2]), (std::vector<consensus::Value>{799}));
}

TEST(LogReplica, ReplicaPastTheWindowGivesUpItsGapAndRejoins) {
  // p2 is cut off while the others commit more than a window of slots.
  // After the heal, the next slot's frames are far beyond its window: it
  // frees what it was waiting for and takes part in the live slot (the
  // others need its replies once it is trusted again), but applies
  // nothing until a snapshot covers the gap.
  auto c = make_cluster(3, 10, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader
  ProcessSet majority_side(3);
  majority_side.add(0);
  majority_side.add(1);
  c.sys->network().partition(majority_side);
  LogReplica& p0 = *c.replicas[0];
  LogReplica& p2 = *c.replicas[2];
  const int window = p2.window();
  consensus::Value next = 1;
  for (TimeUs t = msec(400); p0.applied_slots() < 2 * window; t += msec(20)) {
    ASSERT_LT(t, sec(60)) << "the majority must commit without p2";
    while (p0.pending() < 2) p0.submit(next++);
    c.sys->run_until(t);
  }
  while (p0.pending() > 0) c.sys->run_until(c.sys->now() + msec(20));
  ASSERT_EQ(p2.applied_slots(), 0);

  c.sys->network().heal();
  c.sys->run_until(c.sys->now() + sec(5));  // p2 is trusted again
  const int before = p0.applied_slots();
  p0.submit(next++);
  c.sys->run_until(c.sys->now() + sec(2));
  EXPECT_GT(p0.applied_slots(), before) << "the cluster did not stall on p2";
  EXPECT_TRUE(p2.behind());
  EXPECT_EQ(p2.applied_slots(), 0);
  EXPECT_EQ(p2.head_slot(), before) << "p2 took part in the live slot";
  EXPECT_LE(p2.live_instances(), window);

  // A snapshot of the leader's prefix lets p2 apply again.
  p2.install_snapshot(p0.applied_slots());
  EXPECT_FALSE(p2.behind());
  p0.submit(next);
  c.sys->run_until(c.sys->now() + sec(2));
  EXPECT_EQ(p2.applied_slots(), p0.applied_slots());
  EXPECT_EQ(commands_of(p2), (std::vector<consensus::Value>{next}));
}

TEST(LogReplica, SoakCommitsHundredWindowsWithBoundedInstances) {
  // A 3-node quiescent log fed like the kv service feeds it (the leader
  // keeps a few commands pending, pipeline depth 4) commits 100 windows'
  // worth of commands; no replica ever holds more live instances than the
  // window, and every replica applies the same sequence.
  const int n = 3;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(2);
  auto sys = make_system(cfg);
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<LogReplica*> replicas;
  std::vector<std::uint64_t> digest(n, 0);
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, 0, ProcessSet(n), 0, 0));
    oracles.push_back(
        std::make_unique<EcfdFromSAndOmega>(&scripted, &scripted));
    LogReplica::Config lc;
    lc.pipeline_depth = 4;
    lc.quiescent = true;
    replicas.push_back(
        &sys->host(p).emplace<LogReplica>(oracles.back().get(), lc));
    replicas.back()->set_apply([&digest, p](const LogReplica::Entry& e) {
      auto& d = digest[static_cast<std::size_t>(p)];
      d = d * 1099511628211ULL + static_cast<std::uint64_t>(e.command);
    });
  }
  sys->start();

  LogReplica& leader = *replicas[0];
  const int target = 100 * leader.window();
  consensus::Value next = 1;
  int max_live = 0;
  TimeUs t = 0;
  while (leader.applied_slots() < target && t < sec(600)) {
    while (leader.pending() < 8) leader.submit(next++);
    t += msec(5);
    sys->run_until(t);
    for (const auto& r : replicas) {
      max_live = std::max(max_live, r->live_instances());
      r->compact(r->applied_slots());  // keep the soak's own memory flat
    }
  }
  sys->run_until(t + sec(1));
  ASSERT_GE(leader.applied_slots(), target);
  EXPECT_LE(max_live, leader.window());
  for (ProcessId p = 1; p < n; ++p) {
    EXPECT_EQ(replicas[p]->applied_slots(), leader.applied_slots());
    EXPECT_EQ(digest[p], digest[0]) << "replica " << p;
  }
}

TEST(LogReplica, DecisionsKeepTheRecorderInternTableFlat) {
  // Recording stays bounded on a log that runs forever: a decision is a
  // typed kDecide event (round, value) and interns no string of its own,
  // so 10k slots deciding distinct commands leave the recorder's string
  // table the size it had after the first thousand.
  const int n = 3;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 12;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(2);
  auto sys = make_system(cfg);
  obs::Recorder rec(64);
  sys->attach_recorder(&rec);
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<LogReplica*> replicas;
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, 0, ProcessSet(n), 0, 0));
    oracles.push_back(
        std::make_unique<EcfdFromSAndOmega>(&scripted, &scripted));
    replicas.push_back(&sys->host(p).emplace<LogReplica>(oracles.back().get()));
  }
  sys->start();
  consensus::Value next = 1;  // every slot decides a fresh command
  const auto run_to = [&](int slots) {
    TimeUs t = sys->now();
    while (replicas[n - 1]->applied_slots() < slots) {
      while (replicas[0]->pending() < 4) replicas[0]->submit(next++);
      t += msec(5);
      ASSERT_LT(t, sec(3600));
      sys->run_until(t);
    }
  };
  run_to(1'000);
  const std::size_t strings_early = rec.strings().size();
  run_to(10'000);
  EXPECT_GE(replicas[0]->log().size(), 9'000u);
  EXPECT_EQ(rec.strings().size(), strings_early);
}

TEST(LogReplica, ScriptedStableClusterIsFast) {
  // With a detector that is stable from the start, every slot should
  // close in a single round; 8 slots complete within a few hundred ms.
  const int n = 4;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 6;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<LogReplica*> replicas;
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, p, ProcessSet(n), 0, 0));
    oracles.push_back(
        std::make_unique<EcfdFromSAndOmega>(&scripted, &scripted));
    LogReplica::Config lc;
    replicas.push_back(
        &sys->host(p).emplace<LogReplica>(oracles.back().get(), lc));
  }
  sys->start();
  replicas[1]->submit(42);
  sys->run_until(msec(800));
  EXPECT_GE(replicas[0]->applied_slots(), 8);
  ASSERT_EQ(replicas[0]->log().size(), 1u);
  EXPECT_EQ(replicas[0]->log()[0].command, 42);
}

}  // namespace
}  // namespace ecfd::core
