// The failure-detector properties of the paper's Fig. 1 classes and of
// Definition 1 (completeness, accuracy, Omega's leader agreement, the
// coupling clause), checked by check::FdPropertyMonitor on hand-built
// snapshot streams: suffix-not-always stabilization, weak vs strong
// completeness, vacuous completeness, leader-only detectors and a faulty
// common leader. No simulator involved.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fd_monitor.hpp"
#include "check/verdict.hpp"

namespace ecfd::check {
namespace {

FdPropertyMonitor::Snapshot snap(int n, TimeUs t) {
  FdPropertyMonitor::Snapshot s;
  s.time = t;
  s.crashed = ProcessSet(n);
  s.suspected.assign(static_cast<std::size_t>(n), ProcessSet(n));
  s.trusted.assign(static_cast<std::size_t>(n), 0);
  return s;
}

FdPropertyMonitor::Config fd_config(int n) {
  FdPropertyMonitor::Config cfg;
  cfg.n = n;
  cfg.correct = ProcessSet::full(n);
  return cfg;
}

Verdict find(const std::vector<Verdict>& all, const std::string& name) {
  for (const Verdict& v : all) {
    if (v.property == name) return v;
  }
  ADD_FAILURE() << "no verdict named " << name;
  return {};
}

TEST(FdMonitor, CouplingFailsWhileOmegaHolds) {
  // Everyone trusts p0, and p1..p3 also suspect it: ◇S and Omega hold but
  // Definition 1's coupling clause does not.
  const int n = 4;
  FdPropertyMonitor mon(fd_config(n));
  for (int i = 0; i < 5; ++i) {
    auto s = snap(n, msec(100 * (i + 1)));
    for (int q = 1; q < n; ++q) s.suspected[static_cast<std::size_t>(q)]->add(0);
    mon.observe(s);
  }
  const auto all = mon.verdicts();
  EXPECT_EQ(find(all, "fd.leader_agreement").state, VerdictState::kHolding);
  EXPECT_EQ(find(all, "fd.eventual_weak_accuracy").state,
            VerdictState::kHolding);
  EXPECT_EQ(find(all, "fd.coupling").state, VerdictState::kPending);
  EXPECT_EQ(mon.common_leader(), 0);
}

TEST(FdMonitor, StrongAccuracyFailsWhileWeakAccuracyHolds) {
  // p1 is correct but permanently suspected; p0 (for instance) never is.
  const int n = 4;
  FdPropertyMonitor mon(fd_config(n));
  for (int i = 0; i < 5; ++i) {
    auto s = snap(n, msec(100 * (i + 1)));
    for (int q = 0; q < n; ++q) s.suspected[static_cast<std::size_t>(q)]->add(1);
    mon.observe(s);
  }
  const auto all = mon.verdicts();
  EXPECT_EQ(find(all, "fd.eventual_strong_accuracy").state,
            VerdictState::kPending);
  const Verdict ewa = find(all, "fd.eventual_weak_accuracy");
  EXPECT_EQ(ewa.state, VerdictState::kHolding);
  EXPECT_EQ(ewa.witness.find("p1"), std::string::npos);
}

TEST(FdMonitor, WeakCompletenessAllowsDifferentWitnesses) {
  // p2 and p3 crashed; p0 suspects only p2, p1 only p3: weakly but not
  // strongly complete.
  const int n = 4;
  FdPropertyMonitor::Config cfg = fd_config(n);
  cfg.correct.remove(2);
  cfg.correct.remove(3);
  FdPropertyMonitor mon(cfg);
  auto s = snap(n, msec(100));
  s.crashed.add(2);
  s.crashed.add(3);
  s.suspected[2].reset();
  s.suspected[3].reset();
  mon.observe(s);  // nobody suspects yet
  Verdict wc = mon.weak_completeness();
  EXPECT_EQ(wc.state, VerdictState::kPending);
  EXPECT_NE(wc.witness.find("p2"), std::string::npos);

  s.suspected[0]->add(2);
  s.suspected[1]->add(3);
  for (int i = 2; i <= 5; ++i) {
    s.time = msec(100 * i);
    mon.observe(s);
  }
  wc = mon.weak_completeness();
  EXPECT_EQ(wc.state, VerdictState::kHolding);
  EXPECT_EQ(wc.holds_since, msec(200));
  EXPECT_EQ(find(mon.verdicts(), "fd.strong_completeness").state,
            VerdictState::kPending);
  // Not part of the digested verdict list.
  for (const Verdict& v : mon.verdicts()) {
    EXPECT_NE(v.property, "fd.weak_completeness");
  }

  // A witness that stops suspecting breaks its victim's suffix.
  s.time = msec(600);
  s.suspected[0]->remove(2);
  mon.observe(s);
  EXPECT_EQ(mon.weak_completeness().state, VerdictState::kPending);
}

TEST(FdMonitor, CompletenessIsVacuousWithoutCrashes) {
  const int n = 3;
  FdPropertyMonitor mon(fd_config(n));
  mon.observe(snap(n, msec(10)));
  mon.observe(snap(n, msec(20)));
  const Verdict sc = find(mon.verdicts(), "fd.strong_completeness");
  EXPECT_EQ(sc.state, VerdictState::kHolding);
  EXPECT_EQ(sc.holds_since, 0);
  const Verdict wc = mon.weak_completeness();
  EXPECT_EQ(wc.state, VerdictState::kHolding);
  EXPECT_EQ(wc.holds_since, 0);
}

TEST(FdMonitor, EventualMeansSuffixNotAlways) {
  // Chaos for three samples (everyone suspects all but p0 and trusts
  // itself), then a perfect, agreed output from t=400 on.
  const int n = 4;
  FdPropertyMonitor::Config cfg = fd_config(n);
  cfg.correct.remove(3);
  FdPropertyMonitor mon(cfg);
  ProcessSet good(n);
  good.add(3);
  ProcessSet chaotic = ProcessSet::full(n);
  chaotic.remove(0);
  for (int i = 0; i < 7; ++i) {
    auto s = snap(n, msec(100 * (i + 1)));
    s.crashed.add(3);
    s.suspected[3].reset();
    s.trusted[3].reset();
    for (int q = 0; q < 3; ++q) {
      s.suspected[static_cast<std::size_t>(q)] = i < 3 ? chaotic : good;
      s.trusted[static_cast<std::size_t>(q)] = i < 3 ? q : 1;
    }
    mon.observe(s);
  }
  const auto all = mon.verdicts();
  // The chaotic sets already contained the crashed p3.
  EXPECT_EQ(find(all, "fd.strong_completeness").holds_since, 0);
  for (const char* name :
       {"fd.eventual_strong_accuracy", "fd.leader_agreement", "fd.coupling"}) {
    const Verdict v = find(all, name);
    EXPECT_EQ(v.state, VerdictState::kHolding) << name;
    EXPECT_EQ(v.holds_since, msec(400)) << name;
    EXPECT_GT(v.violations, 0) << name;
  }
  EXPECT_EQ(mon.common_leader(), 1);
}

TEST(FdMonitor, LeaderOnlyDetectorEvaluatesOmegaOnly) {
  const int n = 4;
  FdPropertyMonitor::Config cfg = fd_config(n);
  cfg.check_suspect = false;
  FdPropertyMonitor mon(cfg);
  for (int i = 0; i < 4; ++i) {
    auto s = snap(n, msec(100 * (i + 1)));
    for (int q = 0; q < n; ++q) {
      s.suspected[static_cast<std::size_t>(q)].reset();
      s.trusted[static_cast<std::size_t>(q)] = 2;
    }
    mon.observe(s);
  }
  const auto all = mon.verdicts();
  EXPECT_EQ(find(all, "fd.leader_agreement").state, VerdictState::kHolding);
  EXPECT_EQ(mon.common_leader(), 2);
  for (const Verdict& v : all) {
    EXPECT_EQ(v.property.rfind("fd.leader_", 0), 0u)
        << v.property << " evaluated without a suspect output";
  }
}

TEST(FdMonitor, LeaderAgreementFailsOnDisagreementOrFaultyLeader) {
  const int n = 4;
  {
    // p0/p2 trust p0, p1/p3 trust p1, forever.
    FdPropertyMonitor mon(fd_config(n));
    for (int i = 0; i < 5; ++i) {
      auto s = snap(n, msec(100 * (i + 1)));
      for (int q = 0; q < n; ++q) s.trusted[static_cast<std::size_t>(q)] = q % 2;
      mon.observe(s);
    }
    EXPECT_EQ(find(mon.verdicts(), "fd.leader_agreement").state,
              VerdictState::kPending);
    EXPECT_EQ(mon.common_leader(), kNoProcess);
  }
  {
    // Every correct process agrees on the crashed p3: not Omega.
    FdPropertyMonitor::Config cfg = fd_config(n);
    cfg.correct.remove(3);
    FdPropertyMonitor mon(cfg);
    for (int i = 0; i < 5; ++i) {
      auto s = snap(n, msec(100 * (i + 1)));
      s.crashed.add(3);
      s.suspected[3].reset();
      s.trusted[3].reset();
      for (int q = 0; q < 3; ++q) {
        s.suspected[static_cast<std::size_t>(q)]->add(3);
        s.trusted[static_cast<std::size_t>(q)] = 3;
      }
      mon.observe(s);
    }
    const Verdict v = find(mon.verdicts(), "fd.leader_agreement");
    EXPECT_EQ(v.state, VerdictState::kPending);
    EXPECT_NE(v.witness.find("faulty"), std::string::npos);
  }
}

}  // namespace
}  // namespace ecfd::check
