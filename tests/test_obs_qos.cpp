// Tests for the online per-peer QoS scoreboard (obs/qos.hpp): exact
// estimator arithmetic on synthetic event streams, metrics-registry
// integration, and the ground-truth validation that matters — the T_D the
// scoreboard computes from recorded kCrash/kSuspect transitions must agree
// with the detection intervals the fuzzer's property monitor witnessed
// (within the monitor's sampling quantization), across fuzz seeds. The
// recorder must also stay digest-invisible: attaching one to a fuzz case
// must not change the pinned outcome digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/sim_monitor.hpp"
#include "consensus/fd_stacks.hpp"
#include "net/system.hpp"
#include "obs/metrics.hpp"
#include "obs/qos.hpp"
#include "obs/recorder.hpp"
#include "runner/thread_pool.hpp"

namespace ecfd::check {
namespace {

obs::Event ev(TimeUs t, int host, obs::EventType type, int a = -1) {
  obs::Event e;
  e.time = t;
  e.host = host;
  e.type = type;
  e.a = a;
  return e;
}

// --- estimator arithmetic ---------------------------------------------

TEST(QosScoreboard, MistakeDurationAndRecurrenceAreExact) {
  obs::QosScoreboard sb(3);
  sb.ingest(ev(100, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(400, 0, obs::EventType::kUnsuspect, 1));
  sb.ingest(ev(1000, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(1200, 0, obs::EventType::kUnsuspect, 1));
  sb.finalize(2000);

  const obs::QosCell& c = sb.cell(0, 1);
  EXPECT_EQ(c.suspicions, 2);
  EXPECT_EQ(c.mistakes, 2);
  EXPECT_EQ(c.mistake_dur_sum_us, 300 + 200);
  EXPECT_DOUBLE_EQ(c.mean_mistake_us(), 250.0);
  EXPECT_EQ(c.recurrences, 1);
  EXPECT_DOUBLE_EQ(c.mean_recurrence_us(), 900.0);  // start-to-start
  EXPECT_EQ(c.detections, 0);
  EXPECT_DOUBLE_EQ(c.mean_detection_us(), -1.0);  // no samples

  // P_A: 500us of false suspicion over the [100, 2000] window.
  const double pa = sb.query_accuracy(0, 1);
  EXPECT_NEAR(pa, 1.0 - 500.0 / 1900.0, 1e-12);
  EXPECT_DOUBLE_EQ(sb.query_accuracy(2, 1), 1.0);  // untouched pair
}

TEST(QosScoreboard, DetectionAfterCrashIsNotAMistake) {
  obs::QosScoreboard sb(3);
  sb.ingest(ev(1000, 2, obs::EventType::kCrash));
  sb.ingest(ev(1500, 0, obs::EventType::kSuspect, 2));
  sb.ingest(ev(1600, 1, obs::EventType::kSuspect, 2));
  sb.finalize(5000);

  EXPECT_EQ(sb.crash_time(2), 1000);
  EXPECT_EQ(sb.cell(0, 2).detections, 1);
  EXPECT_DOUBLE_EQ(sb.cell(0, 2).mean_detection_us(), 500.0);
  EXPECT_DOUBLE_EQ(sb.cell(1, 2).mean_detection_us(), 600.0);
  EXPECT_EQ(sb.cell(0, 2).mistakes, 0);
  EXPECT_EQ(sb.cell(0, 2).mistake_time_us, 0);
  // Suspecting the dead never costs accuracy.
  EXPECT_DOUBLE_EQ(sb.query_accuracy(0, 2), 1.0);
}

TEST(QosScoreboard, PrematureSuspicionSplitsAtTheCrash) {
  // Suspicion opens while the peer is alive, the peer then dies, the
  // suspicion is retracted later: only the pre-crash part is a mistake,
  // and the pair still counts as a (zero-latency) detection.
  obs::QosScoreboard sb(2);
  sb.ingest(ev(900, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(1000, 1, obs::EventType::kCrash));
  sb.ingest(ev(1500, 0, obs::EventType::kUnsuspect, 1));
  sb.finalize(2000);

  const obs::QosCell& c = sb.cell(0, 1);
  EXPECT_EQ(c.mistakes, 1);
  EXPECT_EQ(c.mistake_dur_sum_us, 100);  // 900 -> crash at 1000
  EXPECT_EQ(c.detections, 1);
  EXPECT_EQ(c.detection_sum_us, 0);  // already suspected when it died
}

TEST(QosScoreboard, FinalizeChargesOpenEpisodesWithoutClosingThem) {
  obs::QosScoreboard sb(2);
  sb.ingest(ev(100, 0, obs::EventType::kSuspect, 1));
  sb.finalize(600);
  const obs::QosCell& c = sb.cell(0, 1);
  EXPECT_EQ(c.mistakes, 0);  // never retracted: not a closed episode
  EXPECT_EQ(c.mistake_time_us, 500);  // but P_A pays for it
  EXPECT_DOUBLE_EQ(sb.query_accuracy(0, 1), 0.0);
}

TEST(QosScoreboard, DuplicateSuspectTransitionsKeepTheFirstOnset) {
  obs::QosScoreboard sb(2);
  sb.ingest(ev(100, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(200, 0, obs::EventType::kSuspect, 1));  // duplicate
  sb.ingest(ev(300, 0, obs::EventType::kUnsuspect, 1));
  sb.finalize(1000);
  EXPECT_EQ(sb.cell(0, 1).suspicions, 1);
  EXPECT_EQ(sb.cell(0, 1).mistake_dur_sum_us, 200);
}

// --- metrics integration ----------------------------------------------

TEST(QosScoreboard, BindsCountersHistogramsAndGauges) {
  obs::MetricsRegistry reg;
  obs::QosScoreboard sb(3);
  sb.bind_metrics(&reg);
  sb.ingest(ev(100, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(400, 0, obs::EventType::kUnsuspect, 1));
  sb.ingest(ev(1000, 2, obs::EventType::kCrash));
  sb.ingest(ev(1700, 0, obs::EventType::kSuspect, 2));

  EXPECT_EQ(reg.get("qos.suspicions"), 2);
  EXPECT_EQ(reg.get("qos.mistakes"), 1);
  EXPECT_EQ(reg.get("qos.detections"), 1);
  EXPECT_EQ(reg.histogram("qos.mistake_duration_us")->count(), 1);
  EXPECT_EQ(reg.histogram("qos.mistake_duration_us")->sum(), 300);
  EXPECT_EQ(reg.histogram("qos.detection_us")->sum(), 700);

  sb.export_gauges(/*self=*/0, /*now=*/2000);
  EXPECT_EQ(reg.gauge_value("qos.suspected.p2"), 1);
  EXPECT_EQ(reg.gauge_value("qos.suspected.p1"), 0);
  // 300us of mistakes against p1 over the [100, 2000] window.
  const std::int64_t pa_ppm = reg.gauge_value("qos.pa_ppm.p1");
  EXPECT_GT(pa_ppm, 800'000);
  EXPECT_LT(pa_ppm, 1'000'000);
}

TEST(QosScoreboard, WriteTableIsDeterministicAndSkipsIdlePairs) {
  obs::QosScoreboard sb(4);
  sb.ingest(ev(100, 0, obs::EventType::kSuspect, 1));
  sb.ingest(ev(300, 0, obs::EventType::kUnsuspect, 1));
  sb.finalize(1000);
  std::ostringstream a;
  std::ostringstream b;
  sb.write_table(a);
  sb.write_table(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("p0"), std::string::npos);
  // Only the (0,1) pair had activity: header + one row.
  int lines = 0;
  for (const char ch : a.str()) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2);
}

// --- ground truth: the fuzzer's monitor witnesses ----------------------
//
// For every crash the monitor saw, compare the scoreboard's event-exact
// detection time (recorded kSuspect minus recorded kCrash) against the
// monitor's sampled interval (first suspecting snapshot minus first
// crashed snapshot). Both ends of the monitor interval are quantized up
// by at most one monitor period, so the two must agree within 10% plus
// two periods of slack.

struct TdCheck {
  int compared{0};
  int outside{0};
  int violations{0};
  std::string detail;
};

TdCheck check_seed(FuzzProfile profile, std::uint64_t seed) {
  FuzzCaseConfig cfg;
  cfg.profile = profile;
  cfg.seed = seed;
  const FaultSchedule schedule = generate_schedule(cfg);
  obs::Recorder rec(4096);
  const FuzzOutcome out = run_fuzz_case(cfg, schedule, &rec);

  obs::QosScoreboard sb(cfg.n);
  sb.ingest_all(rec.merged());
  sb.finalize(out.sim_end);

  TdCheck r;
  r.violations = static_cast<int>(out.violations.size());
  const double slack =
      2.0 * static_cast<double>(cfg.monitor_period) + 1000.0;
  for (const auto& w : out.detections) {
    for (int q = 0; q < cfg.n; ++q) {
      const TimeUs first = w.first_suspect[static_cast<std::size_t>(q)];
      if (first == kTimeNever) continue;
      const double witness_td = static_cast<double>(first - w.crashed_seen);
      const obs::QosCell& c = sb.cell(q, w.victim);
      if (c.detections == 0) {
        ++r.outside;
        r.detail += profile_name(profile) + std::string(" seed ") +
                    std::to_string(seed) + ": p" + std::to_string(q) +
                    " never detected p" + std::to_string(w.victim) +
                    " on the scoreboard\n";
        continue;
      }
      const double sb_td = c.mean_detection_us();
      ++r.compared;
      const double tol = 0.1 * std::max(witness_td, sb_td) + slack;
      if (sb_td > witness_td + tol || sb_td < witness_td - tol) {
        ++r.outside;
        r.detail += profile_name(profile) + std::string(" seed ") +
                    std::to_string(seed) + ": p" + std::to_string(q) +
                    " detects p" + std::to_string(w.victim) +
                    " scoreboard=" + std::to_string(sb_td) +
                    "us witness=" + std::to_string(witness_td) + "us\n";
      }
    }
  }
  return r;
}

void run_campaign(int seeds) {
#if defined(ECFD_OBS_DISABLED)
  (void)seeds;
  GTEST_SKIP() << "ground truth needs recorded transitions (ECFD_OBS=ON)";
#else
  const FuzzProfile profiles[] = {FuzzProfile::kCrash, FuzzProfile::kChurn};
  std::vector<TdCheck> results(
      static_cast<std::size_t>(seeds) * std::size(profiles));
  runner::parallel_for(results.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         const FuzzProfile prof =
                             profiles[i / static_cast<std::size_t>(seeds)];
                         const std::uint64_t seed =
                             1 + i % static_cast<std::size_t>(seeds);
                         results[i] = check_seed(prof, seed);
                       });
  int compared = 0;
  for (const TdCheck& r : results) {
    compared += r.compared;
    EXPECT_EQ(r.violations, 0);
    if (r.outside > 0) ADD_FAILURE() << r.detail;
  }
  // The crash profiles guarantee real detections to compare against.
  EXPECT_GT(compared, seeds);
#endif
}

TEST(QosFuzz, DetectionTimesMatchMonitorWitnesses) { run_campaign(6); }

// The 100-seed acceptance campaign (ctest entry test_obs_qos_campaign,
// labels fuzz;slow): 50 crash + 50 churn seeds.
TEST(QosFuzz, CampaignDetectionTimesMatchMonitorWitnesses) {
  run_campaign(50);
}

// --- a skewed host's crash ---------------------------------------------
//
// Events are stamped on the fabric clock, so a host whose local clock runs
// ahead still records its own kCrash at the true crash time, and the
// scoreboard needs no note_crash() to date it.

TEST(QosSkew, SkewedHostRecordsItsCrashOnTheFabricClock) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "needs recorded transitions (ECFD_OBS=ON)";
#else
  constexpr int kN = 3;
  constexpr ProcessId kVictim = 2;
  const TimeUs crash_at = msec(1000);
  const TimeUs end = msec(2000);
  const DurUs monitor_period = msec(1);

  System sys(kN, 11);
  obs::Recorder rec(1 << 14);
  sys.attach_recorder(&rec);
  SimMonitor monitor(SimMonitor::Config{monitor_period});
  ProcessSet correct = ProcessSet::full(kN);
  correct.remove(kVictim);
  monitor.install(sys, correct, end);
  std::vector<consensus::FdInstallation> stacks;
  for (ProcessId p = 0; p < kN; ++p) {
    stacks.push_back(consensus::install_fd_stack(
        consensus::FdStack::kHeartbeatP, sys.host(p)));
    monitor.attach_fd(p, stacks.back().suspect, stacks.back().leader);
  }
  // The victim's clock runs 200 ms ahead, well past its detection time.
  sys.host(kVictim).set_clock_skew(msec(200), 0, msec(200));
  monitor.start();
  sys.crash_at(kVictim, crash_at);
  sys.start();
  sys.run_until(end);

  ASSERT_EQ(sys.host(kVictim).crash_time(), crash_at);
  int crashes = 0;
  for (const obs::Event& e : rec.merged()) {
    if (e.type != obs::EventType::kCrash) continue;
    ++crashes;
    EXPECT_EQ(e.host, kVictim);
    EXPECT_EQ(e.time, sys.host(kVictim).crash_time());
  }
  EXPECT_EQ(crashes, 1);

  obs::QosScoreboard sb(kN);
  sb.ingest_all(rec.merged());
  sb.finalize(end);
  EXPECT_EQ(sb.crash_time(kVictim), crash_at);
  ASSERT_EQ(monitor.fd()->detections().size(), 1u);
  const auto& w = monitor.fd()->detections().front();
  for (ProcessId q : correct.members()) {
    const TimeUs first = w.first_suspect[static_cast<std::size_t>(q)];
    ASSERT_NE(first, kTimeNever) << "p" << q;
    const obs::QosCell& c = sb.cell(q, kVictim);
    ASSERT_EQ(c.detections, 1) << "p" << q;
    EXPECT_EQ(c.mistakes, 0) << "p" << q;
    // The monitor's interval is quantized up by at most one period at
    // each end.
    EXPECT_NEAR(c.mean_detection_us(),
                static_cast<double>(first - w.crashed_seen),
                static_cast<double>(monitor_period))
        << "p" << q;
  }
#endif
}

// --- digest invisibility ----------------------------------------------

TEST(QosFuzz, RecorderAttachmentDoesNotChangeTheDigest) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    FuzzCaseConfig cfg;
    cfg.profile = FuzzProfile::kChurn;
    cfg.seed = seed;
    const FaultSchedule schedule = generate_schedule(cfg);
    const FuzzOutcome bare = run_fuzz_case(cfg, schedule);
    obs::Recorder rec(4096);
    const FuzzOutcome traced = run_fuzz_case(cfg, schedule, &rec);
    EXPECT_EQ(bare.digest, traced.digest) << "seed " << seed;
    EXPECT_GT(rec.merged().size(), 0u) << "recorder saw nothing";
  }
}

}  // namespace
}  // namespace ecfd::check
