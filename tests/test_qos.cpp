// Failure-detector QoS (Chen-Toueg-Aguilera detection time, mistake
// duration, query accuracy) as the online obs::QosScoreboard computes it:
// an undetected crash on a synthetic stream, and a live heartbeat ◇P run
// fed through System::attach_recorder.
#include <gtest/gtest.h>

#include "fd/heartbeat_p.hpp"
#include "net/scenario.hpp"
#include "obs/qos.hpp"
#include "obs/recorder.hpp"

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

TEST(QosScoreboard, UndetectedCrashHasNoDelay) {
  obs::QosScoreboard sb(3);
  sb.note_crash(2, 50);
  sb.ingest(ev(100, 0, obs::EventType::kDeliver, 1));  // ignored kind
  sb.finalize(300);
  for (int o = 0; o < 2; ++o) {
    EXPECT_EQ(sb.cell(o, 2).detections, 0);
    EXPECT_DOUBLE_EQ(sb.cell(o, 2).mean_detection_us(), -1.0);
  }
}

// --- a live simulated run ---------------------------------------------

TEST(QosScoreboard, LiveHeartbeatRunHasCleanMetricsAfterGst) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "the scoreboard reads recorded transitions (ECFD_OBS=ON)";
#endif
  // Heartbeat ◇P, one crash, synchrony from the start: no false suspicion
  // at all, and every survivor detects the crash within a few periods.
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 5;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  obs::Recorder rec(1024);
  sys->attach_recorder(&rec);
  for (ProcessId p = 0; p < 4; ++p) sys->host(p).emplace<fd::HeartbeatP>();
  sys->crash_at(2, sec(1));
  sys->start();
  sys->run_until(sec(3));

  obs::QosScoreboard sb(4);
  sb.ingest_all(rec.merged());
  sb.finalize(sec(3));
  EXPECT_EQ(sb.crash_time(2), sec(1));
  for (int o = 0; o < 4; ++o) {
    if (o == 2) continue;
    for (int p = 0; p < 4; ++p) {
      if (p == o || p == 2) continue;
      EXPECT_EQ(sb.cell(o, p).suspicions, 0) << "p" << o << " -> p" << p;
      EXPECT_DOUBLE_EQ(sb.query_accuracy(o, p), 1.0);
    }
    const obs::QosCell& c = sb.cell(o, 2);
    ASSERT_EQ(c.detections, 1) << "p" << o;
    EXPECT_LT(c.mean_detection_us(), static_cast<double>(msec(100)));
  }
}

}  // namespace
}  // namespace ecfd::check
