// E12 — QoS-adaptive timeouts vs the static widening schedule under the
// WAN/geo scenario pack (DESIGN.md; Chen-Toueg-Aguilera estimation).
//
// The static heartbeat ◇P waits a provisioned constant after the last
// heartbeat and ratchets it +10 ms on every mistake, forever. The
// adaptive source predicts the next arrival from a sliding window and
// pays only a safety margin α on top — so after a transient disturbance
// (a gray window that heals, a link whose jitter spiked) the static
// schedule keeps its inflated timeout while the adaptive one re-converges
// to the observed arrival process. This bench measures that difference:
//
//   detect_ms  — crash → every correct process suspects the victim
//                (slowest observer's T_D, mean over seeds)
//   mistakes   — false-suspicion episodes among correct processes
//   accuracy%  — query accuracy P_A, mean over pairs of correct processes
//
// All three come from the obs::QosScoreboard over the recorded
// suspect/unsuspect/crash events (bench/fd_qos.hpp), so they are exact to
// the event rather than quantized to a sampling period.
//
// Profiles mirror the fuzzer's WAN pack:
//   lan   control: partial synchrony, 5 ms post-GST delta — both variants
//         must be indistinguishable (no regression on the easy case).
//   geo   geo3 preset scaled 3x (one-way paths up to ~320 ms): both
//         variants get the constant a static deployment must provision —
//         400 ms, enough that a starting or rejoining peer across the
//         slowest path is not false-suspected. The static schedule then
//         waits that constant on every crash forever; the predictor uses
//         it only until warm-up and then suspects at mean + α.
//   gray  the victim and one survivor turn gray (5x slow, +15 ms send
//         hold-back) for 4 s, heal, then the victim crashes: the static
//         timeout for both stays ratcheted after the heal; the predictor
//         re-converges in one window.
//   skew  the victim's clock runs 40% fast, so it heartbeats every ~7 ms:
//         the adaptive deadline hugs the real cadence while the static
//         one still waits the full provisioned constant.

#include <algorithm>

#include "fd/heartbeat_p.hpp"
#include "fd_qos.hpp"
#include "net/geo.hpp"
#include "net/scenario.hpp"
#include "table.hpp"

namespace {

using namespace ecfd;

constexpr int kN = 6;
constexpr ProcessId kVictim = 1;
constexpr TimeUs kDisturbAt = sec(2);
constexpr TimeUs kHealAt = sec(6);
constexpr TimeUs kCrashAt = sec(8);
constexpr TimeUs kHorizon = sec(12);

enum class Profile { kLan, kGeo, kGray, kSkew };

const char* profile_name(Profile p) {
  switch (p) {
    case Profile::kLan: return "lan";
    case Profile::kGeo: return "geo";
    case Profile::kGray: return "gray";
    case Profile::kSkew: return "skew";
  }
  return "?";
}

ScenarioConfig scenario(Profile prof, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = kN;
  cfg.seed = seed;
  if (prof == Profile::kGeo) {
    cfg.links = LinkKind::kGeo;
    cfg.geo = geo_preset("geo3")->scaled(3, 1);
  } else {
    cfg.links = LinkKind::kPartialSync;
    cfg.gst = 0;
    cfg.delta = msec(5);
  }
  return cfg;
}

struct Outcome {
  double detect_ms{0};   ///< crash -> all correct suspect the victim
  double mistakes{0};    ///< false-suspicion episodes (correct pairs only)
  double accuracy{0};    ///< query accuracy, percent
};

Outcome run(Profile prof, bool adaptive, std::uint64_t seed) {
  auto sys = make_system(scenario(prof, seed));
  obs::Recorder rec(obs::Recorder::kStateDepth);
  sys->attach_recorder(&rec);

  switch (prof) {
    case Profile::kGray: {
      // Victim + one survivor turn gray, then heal before the crash; the
      // survivor keeps the mistake stream observable post-crash.
      for (ProcessId g : {kVictim, ProcessId{2}}) {
        ProcessHost* h = &sys->host(g);
        sys->scheduler().schedule_at(kDisturbAt,
                                     [h] { h->set_gray(5000, msec(15)); });
        sys->scheduler().schedule_at(kHealAt, [h] { h->set_gray(1000, 0); });
      }
      break;
    }
    case Profile::kSkew: {
      ProcessHost* h = &sys->host(kVictim);
      sys->scheduler().schedule_at(
          kDisturbAt, [h] { h->set_clock_skew(0, 400'000, 0); });
      break;
    }
    default:
      break;
  }

  for (ProcessId p = 0; p < kN; ++p) {
    fd::HeartbeatP::Config hc;
    // On the WAN both variants get the same conservatively provisioned
    // constant (worst one-way path + jitter); the adaptive source only
    // falls back to it before warm-up.
    if (prof == Profile::kGeo) hc.initial_timeout = msec(400);
    if (adaptive) {
      hc.adaptive = true;
      hc.predictor.fallback_timeout = hc.initial_timeout;
    }
    sys->host(p).emplace<fd::HeartbeatP>(hc);
  }
  sys->crash_at(kVictim, kCrashAt);
  sys->start();
  sys->run_until(kHorizon);

  const obs::QosScoreboard sb = bench::score_run(rec, kN, kHorizon);
  ProcessSet correct = ProcessSet::full(kN);
  correct.remove(kVictim);
  // Every correct process suspects the victim once the slowest one does;
  // a survivor that never detects it is charged the rest of the run.
  double all_suspect_us = 0;
  for (ProcessId o : correct.members()) {
    const obs::QosCell& c = sb.cell(o, kVictim);
    const double td = c.detections > 0
                          ? c.mean_detection_us()
                          : static_cast<double>(kHorizon - kCrashAt);
    all_suspect_us = std::max(all_suspect_us, td);
  }
  Outcome o;
  o.detect_ms = all_suspect_us / 1000.0;
  o.mistakes = bench::false_suspicions(sb, correct);
  o.accuracy = 100.0 * bench::mean_query_accuracy(sb, correct);
  return o;
}

Outcome mean_over_seeds(Profile prof, bool adaptive) {
  constexpr int kSeeds = 5;
  Outcome acc;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    const Outcome o = run(prof, adaptive, 21 + s);
    acc.detect_ms += o.detect_ms;
    acc.mistakes += o.mistakes;
    acc.accuracy += o.accuracy;
  }
  acc.detect_ms /= kSeeds;
  acc.mistakes /= kSeeds;
  acc.accuracy /= kSeeds;
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  ecfd::bench::init(argc, argv, "e12_wan_adaptivity");
  ecfd::bench::section(
      "E12: adaptive vs static heartbeat timeouts under the WAN pack");
  std::cout << "n=" << kN << ", heartbeat period 10ms, provisioned timeout "
            << "30ms lan / 400ms geo (+10ms per mistake);\nadaptive = "
            << "Chen-style windowed predictor + margin, same constant as "
            << "fallback. Crash at 8s,\nhorizon 12s, 5 seeds.\n";

  ecfd::bench::Table table(
      {"profile", "variant", "detect_ms", "mistakes", "accuracy%"}, 12);
  table.print_header();
  for (Profile prof :
       {Profile::kLan, Profile::kGeo, Profile::kGray, Profile::kSkew}) {
    for (bool adaptive : {false, true}) {
      const Outcome o = mean_over_seeds(prof, adaptive);
      table.print_row(profile_name(prof), adaptive ? "adaptive" : "static",
                      o.detect_ms, o.mistakes, o.accuracy);
    }
  }

  std::cout << "\nShape check: on lan the two variants are "
               "indistinguishable (the provisioned constant happens to fit "
               "a quiet LAN). In every WAN profile the adaptive source must "
               "strictly win on detection time or mistakes: geo's "
               "provisioned-for-the-worst-path constant is paid by static "
               "on every detection while the predictor sheds it at "
               "warm-up, gray's heal "
               "leaves the static timeout inflated while the predictor "
               "re-converges, and skew's fast victim cadence is tracked by "
               "the predictor but not by the constant.\n";
  return ecfd::bench::finish();
}
