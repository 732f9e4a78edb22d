#pragma once

#include <cstdio>
#include <cstdlib>

#include "net/process_set.hpp"
#include "obs/qos.hpp"
#include "obs/recorder.hpp"

/// \file fd_qos.hpp
/// Chen/Toueg/Aguilera QoS of a finished simulated run, for the benches
/// that compare detector variants (E12, A1): attach an obs::Recorder to the
/// System before start(), run, then score_run() folds every recorded
/// kSuspect / kUnsuspect / kCrash into one obs::QosScoreboard — the same
/// estimator a live ecfd_node serves on /qos. Times are event-exact.

namespace ecfd::bench {

/// The scoreboard of a run that ended at \p end. \p crash_at declares the
/// true crash time of \p victim (none when kNoProcess): a host records its
/// own kCrash on its local clock, which a skewed host sets ahead or behind
/// the observers'. Exits the bench when a state ring overflowed (a table
/// must never report a truncated count) and when the recorder is compiled
/// out (-DECFD_OBS=OFF records nothing).
inline obs::QosScoreboard score_run(const obs::Recorder& rec, int n,
                                    TimeUs end,
                                    ProcessId victim = kNoProcess,
                                    TimeUs crash_at = kTimeNever) {
#if defined(ECFD_OBS_DISABLED)
  (void)rec;
  (void)end;
  (void)victim;
  (void)crash_at;
  std::printf("QoS columns need the typed event recorder; rebuild with "
              "-DECFD_OBS=ON.\n");
  std::exit(0);
#endif
  for (int p = 0; p < n; ++p) {
    if (rec.state_ring(p).dropped() > 0) {
      std::fprintf(stderr, "p%d's state ring overflowed; raise the depth\n",
                   p);
      std::exit(1);
    }
  }
  obs::QosScoreboard sb(n);
  if (victim != kNoProcess) sb.note_crash(victim, crash_at);
  sb.ingest_all(rec.merged());
  sb.finalize(end);
  return sb;
}

/// False-suspicion episodes: suspicion onsets of one correct process by
/// another.
inline int false_suspicions(const obs::QosScoreboard& sb,
                            const ProcessSet& correct) {
  std::int64_t total = 0;
  for (ProcessId o : correct.members()) {
    for (ProcessId p : correct.members()) {
      if (o != p) total += sb.cell(o, p).suspicions;
    }
  }
  return static_cast<int>(total);
}

/// Query accuracy P_A averaged over the (observer, peer) pairs of correct
/// processes: the fraction of the run a query about a correct peer
/// answered "not suspected".
inline double mean_query_accuracy(const obs::QosScoreboard& sb,
                                  const ProcessSet& correct) {
  double sum = 0;
  int pairs = 0;
  for (ProcessId o : correct.members()) {
    for (ProcessId p : correct.members()) {
      if (o == p) continue;
      sum += sb.query_accuracy(o, p);
      ++pairs;
    }
  }
  return pairs > 0 ? sum / pairs : 1.0;
}

}  // namespace ecfd::bench
