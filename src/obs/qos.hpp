#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

/// \file qos.hpp
/// Online per-peer failure-detector QoS estimators (Chen, Toueg, Aguilera,
/// "On the quality of service of failure detectors"), computed incrementally
/// from the typed event stream the obs layer already records:
///
///   T_D   detection time       — crash -> the observer's first suspicion
///   T_M   mistake duration     — false suspicion -> its retraction
///   T_MR  mistake recurrence   — start of one mistake -> start of the next
///   P_A   query accuracy       — probability a random query about a
///                                correct peer answers "not suspected"
///
/// It folds kSuspect / kUnsuspect / kCrash state-ring transitions as they
/// happen, so a live ecfd_node can serve the numbers from its metrics
/// endpoint, ecfd_trace --qos can replay any merged timeline into the same
/// scoreboard, and the E12/A1 benches score simulated runs with it. Crash times come
/// from kCrash events when the backend records them (the simulator does) or
/// from note_crash() when the caller knows ground truth (the fuzzer's fault
/// schedule); without either, detection columns stay empty and the mistake
/// metrics remain exact — an unretracted suspicion is never presumed false.
///
/// Ingest is allocation-free after construction and must see each
/// observer's events in nondecreasing time order (rings and merged
/// timelines both guarantee that).

namespace ecfd::obs {

/// Aggregated estimator state for one (observer, peer) pair.
struct QosCell {
  // Suspicion bookkeeping.
  std::int64_t suspicions{0};      ///< kSuspect transitions seen
  bool suspected{false};           ///< suspicion currently open
  TimeUs suspect_since{0};         ///< valid while suspected

  // T_D: crash -> first suspicion at this observer.
  std::int64_t detections{0};
  std::int64_t detection_sum_us{0};

  // T_M / T_MR: closed false-suspicion episodes.
  std::int64_t mistakes{0};
  std::int64_t mistake_dur_sum_us{0};
  std::int64_t recurrences{0};
  std::int64_t recurrence_sum_us{0};
  TimeUs last_mistake_start{0};
  bool have_mistake_start{false};

  // P_A: time-integrated false-suspicion exposure over the observed
  // window (mistake intervals still open at finalize are included).
  std::int64_t mistake_time_us{0};

  [[nodiscard]] double mean_detection_us() const {
    return detections > 0
               ? static_cast<double>(detection_sum_us) / detections
               : -1.0;
  }
  [[nodiscard]] double mean_mistake_us() const {
    return mistakes > 0 ? static_cast<double>(mistake_dur_sum_us) / mistakes
                        : -1.0;
  }
  [[nodiscard]] double mean_recurrence_us() const {
    return recurrences > 0
               ? static_cast<double>(recurrence_sum_us) / recurrences
               : -1.0;
  }
};

class QosScoreboard {
 public:
  explicit QosScoreboard(int n);

  [[nodiscard]] int n() const { return n_; }

  /// Declares ground-truth crash time for \p victim (idempotent: the
  /// earliest declaration wins). kCrash events do this automatically.
  void note_crash(std::int32_t victim, TimeUs at);

  /// Folds one event. Only kSuspect / kUnsuspect (observer = e.host,
  /// peer = e.a) and kCrash (victim = e.host) change state; everything
  /// else is ignored, so a whole merged timeline can be streamed through.
  /// Events must arrive in nondecreasing time order per observer.
  void ingest(const Event& e);

  /// Streams a batch (e.g. Recorder::merged() or a ring snapshot).
  void ingest_all(const std::vector<Event>& events) {
    for (const Event& e : events) ingest(e);
  }

  /// Closes the observation window at \p end: open false suspicions are
  /// charged to mistake time (but not counted as closed mistakes) and the
  /// P_A denominators are fixed. Call once, after the last ingest.
  void finalize(TimeUs end);

  /// The (observer, peer) cell; observer/peer in [0, n).
  [[nodiscard]] const QosCell& cell(int observer, int peer) const {
    return cells_[static_cast<std::size_t>(observer) *
                      static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(peer)];
  }

  /// Ground-truth crash time of \p p (kTimeNever when not known crashed).
  [[nodiscard]] TimeUs crash_time(int p) const {
    return crashed_at_[static_cast<std::size_t>(p)];
  }

  /// First ingest time seen (window start for P_A); kTimeNever if none.
  [[nodiscard]] TimeUs window_start() const { return window_start_; }
  [[nodiscard]] TimeUs window_end() const { return window_end_; }

  /// P_A for (observer, peer): 1 - mistake_time / correct-window length.
  /// Returns 1.0 for an empty window; the peer's post-crash time is
  /// excluded from the denominator (suspecting the dead is not a mistake).
  [[nodiscard]] double query_accuracy(int observer, int peer) const;

  /// Registers the live aggregate estimators on \p m:
  ///   histograms qos.detection_us, qos.mistake_duration_us,
  ///              qos.mistake_recurrence_us (one observation per episode)
  ///   counters   qos.suspicions, qos.mistakes, qos.detections
  /// Call before ingest; pass nullptr to detach.
  void bind_metrics(MetricsRegistry* m);

  /// Publishes per-peer gauges for observer \p self on the bound registry:
  ///   qos.pa_ppm.p<peer>      query accuracy, parts-per-million
  ///   qos.suspected.p<peer>   1 while a suspicion of <peer> is open
  /// Cheap enough for a report-period timer; uses \p now as the P_A
  /// window end without finalizing.
  void export_gauges(int self, TimeUs now);

  /// Renders the scoreboard as a fixed-width table: one row per
  /// (observer, peer) pair with any activity, "-" for estimators without
  /// samples. Deterministic output.
  void write_table(std::ostream& os) const;

 private:
  [[nodiscard]] QosCell& at(int observer, int peer) {
    return cells_[static_cast<std::size_t>(observer) *
                      static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(peer)];
  }
  /// Accrued false-suspicion time for one pair up to \p until.
  void charge_mistake_time(QosCell& c, int peer, TimeUs until);

  int n_;
  std::vector<QosCell> cells_;         ///< n*n, observer-major
  std::vector<TimeUs> crashed_at_;     ///< kTimeNever = not crashed
  std::vector<bool> detected_;         ///< n*n: T_D sample already taken
  TimeUs window_start_{kTimeNever};
  TimeUs window_end_{kTimeNever};
  bool finalized_{false};

  MetricsRegistry* metrics_{nullptr};
  Histogram* detection_hist_{nullptr};
  Histogram* mistake_dur_hist_{nullptr};
  Histogram* recurrence_hist_{nullptr};
  MetricsRegistry::Cell* suspicions_total_{nullptr};
  MetricsRegistry::Cell* mistakes_total_{nullptr};
  MetricsRegistry::Cell* detections_total_{nullptr};
};

}  // namespace ecfd::obs
