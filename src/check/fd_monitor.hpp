#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/verdict.hpp"
#include "net/process_set.hpp"

/// \file fd_monitor.hpp
/// Online monitor for the paper's failure-detector properties (Sections
/// 2-3: the Chandra-Toueg completeness/accuracy axes, Omega's Property 1,
/// and Definition 1's ◇C coupling clause `trusted_p ∉ suspected_p`).
///
/// The monitor is a pure state machine: feed it whole-system snapshots in
/// time order via observe() and query verdicts() at any point. It has no
/// dependency on the simulator, so the same class evaluates runs on the
/// discrete-event System (driven by check::SimMonitor) and, read-only, on
/// the threaded runtime (driven by check::ThreadedFdMonitor).
///
/// Eventual properties ("there is a time after which X holds") are tracked
/// as the start of the current holding suffix: every violating snapshot
/// resets the suffix and records the witness. The caller classifies a
/// finished run with check::satisfied(), which demands stabilization with
/// margin before the end.

namespace ecfd::check {

class FdPropertyMonitor {
 public:
  struct Config {
    int n{0};
    /// Processes that never crash during the run (known from the fault
    /// schedule); the paper's properties quantify over these.
    ProcessSet correct;
    /// Evaluate the suspected-set properties (completeness/accuracy).
    bool check_suspect{true};
    /// Evaluate the leader properties (Omega agreement + stability).
    bool check_leader{true};
    /// Enforce eventual *strong* accuracy (◇P stacks); otherwise it is
    /// reported informationally and only weak accuracy is required.
    bool require_strong_accuracy{false};
  };

  explicit FdPropertyMonitor(Config cfg);

  /// One whole-system observation. `suspected[p]` / `trusted[p]` are
  /// nullopt for crashed processes and for processes without that oracle.
  struct Snapshot {
    TimeUs time{0};
    ProcessSet crashed;  ///< processes crashed at snapshot time
    std::vector<std::optional<ProcessSet>> suspected;
    std::vector<std::optional<ProcessId>> trusted;
  };

  /// Feeds a snapshot; snapshots must arrive in nondecreasing time order.
  void observe(const Snapshot& snap);

  /// Verdicts over everything observed so far. Property names:
  ///   fd.strong_completeness, fd.eventual_weak_accuracy,
  ///   fd.eventual_strong_accuracy, fd.leader_agreement,
  ///   fd.leader_stability, fd.coupling
  [[nodiscard]] std::vector<Verdict> verdicts() const;

  /// Weak completeness (Fig. 1's ◇Q/◇W rows): every crashed process is
  /// eventually suspected, permanently, by SOME correct process — each
  /// victim may have its own witness. A query of its own rather than part
  /// of verdicts(), because the verdict list is hashed into every fuzz
  /// digest. Evaluated only with check_suspect; vacuously holding from 0
  /// while nothing crashed.
  [[nodiscard]] Verdict weak_completeness() const;

  /// The correct process every correct process trusted, unchanged, at the
  /// last snapshot (the fd.leader_agreement witness); kNoProcess while
  /// leader agreement does not hold.
  [[nodiscard]] ProcessId common_leader() const { return prev_common_leader_; }

  [[nodiscard]] TimeUs last_observed() const { return last_time_; }
  [[nodiscard]] std::int64_t snapshots() const { return snapshots_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Ground-truth detection witness for one crashed process, as the
  /// monitor saw it: when the crash first appeared in a snapshot and when
  /// each observer's suspicion of the victim was first sampled. Times are
  /// quantized to the monitor period, so they bound — rather than equal —
  /// the event-exact detection times the obs::QosScoreboard estimates;
  /// tests/test_obs_qos.cpp validates the scoreboard against these.
  struct DetectionWitness {
    ProcessId victim{kNoProcess};
    TimeUs crashed_seen{kTimeNever};
    /// Indexed by observer; kTimeNever = never seen suspecting the victim.
    std::vector<TimeUs> first_suspect;
  };

  /// One entry per victim, in the order crashes were first observed.
  [[nodiscard]] const std::vector<DetectionWitness>& detections() const {
    return detections_;
  }

 private:
  /// Suffix tracker for one eventual property.
  struct EventualState {
    bool ok{true};
    TimeUs holds_since{0};
    TimeUs last_violation{kTimeNever};
    std::string witness;
    std::int64_t violations{0};

    void update(TimeUs now, bool now_ok, const std::string& why);
    [[nodiscard]] Verdict verdict(const char* name, bool required) const;
  };

  Config cfg_;
  TimeUs last_time_{0};
  std::int64_t snapshots_{0};

  EventualState completeness_;
  EventualState strong_accuracy_;
  EventualState leader_agreement_;
  EventualState leader_stability_;
  EventualState coupling_;

  // Eventual weak accuracy needs a per-candidate view: the SAME correct
  // process must eventually be unsuspected by every correct process
  // forever. unsuspected_since_[c] is the start of c's current clean
  // suffix (kTimeNever while c is suspected by some correct process).
  std::vector<TimeUs> unsuspected_since_;
  std::int64_t ewa_bad_samples_{0};
  TimeUs ewa_last_bad_{kTimeNever};
  std::string ewa_witness_;

  // Leader-change detection.
  std::vector<std::optional<ProcessId>> prev_trusted_;
  ProcessId prev_common_leader_{kNoProcess};

  // Detection witnesses (see DetectionWitness).
  std::vector<DetectionWitness> detections_;
  // Weak completeness, parallel to detections_: per observer, the start of
  // its current unbroken suspicion of that victim (kTimeNever = not now).
  std::vector<std::vector<TimeUs>> suspect_since_;
};

}  // namespace ecfd::check
