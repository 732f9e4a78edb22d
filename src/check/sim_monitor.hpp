#pragma once

#include <memory>
#include <vector>

#include <map>

#include "check/consensus_monitor.hpp"
#include "check/fd_monitor.hpp"
#include "consensus/harness.hpp"
#include "net/system.hpp"
#include "obs/recorder.hpp"

/// \file sim_monitor.hpp
/// Glue that attaches the online property monitors to a running simulation.
///
/// A SimMonitor samples every attached failure-detector oracle on a fixed
/// cadence through the system scheduler (read-only — it sends no messages
/// and perturbs nothing but the event count) and registers decision
/// callbacks on the consensus protocols. It evaluates properties online
/// instead of retaining the sampled timeline; the FD suites, the fuzzer
/// and the Fig. 1 classification bench all classify runs through it.
///
/// The monitor outlives the System it observed: after the run, verdicts()
/// keeps answering from the folded state.

namespace ecfd::check {

class SimMonitor {
 public:
  struct Config {
    DurUs period{msec(10)};  ///< sampling cadence
    bool require_strong_accuracy{false};
    bool check_suspect{true};
    bool check_leader{true};
  };

  explicit SimMonitor(Config cfg) : cfg_(cfg) {}

  /// Binds to a system. \p correct = processes that never crash during the
  /// run (from the fault plan); \p until = when sampling stops (and the
  /// consensus termination deadline unless attach_consensus overrides it).
  void install(System& sys, const ProcessSet& correct, TimeUs until);

  /// Attaches process \p p's oracles (either may be null).
  void attach_fd(ProcessId p, const SuspectOracle* s, const LeaderOracle* l);

  /// Scenario self-check: declares that process \p p's local clock must
  /// never stray more than \p bound from true simulation time. Each
  /// sampling tick compares host(p).now() against the scheduler clock and
  /// latches a "scenario.skew_bound" safety violation on excess — this is
  /// how a skew *injector* that breaks its own declared envelope gets
  /// caught (the well-formed injector clamps, see
  /// ProcessHost::set_clock_skew). Re-registering keeps the loosest bound
  /// (each window's clamp still enforces its own tighter value). The
  /// verdict only exists once at least one bound is declared, so runs
  /// without skew keep their historical verdict lists and digests.
  void register_skew_bound(ProcessId p, DurUs bound);

  /// Attaches consensus protocols (decision callbacks) and the proposals
  /// for the validity check.
  void attach_consensus(
      const std::vector<consensus::ConsensusProtocol*>& protocols,
      const std::vector<consensus::Value>& proposals, TimeUs deadline);

  /// Arms the sampling timer; call after install()/attach_fd().
  void start();

  /// Routes verdict-state transitions into \p rec's system ring (host -1)
  /// as kVerdict events: a = new VerdictState ordinal, label = interned
  /// property name. Attach the same recorder to the System so the monitor's
  /// verdict flips interleave with the per-host protocol events in the
  /// merged timeline. nullptr detaches.
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }

  /// One-call setup from a harness instrumentation hook: install, attach
  /// every oracle and protocol, start sampling until \p horizon.
  void install_from(const consensus::HarnessInstruments& inst,
                    TimeUs horizon);

  /// All verdicts (FD + consensus) as of time \p now.
  [[nodiscard]] std::vector<Verdict> verdicts(TimeUs now) const;

  /// Required-and-failing verdicts on a finished run ending at \p end,
  /// with eventual properties owing `margin` of stability.
  [[nodiscard]] std::vector<Verdict> violations(TimeUs end,
                                                DurUs margin) const;

  [[nodiscard]] const FdPropertyMonitor* fd() const { return fd_.get(); }
  [[nodiscard]] const ConsensusMonitor* consensus() const {
    return consensus_.get();
  }
  /// Mutable access for direct decision reporting (mutation tests route a
  /// buggy engine's double-report past the idempotent decide()).
  [[nodiscard]] ConsensusMonitor* mutable_consensus() {
    return consensus_.get();
  }

 private:
  void tick();
  void record_verdict_transitions(TimeUs now);

  Config cfg_;
  System* sys_{nullptr};
  obs::Recorder* recorder_{nullptr};
  std::map<std::string, VerdictState> last_verdict_state_;
  TimeUs until_{0};
  std::map<ProcessId, DurUs> skew_bounds_;
  Verdict skew_verdict_;  ///< meaningful once !skew_bounds_.empty()
  std::vector<const SuspectOracle*> suspects_;
  std::vector<const LeaderOracle*> leaders_;
  std::unique_ptr<FdPropertyMonitor> fd_;
  std::unique_ptr<ConsensusMonitor> consensus_;
};

}  // namespace ecfd::check
