#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "check/fd_monitor.hpp"
#include "fd/oracle.hpp"
#include "runtime/thread_env.hpp"

/// \file thread_monitor.hpp
/// Read-only attachment of the FD property monitor to the threaded runtime.
///
/// Failure-detector state on the threaded runtime is owned by each host's
/// thread, so the monitor never reads an oracle directly: sample() posts a
/// read closure onto every live host's own executor, collects the replies
/// under the monitor's lock, and folds the combined snapshot into the same
/// FdPropertyMonitor used on the simulator. Hosts that are crashed (or too
/// slow to reply before the timeout) appear as having no output, exactly
/// like crashed processes in a simulated snapshot.
///
/// The threaded runtime is nondeterministic, so verdicts here are judged
/// with generous margins — the fuzz campaigns run on the simulator.

namespace ecfd::check {

class ThreadedFdMonitor {
 public:
  ThreadedFdMonitor(runtime::ThreadSystem& sys, FdPropertyMonitor::Config cfg);

  /// Attaches process \p p's oracles (either may be null). Must happen
  /// before ThreadSystem::start().
  void attach(ProcessId p, const SuspectOracle* s, const LeaderOracle* l);

  /// Takes one whole-system sample; blocks up to \p timeout wall-clock for
  /// hosts to reply. Call from the coordinating (test) thread.
  void sample(DurUs timeout = msec(500));

  [[nodiscard]] const FdPropertyMonitor& monitor() const { return monitor_; }

  /// Human-readable report of every non-holding property: the verdict lines
  /// plus, when the runtime carries an obs::Recorder
  /// (ThreadSystem::Config::trace_depth or attach_recorder), the recent
  /// state-ring events of each host named in a witness ("p<id>") — typed
  /// suspect/unsuspect/leader-change transitions — so a
  /// violation arrives with the offending host's FD history attached.
  /// Empty when all properties hold.
  [[nodiscard]] std::string violation_report() const;

 private:
  runtime::ThreadSystem& sys_;
  FdPropertyMonitor monitor_;
  std::vector<const SuspectOracle*> suspects_;
  std::vector<const LeaderOracle*> leaders_;

  /// Verdict states as of the previous sample; transitions are pushed into
  /// the runtime recorder's system ring as kVerdict events.
  std::map<std::string, VerdictState> last_verdict_state_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_{0};  ///< guards against late replies from a prior sample
  int pending_{0};
  std::vector<std::optional<ProcessSet>> got_suspected_;
  std::vector<std::optional<ProcessId>> got_trusted_;
};

}  // namespace ecfd::check
