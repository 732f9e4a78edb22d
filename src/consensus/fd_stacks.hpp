#pragma once

#include <memory>
#include <string>
#include <vector>

#include "consensus/harness.hpp"
#include "core/ecfd_oracle.hpp"
#include "net/host.hpp"

/// \file fd_stacks.hpp
/// The single failure-detector stack factory shared by every runtime: the
/// consensus harness, ecfd_sim, ecfd_fuzz and check/fuzz.cpp on the
/// simulator, the threaded runtime's benches and tests, and ecfd_node over
/// UDP. Each FdStack entry carries its canonical name (pinned by fuzz
/// digests and repro files), a short CLI alias, a help one-liner and an
/// installer that emplaces the stack's protocols on any Host and returns
/// the oracle views. Adding a stack means adding one table row here — and
/// APPENDING to the FdStack enum, since fuzz digests hash its ordinal.

namespace ecfd::consensus {

/// What install_fd_stack() mounted: the oracle views plus an optional
/// query-time adapter the caller must keep alive for the run (protocol
/// instances themselves are owned by the host).
struct FdInstallation {
  std::unique_ptr<core::EcfdOracle> owned;  ///< adapter; null if a protocol
  const core::EcfdOracle* ecfd{nullptr};
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

/// Inputs some stacks need: the detectors' timing, and the scenario the
/// scripted stack replays.
struct FdStackParams {
  /// Heartbeat period, initial timeout and the timeout's widening on each
  /// mistake (ecfd_node's [cluster] period_ms, initial_timeout_ms and
  /// timeout_increment_ms). The defaults are the protocols' own.
  DurUs period{msec(10)};
  DurUs initial_timeout{msec(30)};
  DurUs timeout_increment{msec(10)};

  ProcessSet crashed;            ///< processes the script must suspect
  ProcessId leader{kNoProcess};  ///< scripted post-stability leader
  TimeUs stable_at{0};           ///< scripted stabilization time
  bool ewa_only{false};          ///< scripted: Theorem-3 adversarial ◇S
};

struct FdStackInfo {
  FdStack id;
  const char* name;   ///< canonical (fuzz digests, repro files)
  const char* alias;  ///< short CLI alias, may equal name
  const char* summary;
  FdInstallation (*install)(Host& host, const FdStackParams& params);
};

/// All stacks, in FdStack ordinal order.
const std::vector<FdStackInfo>& all_fd_stacks();

const FdStackInfo& fd_stack_info(FdStack f);

/// Lookup by canonical name or alias; nullptr when unknown.
const FdStackInfo* fd_stack_by_name(const std::string& s);

/// Every canonical name, "a | b | ...", for usage and error texts.
std::string fd_stack_names();

/// Installs stack \p f on \p host; see FdInstallation for ownership.
FdInstallation install_fd_stack(FdStack f, Host& host,
                                const FdStackParams& params = {});

/// Counter prefixes ("msg.<label>.") that count as failure-detector
/// traffic in harness cost accounting.
const std::vector<std::string>& fd_msg_prefixes();

}  // namespace ecfd::consensus
