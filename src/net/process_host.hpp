#pragma once

#include <unordered_set>

#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

/// \file process_host.hpp
/// A simulated process: hosts a stack of protocol instances, implements Env
/// for them on the scheduler's virtual clock, and models crash-stop
/// failures (Section 2.1 — a crashed process permanently stops sending,
/// receiving and executing timers).

namespace ecfd {

class ProcessHost final : public InjectableHost {
 public:
  ProcessHost(ProcessId id, int n, sim::Scheduler& sched, Network& network,
              Rng rng);

  /// Crash-stop: irreversibly silences the process.
  void crash();
  [[nodiscard]] TimeUs crash_time() const { return crash_time_; }

  /// Delivers an inbound message to the protocol registered under
  /// m.protocol. Messages for crashed hosts or unknown protocols are
  /// dropped.
  void deliver(const Message& m) {
    if (!crashed()) dispatch(m);
  }

  // --- Env interface -------------------------------------------------
  [[nodiscard]] TimeUs now() const override { return local_time(sched_.now()); }
  [[nodiscard]] TimeUs fabric_now() const override { return sched_.now(); }
  void send(ProcessId dst, Message m) override;
  TimerId set_timer(DurUs delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;

 private:
  sim::Scheduler& sched_;
  Network& network_;
  TimeUs crash_time_{kTimeNever};
  std::unordered_set<TimerId> live_timers_;
};

}  // namespace ecfd
