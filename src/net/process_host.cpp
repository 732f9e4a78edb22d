#include "net/process_host.hpp"

#include <cassert>
#include <utility>

namespace ecfd {

ProcessHost::ProcessHost(ProcessId id, int n, sim::Scheduler& sched,
                         Network& network, Rng rng)
    : InjectableHost(id, n, rng), sched_(sched), network_(network) {}

void ProcessHost::crash() {
  if (crashed()) return;
  mark_crashed();
  crash_time_ = sched_.now();
  for (TimerId t : live_timers_) sched_.cancel(t);
  live_timers_.clear();
  record(EventType::kCrash);
}

void ProcessHost::send(ProcessId dst, Message m) {
  if (crashed()) return;
  assert(dst >= 0 && dst < n());
  m.src = self();
  m.dst = dst;
  record(EventType::kSend, dst, m.protocol);
  if (const DurUs extra = send_extra(); extra > 0) {
    // The gray NIC: the message leaves the protocol now but only enters
    // the network after the extra latency — unless the host crashed in
    // the meantime (a crash-stop host sends nothing after the crash).
    sched_.schedule_after(extra, [this, m] {
      if (!crashed()) network_.send(m);
    });
    return;
  }
  network_.send(m);
}

TimerId ProcessHost::set_timer(DurUs delay, std::function<void()> fn) {
  if (crashed()) return kInvalidTimer;
  // The wrapper removes its own id from the live set when it fires; the
  // queue discloses the id it will assign, so the closure can carry it by
  // value instead of through a heap-allocated cell.
  const TimerId id = sched_.next_event_id();
  const sim::EventId got = sched_.schedule_after(
      fabric_delay(delay), [this, id, fn = std::move(fn)]() {
        live_timers_.erase(id);
        if (!crashed()) fn();
      });
  assert(got == id && "scheduler id prediction out of sync");
  (void)got;
  live_timers_.insert(id);
  record(EventType::kTimerSet, -1, static_cast<std::int64_t>(id));
  return id;
}

void ProcessHost::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  sched_.cancel(id);
  live_timers_.erase(id);
  record(EventType::kTimerCancel, -1, static_cast<std::int64_t>(id));
}

}  // namespace ecfd
