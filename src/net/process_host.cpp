#include "net/process_host.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ecfd {

ProcessHost::ProcessHost(ProcessId id, int n, sim::Scheduler& sched,
                         Network& network, Rng rng)
    : id_(id), n_(n), sched_(sched), network_(network), rng_(rng) {}

void ProcessHost::add_protocol(std::unique_ptr<Protocol> proto) {
  assert(proto != nullptr);
  const ProtocolId pid = proto->protocol_id();
  assert(by_id_.find(pid) == by_id_.end() && "duplicate protocol id on host");
  by_id_.emplace(pid, proto.get());
  owned_.push_back(std::move(proto));
}

void ProcessHost::start() {
  for (auto& p : owned_) p->start();
}

void ProcessHost::crash() {
  if (crashed_) return;
  crashed_ = true;
  crash_time_ = sched_.now();
  for (TimerId t : live_timers_) sched_.cancel(t);
  live_timers_.clear();
  record(EventType::kCrash);
}

void ProcessHost::deliver(const Message& m) {
  if (crashed_) return;
  auto it = by_id_.find(m.protocol);
  if (it == by_id_.end()) return;  // no such protocol on this host
  record(EventType::kDeliver, m.src, m.protocol);
  it->second->on_message(m);
}

Protocol* ProcessHost::protocol(ProtocolId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void ProcessHost::set_gray(std::uint32_t factor_milli, DurUs send_extra) {
  if (crashed_) return;
  assert(factor_milli > 0);
  gray_factor_milli_ = factor_milli;
  gray_send_extra_ = send_extra;
}

void ProcessHost::set_clock_skew(std::int64_t offset_us,
                                 std::int32_t drift_ppm, DurUs bound_us) {
  if (crashed_) return;
  assert(drift_ppm > -1'000'000);
  skew_offset_ = offset_us;
  skew_drift_ppm_ = drift_ppm;
  skew_bound_ = bound_us;
  skew_since_ = sched_.now();
  skew_active_ = offset_us != 0 || drift_ppm != 0;
}

std::int64_t ProcessHost::clock_error() const {
  if (!skew_active_) return 0;
  const TimeUs t = sched_.now();
  std::int64_t e =
      skew_offset_ + skew_drift_ppm_ * (t - skew_since_) / 1'000'000;
  if (skew_bound_ > 0) e = std::clamp<std::int64_t>(e, -skew_bound_, skew_bound_);
  return e;
}

void ProcessHost::send(ProcessId dst, Message m) {
  if (crashed_) return;
  assert(dst >= 0 && dst < n_);
  m.src = id_;
  m.dst = dst;
  record(EventType::kSend, dst, m.protocol);
  if (gray_send_extra_ > 0) {
    // The gray NIC: the message leaves the protocol now but only enters
    // the network after the extra latency — unless the host crashed in
    // the meantime (a crash-stop host sends nothing after the crash).
    sched_.schedule_after(gray_send_extra_, [this, m] {
      if (!crashed_) network_.send(m);
    });
    return;
  }
  network_.send(m);
}

TimerId ProcessHost::set_timer(DurUs delay, std::function<void()> fn) {
  if (crashed_) return kInvalidTimer;
  if (gray_factor_milli_ != 1000) {
    delay = delay * static_cast<DurUs>(gray_factor_milli_) / 1000;
  }
  if (skew_active_ && skew_drift_ppm_ != 0) {
    // `delay` is a local-clock duration; convert to true time so a fast
    // local clock (positive drift) fires early and a slow one late.
    delay = delay * 1'000'000 / (1'000'000 + skew_drift_ppm_);
  }
  // The wrapper removes its own id from the live set when it fires; the
  // queue discloses the id it will assign, so the closure can carry it by
  // value instead of through a heap-allocated cell.
  const TimerId id = sched_.next_event_id();
  const sim::EventId got =
      sched_.schedule_after(delay, [this, id, fn = std::move(fn)]() {
        live_timers_.erase(id);
        if (!crashed_) fn();
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
