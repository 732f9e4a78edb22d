#include "runtime/thread_env.hpp"

#include <cassert>

namespace ecfd::runtime {

namespace {

/// The Worker whose loop is executing on this thread (nullptr on every
/// non-worker thread: tests, monitors). Lets hosts
/// tell owner-thread calls from foreign ones and gives route() a lock-free
/// RNG stream.
thread_local Worker* t_worker = nullptr;

}  // namespace

// ----------------------------------------------------------------- host

ThreadHost::ThreadHost(ThreadSystem& sys, ProcessId id, int n,
                       std::uint64_t seed)
    : InjectableHost(id, n, Rng(seed)), sys_(sys) {}

void ThreadHost::post_at(TimeUs when, std::function<void()> fn) {
  enqueue(when, sim::InplaceAction([f = std::move(fn)]() mutable { f(); }));
}

void ThreadHost::crash() {
  record(EventType::kCrash);
  mark_crashed();
}

TimeUs ThreadHost::now() const { return local_time(sys_.now()); }

TimeUs ThreadHost::fabric_now() const { return sys_.now(); }

void ThreadHost::send(ProcessId dst, Message m) {
  if (crashed()) return;
  m.src = self();
  m.dst = dst;
  record(EventType::kSend, dst, m.protocol);
  if (const DurUs extra = send_extra(); extra > 0) {
    // Gray NIC: the message leaves the host late but otherwise intact.
    post_at(sys_.now() + extra, [this, msg = std::move(m)]() mutable {
      if (!crashed()) sys_.route(std::move(msg));
    });
    return;
  }
  sys_.route(std::move(m));
}

TimerId ThreadHost::set_timer(DurUs delay, std::function<void()> fn) {
  if (crashed()) return kInvalidTimer;
  const TimeUs when = sys_.now() + fabric_delay(delay);
  TimerId id;
  if (!sys_.started() || on_owner_thread()) {
    id = arm_on_owner(when, std::move(fn));
  } else {
    // Foreign thread: the wheel is single-threaded, so route the arm
    // through the mailbox and hand back an id from the out-of-band
    // namespace.
    id = kForeignTimerBit |
         foreign_seq_.fetch_add(1, std::memory_order_relaxed);
    foreign_records_.fetch_add(1, std::memory_order_acq_rel);
    arm_foreign(id, when, std::move(fn));
  }
  record(EventType::kTimerSet, -1, static_cast<std::int64_t>(id));
  return id;
}

void ThreadHost::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  record(EventType::kTimerCancel, -1, static_cast<std::int64_t>(id));
  if (!sys_.started() || on_owner_thread()) {
    cancel_on_owner(id);
    return;
  }
  enqueue(now(), sim::InplaceAction([this, id]() { cancel_on_owner(id); }));
}

bool ThreadHost::on_owner_thread() const {
  return worker_ != nullptr && t_worker == worker_;
}

void ThreadHost::enqueue(TimeUs when, sim::InplaceAction fn) {
  if (sys_.stopping()) return;
  mailbox_.push(WorkItem{when, std::move(fn)});
  worker_->notify(when);
}

TimerId ThreadHost::arm_on_owner(TimeUs when, std::function<void()> fn) {
  const WheelHandle h = worker_->wheel_.schedule(
      when, static_cast<std::uint32_t>(self()), TimerWheel::Kind::kTimer,
      sim::InplaceAction([f = std::move(fn)]() mutable { f(); }));
  live_timers_.fetch_add(1, std::memory_order_acq_rel);
  worker_->publish_wheel_size();
  return h;
}

void ThreadHost::arm_foreign(TimerId fid, TimeUs when,
                             std::function<void()> fn) {
  enqueue(sys_.now(),
          sim::InplaceAction([this, fid, when, f = std::move(fn)]() mutable {
            const WheelHandle h = worker_->wheel_.schedule(
                when, static_cast<std::uint32_t>(self()),
                TimerWheel::Kind::kTimer,
                sim::InplaceAction([this, fid, f2 = std::move(f)]() mutable {
                  foreign_timers_.erase(fid);
                  foreign_records_.fetch_sub(1, std::memory_order_acq_rel);
                  f2();
                }));
            foreign_timers_.emplace(fid, h);
            live_timers_.fetch_add(1, std::memory_order_acq_rel);
            worker_->publish_wheel_size();
          }));
}

void ThreadHost::cancel_on_owner(TimerId id) {
  if ((id & kForeignTimerBit) != 0) {
    auto it = foreign_timers_.find(id);
    if (it == foreign_timers_.end()) return;  // fired or cancelled already
    const WheelHandle h = it->second;
    foreign_timers_.erase(it);
    foreign_records_.fetch_sub(1, std::memory_order_acq_rel);
    if (worker_->wheel_.cancel(h)) {
      live_timers_.fetch_sub(1, std::memory_order_acq_rel);
      worker_->publish_wheel_size();
    }
    return;
  }
  if (worker_->wheel_.cancel(id)) {
    live_timers_.fetch_sub(1, std::memory_order_acq_rel);
    worker_->publish_wheel_size();
  }
}

// --------------------------------------------------------------- worker

Worker::Worker(ThreadSystem& sys, int index, std::uint64_t seed,
               TimeUs now_us)
    : sys_(sys), index_(index), rng_(seed), wheel_(now_us) {}

void Worker::start() {
  thread_ = std::thread([this]() { run(); });
}

void Worker::request_stop() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(m_);
    notified_ = true;
  }
  cv_.notify_one();
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  t_worker = this;
  while (!stop_.load(std::memory_order_acquire)) {
    bool did_work = false;
    for (ThreadHost* h : hosts_) did_work |= drain_host(h);
    wheel_.advance(sys_.now(), [this](std::uint32_t host, TimerWheel::Kind kind,
                                      sim::InplaceAction& fn) {
      run_entry(host, kind, fn);
    });
    publish_wheel_size();
    if (did_work) continue;

    // Sleep protocol (Dekker-style): publish how long we intend to sleep,
    // THEN re-check every mailbox flag. A producer pushes, sets the flag
    // (seq_cst) and only then reads wake_deadline_; whichever side loses
    // the seq_cst race still observes the other's store, so a push can
    // never slip past a worker that decided to sleep.
    const TimeUs due = wheel_.next_due();
    wake_deadline_.store(due, std::memory_order_seq_cst);
    bool pending = false;
    for (ThreadHost* h : hosts_) {
      if (h->mailbox_.nonempty()) {
        pending = true;
        break;
      }
    }
    if (pending || stop_.load(std::memory_order_acquire)) {
      wake_deadline_.store(kAwake, std::memory_order_seq_cst);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(m_);
      if (!notified_) {
        if (due == kTimeNever) {
          cv_.wait(lock, [this]() { return notified_; });
        } else {
          cv_.wait_until(lock, sys_.to_clock(due),
                         [this]() { return notified_; });
        }
      }
      notified_ = false;
    }
    wake_deadline_.store(kAwake, std::memory_order_seq_cst);
  }
  t_worker = nullptr;
}

bool Worker::drain_host(ThreadHost* h) {
  batch_.clear();
  if (!h->mailbox_.drain(batch_)) return false;
  const TimeUs now_us = sys_.now();
  for (WorkItem& item : batch_) {
    if (item.when <= now_us) {
      // Due already: run in place straight out of the drained batch — no
      // copy, no detour through the wheel.
      if (!h->crashed()) item.fn();
    } else {
      wheel_.schedule(item.when, static_cast<std::uint32_t>(h->self()),
                      TimerWheel::Kind::kPost, std::move(item.fn));
    }
  }
  batch_.clear();
  return true;
}

void Worker::run_entry(std::uint32_t host, TimerWheel::Kind kind,
                       sim::InplaceAction& fn) {
  ThreadHost* h = sys_.hosts_[host].get();
  if (kind == TimerWheel::Kind::kTimer) {
    h->live_timers_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (h->crashed()) return;
  fn();
}

void Worker::notify(TimeUs when) {
  if (t_worker == this) return;  // self-push: the running loop will see it
  const TimeUs deadline = wake_deadline_.load(std::memory_order_seq_cst);
  if (deadline == kAwake || when >= deadline) return;
  {
    std::lock_guard<std::mutex> lock(m_);
    notified_ = true;
  }
  cv_.notify_one();
}

// --------------------------------------------------------------- system

ThreadSystem::ThreadSystem(Config cfg)
    : cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      ext_rng_(cfg.seed ^ 0x5bd1e995) {
  assert(cfg_.n > 0);
  Rng seeder(cfg_.seed);
  hosts_.reserve(static_cast<std::size_t>(cfg_.n));
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    hosts_.push_back(
        std::make_unique<ThreadHost>(*this, p, cfg_.n, seeder.next()));
  }
  if (cfg_.trace_depth > 0) {
    recorder_owned_ = std::make_unique<obs::Recorder>(
        static_cast<std::size_t>(cfg_.trace_depth));
    recorder_ = recorder_owned_.get();
    bind_recorder_rings();
  }
  int m = cfg_.workers > 0
              ? cfg_.workers
              : static_cast<int>(std::thread::hardware_concurrency());
  if (m < 1) m = 1;
  if (m > cfg_.n) m = cfg_.n;
  const TimeUs t0 = now();
  workers_.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, seeder.next(), t0));
  }
  const int block = cfg_.shard_block > 1 ? cfg_.shard_block : 1;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    Worker* w = workers_[static_cast<std::size_t>((p / block) % m)].get();
    hosts_[static_cast<std::size_t>(p)]->worker_ = w;
    w->hosts_.push_back(hosts_[static_cast<std::size_t>(p)].get());
  }
}

ThreadSystem::~ThreadSystem() {
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) w->request_stop();
  for (auto& w : workers_) w->join();
}

TimeUs ThreadSystem::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadSystem::attach_recorder(obs::Recorder* rec) {
  assert(!started() && "attach_recorder before start()");
  recorder_ = rec != nullptr ? rec : recorder_owned_.get();
  if (rec == nullptr) {
    for (auto& h : hosts_) h->bind_obs(nullptr, -1);
    if (recorder_ != nullptr) bind_recorder_rings();
    return;
  }
  bind_recorder_rings();
}

void ThreadSystem::bind_recorder_rings() {
  obs::Recorder* rec = recorder_;
  rec->meta().source = "runtime";
  rec->meta().clock = obs::ClockDomain::kMonotonic;
  // All hosts share epoch_, so one wall calibration covers the system:
  // wall time of ThreadSystem t=0.
  rec->meta().wall_epoch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      now();
  rec->bind_hosts(cfg_.n);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    hosts_[static_cast<std::size_t>(p)]->bind_obs(rec, p);
  }
}

void ThreadSystem::start() {
  assert(!started());
  // Queue each host's protocol starts before the workers exist, so the
  // very first thing every worker does is run start() for its shard.
  const TimeUs t0 = now();
  for (auto& h : hosts_) {
    ThreadHost* host = h.get();
    host->mailbox_.push(WorkItem{t0, sim::InplaceAction([host]() {
                                   host->start();
                                 })});
  }
  started_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->start();
}

void ThreadSystem::route(Message m) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  DurUs delay;
  Worker* w = t_worker;
  bool lost = false;
  if (w != nullptr && &w->sys_ == this) {
    // Worker thread of this system: its private stream, no lock at all.
    lost = w->rng_.chance(cfg_.loss_p);
    if (!lost) delay = w->rng_.range(cfg_.min_delay, cfg_.max_delay);
  } else {
    // Foreign threads (tests, monitors) share one locked stream.
    std::lock_guard<std::mutex> lock(ext_rng_mu_);
    lost = ext_rng_.chance(cfg_.loss_p);
    if (!lost) delay = ext_rng_.range(cfg_.min_delay, cfg_.max_delay);
  }
  if (lost) {
    if (m.src >= 0 && m.src < cfg_.n) {
      hosts_[static_cast<std::size_t>(m.src)]->record(EventType::kDrop, m.dst,
                                                      m.protocol);
    }
    return;
  }
  ThreadHost& dst = *hosts_[static_cast<std::size_t>(m.dst)];
  if (dst.crashed()) return;
  const TimeUs when = now() + delay;
  ThreadHost* hp = &dst;
  dst.enqueue(when, sim::InplaceAction(
                        [hp, m = std::move(m)]() { hp->dispatch(m); }));
}

std::int64_t ThreadSystem::wheel_entries() const {
  std::int64_t total = 0;
  for (const auto& w : workers_) total += w->wheel_entries();
  return total;
}

}  // namespace ecfd::runtime
