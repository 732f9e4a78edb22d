#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/timer_wheel.hpp"

/// \file thread_env.hpp
/// The non-simulated runtime: virtual hosts with wall-clock timers and
/// in-process message passing with injected delay and loss. Protocols are
/// written against Env, so the exact same classes that run under the
/// deterministic simulator run here — this is the library's answer to
/// deploying the paper's algorithms on a real asynchronous substrate.
///
/// Since the sharded-executor rewrite, a host is NOT an OS thread: M worker
/// threads (default hardware_concurrency) each own a shard of the n hosts,
/// so n is bounded by memory, not by the OS — the regimes where the paper's
/// 2(n-1) periodic-message claim becomes interesting (n ≥ 1024) actually
/// run. Each host has an MPSC mailbox for cross-shard sends, each worker a
/// hierarchical timer wheel (O(1) schedule/cancel, no tombstones) and its
/// own RNG stream for delay/loss injection (no global routing lock), and
/// every deferred action is a sim::InplaceAction, so the steady-state
/// heartbeat path performs zero heap allocations.
///
/// Unlike the simulator, execution is nondeterministic; tests against this
/// runtime assert eventual properties with generous deadlines.

namespace ecfd::runtime {

class ThreadSystem;
class Worker;

/// One process: protocols plus an Env implementation. The host is a
/// passive mailbox + timer bookkeeping owned by a Worker.
class ThreadHost final : public InjectableHost {
 public:
  ThreadHost(ThreadSystem& sys, ProcessId id, int n, std::uint64_t seed);

  /// Runs \p fn on this process's executor as soon as possible.
  void post(std::function<void()> fn) { post_at(now(), std::move(fn)); }

  /// Runs \p fn on this process's executor at absolute time \p when (us).
  void post_at(TimeUs when, std::function<void()> fn);

  /// Crash-stop: silences the process (its pending work is skipped).
  void crash();

  /// Timers armed and not yet fired or cancelled. After quiescence (all
  /// timers fired or cancelled) this returns exactly 0 — the regression
  /// guard for the old runtime's unbounded cancelled-set leak.
  [[nodiscard]] std::int64_t pending_timers() const {
    return live_timers_.load(std::memory_order_acquire);
  }

  /// Internal bookkeeping entries that outlive their timer (cross-thread
  /// timer indirections). Must also drop to 0 after quiescence on a live
  /// host.
  [[nodiscard]] std::size_t bookkeeping_records() const {
    return foreign_records_.load(std::memory_order_acquire);
  }

  // --- Env ------------------------------------------------------------
  [[nodiscard]] TimeUs now() const override;
  [[nodiscard]] TimeUs fabric_now() const override;
  void send(ProcessId dst, Message m) override;
  TimerId set_timer(DurUs delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;

 private:
  friend class ThreadSystem;
  friend class Worker;

  /// Cross-thread timer ids (set_timer called off the owning worker) live
  /// in a separate namespace so the hot owner-thread path needs no map at
  /// all: a plain wheel handle IS the TimerId.
  static constexpr TimerId kForeignTimerBit = TimerId{1} << 63;

  // --- sharded-executor internals (owner-thread unless noted) ---------
  [[nodiscard]] bool on_owner_thread() const;
  void enqueue(TimeUs when, sim::InplaceAction fn);  // any thread
  TimerId arm_on_owner(TimeUs when, std::function<void()> fn);
  void arm_foreign(TimerId fid, TimeUs when, std::function<void()> fn);
  void cancel_on_owner(TimerId id);

  ThreadSystem& sys_;

  // Sharded executor state.
  Worker* worker_{nullptr};
  Mailbox mailbox_;
  std::atomic<std::int64_t> live_timers_{0};
  std::unordered_map<TimerId, WheelHandle> foreign_timers_;  // owner thread
  std::atomic<std::size_t> foreign_records_{0};
  std::atomic<std::uint64_t> foreign_seq_{1};
};

/// One executor thread of the sharded runtime: owns a shard of the hosts,
/// their deferred work (timer wheel) and an RNG stream for routing.
class Worker {
 public:
  Worker(ThreadSystem& sys, int index, std::uint64_t seed, TimeUs now_us);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Live wheel entries, as last published by the owning thread (for
  /// introspection/tests; exact once the system is quiescent).
  [[nodiscard]] std::int64_t wheel_entries() const {
    return wheel_size_.load(std::memory_order_acquire);
  }

 private:
  friend class ThreadHost;
  friend class ThreadSystem;

  static constexpr TimeUs kAwake = -1;

  void start();
  void request_stop();
  void join();
  void run();
  bool drain_host(ThreadHost* h);
  void run_entry(std::uint32_t host, TimerWheel::Kind kind,
                 sim::InplaceAction& fn);
  /// Producer-side wake: called after a mailbox push destined for this
  /// worker. Only touches the mutex when the worker may sleep past `when`.
  void notify(TimeUs when);
  void publish_wheel_size() {
    wheel_size_.store(static_cast<std::int64_t>(wheel_.size()),
                      std::memory_order_release);
  }

  ThreadSystem& sys_;
  int index_;
  Rng rng_;
  TimerWheel wheel_;
  std::vector<ThreadHost*> hosts_;
  std::vector<WorkItem> batch_;

  std::atomic<std::int64_t> wheel_size_{0};
  /// kAwake while running; while sleeping, the wall-clock instant the
  /// worker will wake at on its own. Producers must notify iff their
  /// item's due time is earlier (seq_cst pairs with Mailbox's flag).
  std::atomic<TimeUs> wake_deadline_{kAwake};
  std::mutex m_;
  std::condition_variable cv_;
  bool notified_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The whole threaded system: n hosts, M workers, plus the message fabric.
class ThreadSystem {
 public:
  struct Config {
    int n{3};
    std::uint64_t seed{1};
    DurUs min_delay{usec(200)};
    DurUs max_delay{msec(5)};
    double loss_p{0.0};
    /// Sharded executor width: worker threads carrying the n hosts
    /// (0 = hardware_concurrency, clamped to [1, n]).
    int workers{0};
    /// Cell-aware placement: hosts are assigned to workers in contiguous
    /// blocks of this size — worker(p) = (p / shard_block) % M — so a
    /// hierarchical detector whose cells are contiguous id ranges (e.g.
    /// fd::HierC) keeps intra-cell traffic on one worker. 1 (default)
    /// preserves the classic round-robin p % M layout.
    int shard_block{1};
    /// Per-host event-ring depth (0 = tracing off). When on, the system
    /// owns an obs::Recorder keeping the last `trace_depth` events per
    /// host so monitor violation reports can show what the offending host
    /// last did. Ignored when an external recorder is attached.
    int trace_depth{0};
  };

  explicit ThreadSystem(Config cfg);
  ~ThreadSystem();

  ThreadSystem(const ThreadSystem&) = delete;
  ThreadSystem& operator=(const ThreadSystem&) = delete;

  [[nodiscard]] int n() const { return cfg_.n; }
  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }
  ThreadHost& host(ProcessId p) { return *hosts_[static_cast<std::size_t>(p)]; }

  /// Starts all workers and protocol stacks.
  void start();
  [[nodiscard]] bool started() const {
    return started_.load(std::memory_order_acquire);
  }

  /// Wall-clock microseconds since construction.
  [[nodiscard]] TimeUs now() const;

  /// Routes a message (delay/loss applied); called by hosts. Uses the
  /// calling worker's own RNG stream — no global lock on the fabric.
  void route(Message m);

  /// Messages that entered the fabric (before loss), since construction.
  /// Relaxed counter: cheap on the send path, exact at quiescence — the
  /// scale benches read it to report per-node message rates.
  [[nodiscard]] std::uint64_t messages_routed() const {
    return routed_.load(std::memory_order_relaxed);
  }

  /// Sum of live timer-wheel entries across workers, as last published by
  /// each worker; exact at quiescence.
  [[nodiscard]] std::int64_t wheel_entries() const;

  /// Attaches an external typed event recorder (tools that export traces).
  /// Must be called before start(); \p rec must outlive this system.
  /// Overrides the Config::trace_depth internal recorder.
  void attach_recorder(obs::Recorder* rec);

  /// The active recorder: external if attached, else the internal
  /// Config::trace_depth one, else nullptr.
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  friend class ThreadHost;
  friend class Worker;

  [[nodiscard]] std::chrono::steady_clock::time_point to_clock(TimeUs t) const {
    return epoch_ + std::chrono::microseconds(t);
  }
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  void bind_recorder_rings();

  Config cfg_;
  std::chrono::steady_clock::time_point epoch_;
  /// Owned recorder (Config::trace_depth); declared before hosts_/workers_
  /// so rings outlive every thread that can still push into them.
  std::unique_ptr<obs::Recorder> recorder_owned_;
  obs::Recorder* recorder_{nullptr};
  /// Delay/loss draws for sends from threads that are not workers (tests,
  /// monitors).
  std::mutex ext_rng_mu_;
  Rng ext_rng_;
  std::vector<std::unique_ptr<ThreadHost>> hosts_;
  std::vector<std::unique_ptr<Worker>> workers_;  // after hosts_: dies first
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace ecfd::runtime
