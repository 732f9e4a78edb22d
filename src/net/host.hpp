#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/env.hpp"

/// \file host.hpp
/// What a process is on every runtime: the simulator's ProcessHost
/// (net/process_host.hpp), the threaded runtime's ThreadHost
/// (runtime/thread_env.hpp) and the UDP runtime's DgramEnv
/// (transport/dgram_env.hpp) all extend Host. A backend adds only what
/// really differs between them: its clock, its send path, its timers and
/// its crash semantics.

namespace ecfd {

/// One process of the universe: identity, random stream and the protocol
/// table. The host owns its protocols and dispatches inbound messages to
/// them by protocol id.
class Host : public Env {
 public:
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Registers a protocol instance, before start(). The host owns it.
  /// Protocol ids must be unique within a host.
  void add_protocol(std::unique_ptr<Protocol> proto);

  /// Constructs and registers a protocol of type P with (Env&, args...).
  template <class P, class... Args>
  P& emplace(Args&&... args) {
    auto owned = std::make_unique<P>(*this, std::forward<Args>(args)...);
    P& ref = *owned;
    add_protocol(std::move(owned));
    return ref;
  }

  /// Starts every registered protocol, in registration order. Runs on the
  /// host's own execution context (the threaded runtime queues it there).
  void start();

  /// Protocol lookup (nullptr when absent).
  [[nodiscard]] Protocol* protocol(ProtocolId id) const {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  [[nodiscard]] ProcessId self() const final { return id_; }
  [[nodiscard]] int n() const final { return n_; }
  Rng& rng() final { return rng_; }

 protected:
  Host(ProcessId id, int n, Rng rng) : id_(id), n_(n), rng_(rng) {}

  [[nodiscard]] bool started() const { return started_; }

  /// Hands \p m to the protocol registered under m.protocol and records
  /// kDeliver. Returns false, recording nothing, when this host has no
  /// such protocol.
  bool dispatch(const Message& m) {
    Protocol* p = protocol(m.protocol);
    if (p == nullptr) return false;
    record(EventType::kDeliver, m.src, m.protocol);
    p->on_message(m);
    return true;
  }

 private:
  ProcessId id_;
  int n_;
  Rng rng_;
  bool started_{false};
  std::vector<std::unique_ptr<Protocol>> owned_;
  std::unordered_map<ProtocolId, Protocol*> by_id_;
};

/// A Host whose faults a scenario injects: crash-stop, gray failure and
/// clock skew. The simulator's ProcessHost and the threaded runtime's
/// ThreadHost share this one fault model, so one scenario drives both; a
/// UDP node's faults are real ones (kill -9, a slow machine).
///
/// Every field is an atomic, so the threaded runtime's injector may change
/// it from any thread while the host's worker reads it. The skew fields
/// behind the `skew_active_` gate are read relaxed: a read racing an
/// update may blend old and new skew for a moment, which the adversarial
/// model allows.
class InjectableHost : public Host {
 public:
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  /// Gray failure: the process stays alive but runs slow. Timer delays are
  /// stretched by factor_milli/1000 (1000 = normal speed) and every
  /// outbound message waits an extra \p send_extra in the "NIC" before it
  /// enters the network. set_gray(1000, 0) restores normal operation.
  /// Timers armed before the change keep their deadline; the protocols'
  /// self-rearming timers pick the factor up on the next arm, which is the
  /// creep a degraded-but-alive host shows. No effect once crashed.
  void set_gray(std::uint32_t factor_milli, DurUs send_extra);
  [[nodiscard]] bool gray() const {
    return gray_factor_milli_.load(std::memory_order_acquire) != 1000 ||
           gray_send_extra_.load(std::memory_order_acquire) != 0;
  }

  /// Clock skew: now() reads the fabric clock plus offset plus drift,
  /// where drift accumulates at drift_ppm from the moment of the call. The
  /// total error is clamped to ±bound_us when bound_us > 0; the scenario
  /// injector always passes the bound it declared to the monitors, so a
  /// well-formed schedule never exceeds it (bound_us == 0 leaves the skew
  /// unclamped; only mutation tests use that). Timer delays are local
  /// durations, so a fast clock fires its timers early in fabric time.
  /// No effect once crashed.
  void set_clock_skew(std::int64_t offset_us, std::int32_t drift_ppm,
                      DurUs bound_us);
  void clear_clock_skew() { set_clock_skew(0, 0, 0); }

  /// Signed local-minus-fabric clock error right now (0 without skew).
  [[nodiscard]] std::int64_t clock_error() const {
    return clock_error_at(fabric_now());
  }

 protected:
  using Host::Host;

  void mark_crashed() { crashed_.store(true, std::memory_order_release); }

  /// The local clock reading when the fabric clock reads \p fabric.
  [[nodiscard]] TimeUs local_time(TimeUs fabric) const {
    return fabric + clock_error_at(fabric);
  }

  [[nodiscard]] std::int64_t clock_error_at(TimeUs fabric) const {
    if (!skew_active_.load(std::memory_order_acquire)) return 0;
    std::int64_t e =
        skew_offset_.load(std::memory_order_relaxed) +
        skew_drift_ppm_.load(std::memory_order_relaxed) *
            (fabric - skew_since_.load(std::memory_order_relaxed)) /
            1'000'000;
    const DurUs bound = skew_bound_.load(std::memory_order_relaxed);
    if (bound > 0) e = std::clamp<std::int64_t>(e, -bound, bound);
    return e;
  }

  /// Converts a timer delay on the local clock to fabric time: the gray
  /// stretch first, then the drift (a fast clock waits less fabric time).
  [[nodiscard]] DurUs fabric_delay(DurUs delay) const {
    const std::uint32_t gf =
        gray_factor_milli_.load(std::memory_order_acquire);
    if (gf != 1000) delay = delay * static_cast<DurUs>(gf) / 1000;
    if (skew_active_.load(std::memory_order_acquire)) {
      const std::int32_t drift =
          skew_drift_ppm_.load(std::memory_order_relaxed);
      if (drift != 0) delay = delay * 1'000'000 / (1'000'000 + drift);
    }
    return delay;
  }

  /// The gray NIC's hold-back for each outbound message (0 when healthy).
  [[nodiscard]] DurUs send_extra() const {
    return gray_send_extra_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint32_t> gray_factor_milli_{1000};
  std::atomic<DurUs> gray_send_extra_{0};
  std::atomic<bool> skew_active_{false};
  std::atomic<std::int64_t> skew_offset_{0};
  std::atomic<std::int32_t> skew_drift_ppm_{0};
  std::atomic<DurUs> skew_bound_{0};
  std::atomic<TimeUs> skew_since_{0};
};

}  // namespace ecfd
