#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <typeinfo>
#include <vector>

#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file reliable_broadcast.hpp
/// Reliable Broadcast by message diffusion (Chandra-Toueg [6]): on first
/// delivery of a broadcast, a process relays it to everyone before handing
/// it to the application. Guarantees:
///   * validity    — a correct broadcaster's message is delivered by all
///                   correct processes;
///   * agreement   — if any correct process delivers m, all correct do;
///   * uniform integrity — m is delivered at most once, and only if it was
///                   broadcast.
/// The consensus algorithms use it to propagate decisions (the "R-broadcast
/// ... decide" of Fig. 4).

namespace ecfd::broadcast {

/// A delivered broadcast.
struct RbEnvelope {
  ProcessId origin{kNoProcess};
  std::uint64_t seq{0};  ///< per-origin sequence number
  int tag{0};            ///< application-defined discriminator

  std::shared_ptr<const void> body{};
  const std::type_info* body_type{nullptr};

  template <class T>
  const T& as() const {
    assert(body && body_type && *body_type == typeid(T) &&
           "RB envelope body type mismatch");
    return *static_cast<const T*>(body.get());
  }
};

class ReliableBroadcast final : public Protocol {
 public:
  using DeliverFn = std::function<void(const RbEnvelope&)>;

  /// \p pid allows hosting several independent instances on one process
  /// (e.g. the kv batch-body RB); it must match across processes.
  explicit ReliableBroadcast(Env& env,
                             ProtocolId pid = protocol_ids::kReliableBroadcast);

  /// Installs the application callback invoked on every R-delivery.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// R-broadcasts a typed body. The local process R-delivers immediately
  /// (after relaying), everyone else on first receipt.
  template <class T>
  void r_broadcast(int tag, T body) {
    RbEnvelope env_out;
    env_out.origin = env_.self();
    env_out.seq = next_seq_++;
    env_out.tag = tag;
    auto owned = std::make_shared<const T>(std::move(body));
    env_out.body_type = &typeid(T);
    env_out.body = std::move(owned);
    diffuse_and_deliver(env_out);
  }

  void on_message(const Message& m) override;

  /// Number of distinct broadcasts delivered here (for tests).
  [[nodiscard]] std::size_t delivered_count() const;

  /// Delivered seqs held individually because an earlier seq of the same
  /// origin is still missing. Everything else is summarized by one
  /// watermark per origin, so in-order traffic keeps this at zero.
  [[nodiscard]] std::size_t out_of_order_count() const;

 private:
  /// Dedup state of one origin: seqs 1..contiguous are all delivered, plus
  /// the seqs in `above`.
  struct Seen {
    std::uint64_t contiguous{0};
    std::set<std::uint64_t> above;
  };

  void diffuse_and_deliver(const RbEnvelope& envelope);
  /// Marks (origin, seq) delivered; false when it already was.
  bool first_delivery(ProcessId origin, std::uint64_t seq);

  DeliverFn deliver_;
  std::uint64_t next_seq_{1};
  std::vector<Seen> seen_;  ///< indexed by origin
};

}  // namespace ecfd::broadcast
