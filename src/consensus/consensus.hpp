#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/env.hpp"

/// \file consensus.hpp
/// The (Uniform) Consensus problem interface (Section 5.1).
///
/// Each process proposes a value; all correct processes must reach an
/// irrevocable decision on a common proposed value:
///   * Termination        — every correct process eventually decides;
///   * Uniform integrity  — every process decides at most once;
///   * Uniform agreement  — no two processes (correct or faulty) decide
///                          differently;
///   * Validity           — a decided value was proposed by some process.

namespace ecfd::consensus {

/// Proposed / decided values.
using Value = std::int64_t;

/// A decision event at one process.
struct Decision {
  Value value{};
  int round{0};   ///< round in which the deciding broadcast originated
  TimeUs at{0};   ///< local time of the decision
};

/// Base class for consensus protocol instances.
class ConsensusProtocol : public Protocol {
 public:
  using Protocol::Protocol;

  /// Proposes this process's initial value. Call exactly once, after the
  /// system has started (or it will be buffered until start()).
  virtual void propose(Value v) = 0;

  [[nodiscard]] bool has_decided() const { return decision_.has_value(); }
  [[nodiscard]] const std::optional<Decision>& decision() const {
    return decision_;
  }

  /// Round this process is currently executing (1-based; 0 before propose).
  [[nodiscard]] virtual int current_round() const = 0;

  /// Optional decision callback.
  void set_on_decide(std::function<void(const Decision&)> fn) {
    on_decide_ = std::move(fn);
  }

 protected:
  /// Records the decision; idempotent (uniform integrity).
  void decide(Value v, int round) {
    if (decision_.has_value()) return;
    decision_ = Decision{v, round, env_.now()};
    env_.record(EventType::kDecide, round, v);
    if (on_decide_) (*on_decide_)(*decision_);
  }

 private:
  std::optional<Decision> decision_;
  std::optional<std::function<void(const Decision&)>> on_decide_;
};

}  // namespace ecfd::consensus
