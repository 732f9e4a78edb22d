#include "fd/stable_leader.hpp"

#include <algorithm>

namespace ecfd::fd {

StableLeader::StableLeader(Env& env) : StableLeader(env, Config{}) {}

StableLeader::StableLeader(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kStableLeader),
      cfg_(cfg),
      counters_(static_cast<std::size_t>(env.n()), 0),
      last_heard_(static_cast<std::size_t>(env.n()), 0),
      timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout) {}

void StableLeader::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

ProcessId StableLeader::trusted() const {
  ProcessId best = 0;
  for (ProcessId q = 1; q < env_.n(); ++q) {
    if (counters_[static_cast<std::size_t>(q)] <
        counters_[static_cast<std::size_t>(best)]) {
      best = q;
    }
  }
  return best;
}

void StableLeader::tick() {
  const ProcessId leader = trusted();
  if (leader != observed_leader_) {
    ++leader_changes_;
    observed_leader_ = leader;
    env_.record(EventType::kLeaderChange, leader);
    // Fresh leader: grant a grace period so we don't instantly accuse a
    // process we were not monitoring before.
    last_heard_[static_cast<std::size_t>(leader)] = env_.now();
  }

  if (leader == env_.self()) {
    env_.broadcast(Message::make(protocol_id(), kOk, "sl.ok", counters_));
  } else {
    const auto i = static_cast<std::size_t>(leader);
    if (env_.now() - last_heard_[i] > timeout_[i]) {
      // Accuse: charge the leader and tell everyone, so counters converge.
      ++counters_[i];
      timeout_[i] += cfg_.timeout_increment;
      last_heard_[i] = env_.now();  // restart the clock for the next check
      env_.broadcast(Message::make(protocol_id(), kAccuse, "sl.accuse",
                                   counters_));
    }
  }
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void StableLeader::merge(const std::vector<std::uint64_t>& remote) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = std::max(counters_[i], remote[i]);
  }
}

void StableLeader::on_message(const Message& m) {
  const auto& remote = m.as<std::vector<std::uint64_t>>();
  merge(remote);
  if (m.type == kOk) {
    last_heard_[static_cast<std::size_t>(m.src)] = env_.now();
  }
}

}  // namespace ecfd::fd
