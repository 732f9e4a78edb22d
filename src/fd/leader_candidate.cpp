#include "fd/leader_candidate.hpp"

namespace ecfd::fd {

namespace {
constexpr int kLeaderBeat = 1;
}

LeaderCandidate::LeaderCandidate(Env& env)
    : LeaderCandidate(env, Config{}) {}

LeaderCandidate::LeaderCandidate(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kLeaderCandidate),
      cfg_(cfg),
      suspected_(env.n()),
      last_heard_(static_cast<std::size_t>(env.n()), 0),
      timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout) {}

void LeaderCandidate::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

ProcessId LeaderCandidate::trusted() const {
  const ProcessId c = suspected_.first_excluded();
  return c == kNoProcess ? env_.self() : c;
}

void LeaderCandidate::announce() {
  env_.broadcast(Message::make_empty(protocol_id(), kLeaderBeat, "lc.leader"));
}

void LeaderCandidate::tick() {
  const ProcessId candidate = trusted();
  if (candidate == env_.self()) {
    // I believe I am the leader: announce it. (Only the current candidate
    // sends messages, so the steady-state cost is n-1 per period.)
    announcing_ = true;
    announce();
  } else {
    announcing_ = false;
    // Monitor the candidate.
    const auto i = static_cast<std::size_t>(candidate);
    if (env_.now() - last_heard_[i] > timeout_[i]) {
      suspected_.add(candidate);
      env_.record(EventType::kSuspect, candidate);
      env_.record(EventType::kLeaderChange, trusted());
    }
  }
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void LeaderCandidate::on_message(const Message& m) {
  if (m.type != kLeaderBeat) return;
  const auto i = static_cast<std::size_t>(m.src);
  last_heard_[i] = env_.now();
  if (suspected_.contains(m.src)) {
    // A lower-ranked candidate is alive after all: fall back to it and
    // widen its timeout so mistakes die out after GST.
    suspected_.remove(m.src);
    timeout_[i] += cfg_.timeout_increment;
    env_.record(EventType::kUnsuspect, m.src);
    env_.record(EventType::kLeaderChange, trusted());
  }
}

}  // namespace ecfd::fd
