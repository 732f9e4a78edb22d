#include "core/c_to_p.hpp"

namespace ecfd::core {

namespace {
constexpr int kAlive = 1;
constexpr int kList = 2;
}

CToP::CToP(Env& env, const LeaderOracle* trusted_src)
    : CToP(env, trusted_src, Config{}) {}

CToP::CToP(Env& env, const LeaderOracle* trusted_src, Config cfg)
    : Protocol(env, protocol_ids::kCToP),
      cfg_(cfg),
      trusted_src_(trusted_src),
      local_list_(env.n()),
      adopted_(env.n()),
      last_alive_(static_cast<std::size_t>(env.n()), 0),
      timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout) {}

void CToP::start() {
  env_.set_timer(env_.rng().range(0, cfg_.alive_period),
                 [this]() { alive_tick(); });
  env_.set_timer(env_.rng().range(0, cfg_.list_period),
                 [this]() { leader_tick(); });
}

void CToP::alive_tick() {
  // Task 2: tell my trusted process I am alive. (A self-message would be
  // pointless: the leader never suspects itself.)
  const ProcessId t = trusted_src_->trusted();
  if (t != env_.self()) {
    env_.send(t, Message::make_empty(protocol_id(), kAlive, "ctp.alive"));
  }
  env_.set_timer(cfg_.alive_period, [this]() { alive_tick(); });
}

void CToP::leader_tick() {
  const bool leader_now = trusted_src_->trusted() == env_.self();
  if (leader_now && !acting_leader_) {
    // Leadership just acquired: nobody has been reporting to us, so grant
    // every process a fresh grace period instead of mass-suspecting on
    // stale timestamps. (Transient leaders are allowed by ◇C; this only
    // reduces noise, eventual properties do not depend on it.)
    const TimeUs now = env_.now();
    for (auto& t : last_alive_) t = now;
    local_list_.clear();
  }
  acting_leader_ = leader_now;

  if (acting_leader_) {
    // Task 3: time out silent processes.
    const TimeUs now = env_.now();
    for (ProcessId q = 0; q < env_.n(); ++q) {
      if (q == env_.self()) continue;  // the leader never suspects itself
      const auto i = static_cast<std::size_t>(q);
      if (!local_list_.contains(q) && now - last_alive_[i] > timeout_[i]) {
        local_list_.add(q);
        env_.record(EventType::kSuspect, q);
      }
    }
    // Task 1: publish the list; the leader's own output is its local list.
    env_.broadcast(
        Message::make(protocol_id(), kList, "ctp.list", local_list_));
    adopted_ = local_list_;
  }
  env_.set_timer(cfg_.list_period, [this]() { leader_tick(); });
}

void CToP::on_message(const Message& m) {
  switch (m.type) {
    case kAlive: {
      const auto i = static_cast<std::size_t>(m.src);
      last_alive_[i] = env_.now();
      if (local_list_.contains(m.src)) {
        // Task 4: a suspected process spoke up — mistake; widen timeout.
        local_list_.remove(m.src);
        timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, m.src);
      }
      break;
    }
    case kList: {
      // Task 5: adopt the list, but only from the process we currently
      // trust, and never adopt a suspicion of ourselves.
      if (m.src == trusted_src_->trusted()) {
        adopted_ = m.as<ProcessSet>();
        adopted_.remove(env_.self());
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace ecfd::core
