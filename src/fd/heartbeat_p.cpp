#include "fd/heartbeat_p.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace ecfd::fd {

namespace {
constexpr int kAlive = 1;
}

HeartbeatP::HeartbeatP(Env& env) : HeartbeatP(env, Config{}) {}

HeartbeatP::HeartbeatP(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kHeartbeatP),
      cfg_(cfg),
      suspected_(env.n()),
      last_heard_(static_cast<std::size_t>(env.n()), 0),
      timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout) {
  if (cfg_.adaptive) {
    pred_.assign(static_cast<std::size_t>(env.n()),
                 ArrivalPredictor(cfg_.predictor));
  }
}

void HeartbeatP::start() {
  // Stagger the very first beat a little so all-process bursts do not
  // synchronize artificially; determinism is preserved (per-process rng).
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { beat(); });
  env_.set_timer(cfg_.period / 2, [this]() { check(); });
}

void HeartbeatP::beat() {
  env_.broadcast(Message::make_empty(protocol_id(), kAlive, "hb_p.alive"));
  env_.set_timer(cfg_.period, [this]() { beat(); });
}

void HeartbeatP::check() {
  const TimeUs now = env_.now();
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == env_.self()) continue;
    const auto i = static_cast<std::size_t>(q);
    const bool late = cfg_.adaptive
                          ? now > pred_[i].deadline(last_heard_[i])
                          : now - last_heard_[i] > timeout_[i];
    if (!suspected_.contains(q) && late) {
      suspected_.add(q);
      env_.record(EventType::kSuspect, q);
    }
  }
  env_.set_timer(cfg_.period / 2, [this]() { check(); });
}

void HeartbeatP::on_message(const Message& m) {
  if (m.type != kAlive) return;
  const auto i = static_cast<std::size_t>(m.src);
  last_heard_[i] = env_.now();
  if (cfg_.adaptive) pred_[i].observe(last_heard_[i]);
  if (suspected_.contains(m.src)) {
    // Premature suspicion: retract and widen the timeout so this pair
    // eventually stops making mistakes (eventual strong accuracy).
    suspected_.remove(m.src);
    if (cfg_.adaptive) {
      pred_[i].note_mistake();
    } else {
      timeout_[i] += cfg_.timeout_increment;
    }
    env_.record(EventType::kUnsuspect, m.src);
  }
}

void HeartbeatP::export_adaptive_metrics(obs::MetricsRegistry& reg,
                                         const std::string& prefix) const {
  if (pred_.empty()) return;
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == env_.self()) continue;
    const ArrivalPredictor& pr = pred_[static_cast<std::size_t>(q)];
    const std::string base = prefix + ".p" + std::to_string(q);
    reg.add(base + ".arrivals", pr.stats().arrivals);
    reg.add(base + ".predictions", pr.stats().predictions);
    reg.add(base + ".mistakes", pr.stats().mistakes);
    reg.set_gauge(base + ".alpha_us", pr.alpha());
    obs::Histogram* h = reg.histogram(base + ".predict_err_us");
    for (int b = 0; b < ArrivalPredictor::kErrBuckets; ++b) {
      for (std::int64_t c = pr.err_bucket(b); c > 0; --c) {
        h->observe(obs::Histogram::bucket_lower(b));
      }
    }
  }
}

}  // namespace ecfd::fd
