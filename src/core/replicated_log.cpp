#include "core/replicated_log.hpp"

#include <algorithm>
#include <cassert>

#include "broadcast/reliable_broadcast.hpp"

namespace ecfd::core {

namespace {
/// Ids a slot's two protocols stamp on their messages; never on the wire.
constexpr ProtocolId kConsensusPart = 0;
constexpr ProtocolId kBroadcastPart = 1;
/// Frame types from here up are the slot's RB (ConsensusC's are smaller).
constexpr int kBroadcastTypeBase = 16;
}  // namespace

/// The Env a slot's protocols run on: the host's, except that frames are
/// wrapped into the log protocol, and timers of a freed slot never fire.
class LogReplica::SlotEnv final : public Env {
 public:
  SlotEnv(LogReplica& log, int slot) : log_(log), slot_(slot) {
    share_obs(host());
  }

  [[nodiscard]] TimeUs now() const override { return host().now(); }
  void send(ProcessId dst, Message m) override {
    const int type = m.protocol == kBroadcastPart ? kBroadcastTypeBase + m.type
                                                  : m.type;
    host().send(dst, Message::make(log_.protocol_id(), type, m.label,
                                   SlotFrame{slot_, m.payload, m.payload_type}));
  }
  TimerId set_timer(DurUs delay, std::function<void()> fn) override {
    return host().set_timer(delay, [log = &log_, slot = slot_,
                                    fn = std::move(fn)]() {
      log->reap();
      if (log->at(slot) != nullptr) fn();
    });
  }
  void cancel_timer(TimerId id) override { host().cancel_timer(id); }
  [[nodiscard]] ProcessId self() const override { return host().self(); }
  [[nodiscard]] int n() const override { return host().n(); }
  Rng& rng() override { return host().rng(); }

 private:
  [[nodiscard]] Env& host() const { return log_.env_; }

  LogReplica& log_;
  int slot_;
};

struct LogReplica::Instance {
  Instance(LogReplica& log, int slot)
      : env(log, slot),
        rb(env, kBroadcastPart),
        cons(env, log.fd_, &rb, log.cfg_.consensus, kConsensusPart) {}

  SlotEnv env;
  broadcast::ReliableBroadcast rb;
  ConsensusC cons;
  consensus::Value proposed{kNoOpCommand};
  bool sent{false};  ///< proposed into this slot yet?
};

LogReplica::LogReplica(Env& env, const EcfdOracle* fd)
    : LogReplica(env, fd, Config{}) {}

LogReplica::LogReplica(Env& env, const EcfdOracle* fd, Config cfg)
    : Protocol(env, cfg.protocol_id), cfg_(std::move(cfg)), fd_(fd) {
  assert(cfg_.pipeline_depth > 0);
  cfg_.consensus.deprioritized = kNoOpCommand;  // real commands win ties
}

LogReplica::~LogReplica() = default;

int LogReplica::window() const {
  return 2 * cfg_.pipeline_depth + std::max(cfg_.snapshot_every, 64);
}

void LogReplica::reap() { retired_.clear(); }

void LogReplica::start() {
  // Instances exist only from here on, so each starts as it is created.
  // Kick slot 0 so the pipeline runs even if nothing is ever submitted
  // (other replicas' slots need our participation). Quiescent logs skip
  // this: slots start on first submit or first foreign traffic.
  started_ = true;
  propose_next();
}

void LogReplica::on_message(const Message& m) {
  reap();
  if (m.payload_type == nullptr || *m.payload_type != typeid(SlotFrame)) {
    return;
  }
  const SlotFrame& f = m.as<SlotFrame>();
  if (f.slot < base_) return;  // applied, snapshotted or given up
  if (f.slot - base_ >= window()) {
    // The others run slots a full window past ours: we missed decisions
    // nobody will resend. Give those slots up and take part in the live
    // ones (their coordinators wait for us); a snapshot covers the gap.
    advance_base(f.slot - window() + 1);
  }
  Instance& inst = ensure(f.slot);
  Message inner = m;
  inner.payload = f.body;
  inner.payload_type = f.body_type;
  if (m.type >= kBroadcastTypeBase) {
    inner.type = m.type - kBroadcastTypeBase;
    inst.rb.on_message(inner);
  } else {
    inst.cons.on_message(inner);
  }
}

LogReplica::Instance* LogReplica::at(int slot) const {
  if (slot < base_) return nullptr;
  const auto i = static_cast<std::size_t>(slot - base_);
  return i < window_.size() ? window_[i].get() : nullptr;
}

LogReplica::Instance& LogReplica::ensure(int slot) {
  assert(slot >= base_ && slot - base_ < window());
  const auto i = static_cast<std::size_t>(slot - base_);
  if (window_.size() <= i) window_.resize(i + 1);
  if (window_[i] != nullptr) return *window_[i];

  window_[i] = std::make_unique<Instance>(*this, slot);
  Instance& inst = *window_[i];
  ++live_;
  head_ = std::max(head_, slot);
  inst.cons.set_on_decide([this, slot](const consensus::Decision& d) {
    on_slot_decided(slot, d);
  });
  if (cfg_.quiescent) {
    inst.cons.set_on_wakeup([this, slot]() { on_slot_activity(slot); });
  }
  inst.rb.start();
  inst.cons.start();
  return inst;
}

// Frees every instance below \p new_base. A command proposed into a freed,
// undecided slot is dropped: this replica can no longer learn whether it
// committed there, so re-proposing it could commit it twice.
void LogReplica::advance_base(int new_base) {
  while (base_ < new_base && !window_.empty()) {
    std::unique_ptr<Instance>& inst = window_.front();
    if (inst != nullptr) {
      if (inst->proposed != kNoOpCommand && !inst->cons.has_decided()) {
        --in_flight_;
      }
      retired_.push_back(std::move(inst));
      --live_;
    }
    window_.pop_front();
    ++base_;
  }
  base_ = std::max(base_, new_base);
  next_proposal_slot_ = std::max(next_proposal_slot_, base_);
}

bool LogReplica::decided(int slot) const {
  if (slot < applied_upto_) return true;
  const Instance* inst = at(slot);
  return inst != nullptr && inst->cons.has_decided();
}

void LogReplica::submit(consensus::Value command) {
  assert(command != kNoOpCommand);
  queue_.push_back(command);
  propose_next();
}

void LogReplica::propose_into(int slot, consensus::Value v) {
  Instance& inst = ensure(slot);
  inst.sent = true;
  inst.proposed = v;
  if (v != kNoOpCommand) ++in_flight_;
  inst.cons.propose(v);
}

// The oldest queued command, or a no-op when none is queued.
consensus::Value LogReplica::take_queued() {
  if (queue_.empty()) return kNoOpCommand;
  const consensus::Value v = queue_.front();
  queue_.pop_front();
  return v;
}

// Foreign traffic on a slot this replica has not proposed into: another
// replica started it, so join in — give a queued command a ride when there
// is one, otherwise participate with the classic no-op. (Only wired up in
// quiescent mode.)
void LogReplica::on_slot_activity(int slot) {
  const Instance* inst = at(slot);
  if (inst == nullptr || inst->sent || inst->cons.has_decided()) return;
  propose_into(slot, take_queued());
  propose_next();  // the cursor may now skip past this slot
}

void LogReplica::propose_next() {
  // The gate also keeps proposals inside the window, and a replica that is
  // behind() proposes nothing: the gate slots it gave up count as
  // undecided.
  if (!started_) return;  // submissions before start() wait in the queue
  while (next_proposal_slot_ - base_ < window()) {
    const int k = next_proposal_slot_;
    const Instance* inst = at(k);
    if (inst != nullptr && (inst->sent || inst->cons.has_decided())) {
      ++next_proposal_slot_;  // joined via activity, or decided without us
      continue;
    }
    const int gate = k - cfg_.pipeline_depth;
    if (gate >= 0 && !decided(gate)) break;
    // A quiescent replica with nothing to say leaves the slot dormant
    // instead of burning it on a no-op.
    if (queue_.empty() && cfg_.quiescent) break;

    propose_into(k, take_queued());
    ++next_proposal_slot_;
  }
}

void LogReplica::on_slot_decided(int slot, const consensus::Decision& d) {
  // Our proposal is no longer in flight. If another value won the slot,
  // the command goes back to the head of the queue for a later slot.
  const Instance* inst = at(slot);
  if (inst != nullptr && inst->proposed != kNoOpCommand) {
    --in_flight_;
    if (d.value != inst->proposed) queue_.push_front(inst->proposed);
  }
  drain_applied();
  propose_next();
}

void LogReplica::drain_applied() {
  // Apply strictly in slot order; decisions can be learned out of order
  // when a later slot's reliable broadcast overtakes an earlier one. An
  // applied slot's instance is done: free it.
  while (applied_upto_ == base_ && decided(base_)) {
    const consensus::Decision& dd = *at(base_)->cons.decision();
    const Entry e{dd.value, applied_upto_, dd.at};
    ++applied_upto_;
    advance_base(applied_upto_);
    if (e.command != kNoOpCommand) {
      log_.push_back(e);
      if (apply_) apply_(e);
    }
  }
}

void LogReplica::compact(int upto_slot) {
  const int upto = std::min(upto_slot, applied_upto_);
  if (upto <= compacted_upto_) return;
  log_.erase(std::remove_if(log_.begin(), log_.end(),
                            [upto](const Entry& e) { return e.slot < upto; }),
             log_.end());
  compacted_upto_ = upto;
}

void LogReplica::install_snapshot(int upto_slot) {
  if (upto_slot <= applied_upto_) return;
  // A decision arriving later for a covered slot is below base_ and
  // ignored — the snapshot already reflects it.
  applied_upto_ = upto_slot;
  advance_base(std::max(base_, upto_slot));
  compact(upto_slot);
  drain_applied();
  propose_next();
}

}  // namespace ecfd::core
