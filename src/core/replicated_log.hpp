#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <typeinfo>
#include <vector>

#include "core/consensus_c.hpp"

/// \file replicated_log.hpp
/// State-machine replication on repeated instances of the paper's
/// ◇C-consensus: the canonical application that motivates consensus
/// (Section 1.2). Each log slot is one independent instance of the
/// Figs. 3-4 algorithm; all replicas apply the slot decisions in slot
/// order, so their logs are identical.
///
/// Liveness requires every replica to participate in every slot (a
/// coordinator waits for a reply from every unsuspected process), so a
/// replica with nothing to say proposes a no-op — the classic Multi-Paxos
/// idiom. No-ops consume a slot but are not applied.
///
/// Usage: install one LogReplica per process (`host.emplace<LogReplica>(
/// fd, cfg)`, same protocol_id everywhere), submit() commands at any time,
/// and read the applied log. Slot k is proposed once slot
/// k - pipeline_depth has decided here, so at most pipeline_depth
/// consecutive slots are in flight and a command never races itself.
///
/// The log is one protocol whose frames (SlotFrame) carry their slot
/// number; nothing is provisioned up front. A slot's ConsensusC and
/// ReliableBroadcast pair is created on first propose or first frame, and
/// freed once the slot is applied (a decided instance is halted and has
/// already relayed its decision). Live instances lie in a window of
/// window() slots from the lowest slot not applied here. A frame past the
/// window means the others moved on without this replica: it gives up the
/// slots it is missing, keeps answering the live ones, and catches up only
/// through install_snapshot().

namespace ecfd::core {

/// Slot filler proposed when a replica has no pending command.
inline constexpr consensus::Value kNoOpCommand =
    std::numeric_limits<consensus::Value>::min();

/// Wire body of the log protocol: one frame of slot \p slot's consensus or
/// reliable-broadcast instance, wrapping that instance's own payload. The
/// message type says which of the two it is addressed to.
struct SlotFrame {
  std::int32_t slot{0};
  std::shared_ptr<const void> body{};
  const std::type_info* body_type{nullptr};
};

class LogReplica final : public Protocol {
 public:
  /// Decided, applied log entry (no-ops excluded).
  struct Entry {
    consensus::Value command{};
    int slot{};
    TimeUs decided_at{};
  };

  using ApplyFn = std::function<void(const Entry&)>;

  struct Config {
    /// Protocol id of the log's frames; must match across processes.
    ProtocolId protocol_id{1000};
    /// Max consecutive slots proposed ahead of the decided prefix.
    int pipeline_depth{1};
    /// Applied slots between the embedding's snapshots (KvService's
    /// snapshot_every; 0 when it takes none). Only sizes window().
    int snapshot_every{0};
    /// When false (the classic mode), every replica proposes a no-op the
    /// moment a slot's gate opens, so the log free-runs even while idle.
    /// When true, a replica proposes only when it has a pending command or
    /// the slot has shown foreign traffic: an idle cluster consumes no
    /// slots. A non-leader's submission can then stay parked until the
    /// leader next submits — services that redirect writes to the leader
    /// (ecfd-kv) make that rare and self-healing.
    bool quiescent{false};
    ConsensusC::Config consensus;
  };

  /// \p fd is the host's ◇C module (not owned; must outlive the host).
  LogReplica(Env& env, const EcfdOracle* fd);
  LogReplica(Env& env, const EcfdOracle* fd, Config cfg);
  ~LogReplica() override;

  void start() override;
  void on_message(const Message& m) override;

  /// Queues \p command (!= kNoOpCommand) for replication; proposing starts
  /// with start().
  void submit(consensus::Value command);

  /// Callback invoked, in slot order, for every applied entry.
  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }

  /// The applied log so far (slot order, no-ops filtered out, compacted
  /// prefix dropped).
  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }

  /// Slots whose decision this replica has learned and applied.
  [[nodiscard]] int applied_slots() const { return applied_upto_; }

  /// Commands submitted here and not yet decided.
  [[nodiscard]] std::size_t pending() const {
    return queue_.size() + static_cast<std::size_t>(in_flight_);
  }

  /// Max live instances: 2 * pipeline_depth + max(snapshot_every, 64).
  /// A replica past the window has missed a snapshot's worth of slots, so
  /// its peers hold a snapshot covering the gap; the 64-slot floor keeps
  /// message reordering from counting as falling behind.
  [[nodiscard]] int window() const;

  /// Slots with a live consensus instance here (always <= window()).
  [[nodiscard]] int live_instances() const { return live_; }

  /// Highest slot this replica has created an instance for (-1: none).
  [[nodiscard]] int head_slot() const { return head_; }

  /// True while this replica has fallen behind the window: it gave up
  /// slots it never learned and cannot apply or propose until
  /// install_snapshot() covers them.
  [[nodiscard]] bool behind() const { return applied_upto_ < base_; }

  /// Drops applied log entries for slots < \p upto_slot (the caller holds
  /// a snapshot of the state machine at that point). Clamped to the
  /// applied prefix; monotone.
  void compact(int upto_slot);

  /// Slots below this are compacted away; log() starts here.
  [[nodiscard]] int compacted_upto() const { return compacted_upto_; }

  /// Fast-forwards a lagging replica past slots [0, upto_slot): the
  /// caller installed a state-machine snapshot covering them, so they
  /// count as applied without apply callbacks. A command this replica
  /// proposed into a covered, undecided slot is dropped from pending():
  /// the snapshot already holds its fate, and re-proposing it could commit
  /// it twice. No-op when upto_slot <= applied_slots().
  void install_snapshot(int upto_slot);

 private:
  struct Instance;
  class SlotEnv;

  [[nodiscard]] Instance* at(int slot) const;
  Instance& ensure(int slot);
  void advance_base(int new_base);
  void reap();
  [[nodiscard]] bool decided(int slot) const;
  void on_slot_decided(int slot, const consensus::Decision& d);
  void on_slot_activity(int slot);
  void propose_into(int slot, consensus::Value v);
  [[nodiscard]] consensus::Value take_queued();
  void propose_next();
  void drain_applied();

  Config cfg_;
  const EcfdOracle* fd_;
  /// Instances of slots [base_, base_ + window_.size()); null where this
  /// replica has seen nothing yet.
  std::deque<std::unique_ptr<Instance>> window_;
  /// Freed instances, destroyed at the next frame or timer: a slot is
  /// freed from inside its own decide callback.
  std::vector<std::unique_ptr<Instance>> retired_;
  int base_{0};
  int live_{0};
  int head_{-1};
  bool started_{false};
  std::deque<consensus::Value> queue_;  ///< submitted, not in any slot
  int in_flight_{0};  ///< own commands proposed into undecided slots
  std::vector<Entry> log_;
  int next_proposal_slot_{0};
  int applied_upto_{0};
  int compacted_upto_{0};
  ApplyFn apply_;
};

}  // namespace ecfd::core
