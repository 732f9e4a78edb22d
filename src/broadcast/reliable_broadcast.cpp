#include "broadcast/reliable_broadcast.hpp"

namespace ecfd::broadcast {

namespace {
constexpr int kRelay = 1;
}

ReliableBroadcast::ReliableBroadcast(Env& env, ProtocolId pid)
    : Protocol(env, pid), seen_(static_cast<std::size_t>(env.n())) {}

bool ReliableBroadcast::first_delivery(ProcessId origin, std::uint64_t seq) {
  // Seqs start at 1 per origin; an origin outside the universe cannot be a
  // real broadcast.
  if (origin < 0 || static_cast<std::size_t>(origin) >= seen_.size() ||
      seq == 0) {
    return false;
  }
  Seen& s = seen_[static_cast<std::size_t>(origin)];
  if (seq <= s.contiguous) return false;
  if (seq != s.contiguous + 1) return s.above.insert(seq).second;
  s.contiguous = seq;
  // Absorb the out-of-order seqs that are now contiguous.
  while (!s.above.empty() && *s.above.begin() == s.contiguous + 1) {
    s.above.erase(s.above.begin());
    ++s.contiguous;
  }
  return true;
}

std::size_t ReliableBroadcast::delivered_count() const {
  std::size_t total = 0;
  for (const Seen& s : seen_) total += s.contiguous + s.above.size();
  return total;
}

std::size_t ReliableBroadcast::out_of_order_count() const {
  std::size_t total = 0;
  for (const Seen& s : seen_) total += s.above.size();
  return total;
}

void ReliableBroadcast::diffuse_and_deliver(const RbEnvelope& envelope) {
  if (!first_delivery(envelope.origin, envelope.seq)) return;  // duplicate
  // Relay first (diffusion), then deliver to the application; the envelope
  // body is shared, so relaying costs no copies.
  env_.broadcast(
      Message::make(protocol_id(), kRelay, "rb.relay", envelope));
  if (deliver_) deliver_(envelope);
}

void ReliableBroadcast::on_message(const Message& m) {
  if (m.type != kRelay) return;
  diffuse_and_deliver(m.as<RbEnvelope>());
}

}  // namespace ecfd::broadcast
