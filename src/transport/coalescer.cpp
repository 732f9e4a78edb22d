#include "transport/coalescer.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "wire/codec.hpp"
#include "wire/envelope.hpp"

namespace ecfd::transport {

// The envelope (header, per-frame length prefixes, CRC) must itself fit
// one datagram.
static_assert(Coalescer::kMaxFrames <= wire::kMaxFramesPerEnvelope);
static_assert(Coalescer::kMaxBytes + wire::kEnvelopeOverheadBytes +
                  Coalescer::kMaxFrames * wire::kEnvelopeFrameOverheadBytes <=
              wire::kMaxFrameBytes);

Coalescer::Coalescer(int n, CoalescerOptions opts)
    : queues_(static_cast<std::size_t>(n)), opts_(opts) {}

void Coalescer::pack(PeerQueue& q, ProcessId dst, std::vector<Packed>* out) {
  if (q.frames.empty()) return;
  Packed p;
  p.dst = dst;
  p.frames = q.frames.size();
  if (q.frames.size() == 1) {
    p.bytes = std::move(q.frames.front());
  } else {
    std::string error;
    if (!wire::encode_envelope(q.frames, &p.bytes, &error)) {
      // Cannot happen with the add() bounds below; degrade to singles
      // rather than dropping traffic if it ever does.
      for (auto& f : q.frames) {
        out->push_back(Packed{dst, 1, std::move(f)});
      }
      q.frames.clear();
      q.bytes = 0;
      --pending_;
      return;
    }
  }
  q.frames.clear();
  q.bytes = 0;
  --pending_;
  out->push_back(std::move(p));
}

void Coalescer::add(ProcessId dst, std::vector<std::uint8_t> frame,
                    std::vector<Packed>* ready) {
  assert(dst >= 0 && static_cast<std::size_t>(dst) < queues_.size());
  if (!opts_.enabled) {
    ready->push_back(Packed{dst, 1, std::move(frame)});
    return;
  }
  PeerQueue& q = queues_[static_cast<std::size_t>(dst)];
  // An oversized frame never fits an envelope: flush the queue and pass
  // it through raw, preserving per-peer FIFO order.
  if (frame.size() > kMaxBytes) {
    pack(q, dst, ready);
    ready->push_back(Packed{dst, 1, std::move(frame)});
    return;
  }
  if (!q.frames.empty() && q.bytes + frame.size() > kMaxBytes) {
    pack(q, dst, ready);
  }
  if (q.frames.empty()) ++pending_;
  q.bytes += frame.size();
  q.frames.push_back(std::move(frame));
  if (q.frames.size() >= kMaxFrames) pack(q, dst, ready);
}

void Coalescer::flush(std::vector<Packed>* out) {
  for (std::size_t p = 0; p < queues_.size() && pending_ > 0; ++p) {
    pack(queues_[p], static_cast<ProcessId>(p), out);
  }
}

}  // namespace ecfd::transport
