#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"

/// \file coalescer.hpp
/// Per-peer tick coalescing: the queue between a protocol's send() calls
/// and the wire. Frames queued for the same peer within one event-loop
/// iteration leave as ONE batch-envelope datagram (wire/envelope.hpp)
/// instead of k datagrams — the transport-layer completion of the paper's
/// §4 piggybacking argument. Both real-network backends (poll(2) SocketEnv
/// and io_uring UringEnv) share this queue, so the ablation in
/// bench/bench_net.cpp compares backends with coalescing held constant.
///
/// Flush discipline:
///  * a full batch (kMaxFrames, or kMaxBytes of payload) packs immediately;
///  * otherwise frames wait for flush(), which the event loop calls at the
///    end of every iteration: all sends triggered by one timer tick
///    (heartbeat + suspected list + consensus + ...) coalesce, but nothing
///    is delayed past the iteration that produced it, so detection latency
///    is untouched (E11 pins this);
///  * a lone frame is passed through raw — the envelope wrapper is only
///    paid when it amortizes.

namespace ecfd::transport {

struct CoalescerOptions {
  bool enabled{true};
};

class Coalescer {
 public:
  /// Frames per envelope before an immediate pack.
  static constexpr std::size_t kMaxFrames = 64;
  /// Payload-byte budget per envelope before an immediate pack: under a
  /// 1500-byte MTU, so coalescing never introduces IP fragmentation.
  static constexpr std::size_t kMaxBytes = 1400;

  /// One ready-to-send datagram: either a raw single frame (frames == 1)
  /// or a batch envelope (frames >= 2).
  struct Packed {
    ProcessId dst{kNoProcess};
    std::size_t frames{1};
    std::vector<std::uint8_t> bytes;
  };

  Coalescer(int n, CoalescerOptions opts);

  /// Queues one encoded frame for \p dst. Batches that hit the size
  /// limits are packed into \p ready immediately; everything else waits
  /// for flush().
  void add(ProcessId dst, std::vector<std::uint8_t> frame,
           std::vector<Packed>* ready);

  /// Packs every non-empty peer queue into \p out.
  void flush(std::vector<Packed>* out);

 private:
  struct PeerQueue {
    std::vector<std::vector<std::uint8_t>> frames;
    std::size_t bytes{0};  ///< payload bytes queued (frames only)
  };

  void pack(PeerQueue& q, ProcessId dst, std::vector<Packed>* out);

  std::vector<PeerQueue> queues_;  ///< indexed by ProcessId
  std::size_t pending_{0};         ///< peers with a non-empty queue
  CoalescerOptions opts_;
};

}  // namespace ecfd::transport
