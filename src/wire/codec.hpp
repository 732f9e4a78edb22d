#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"

/// \file codec.hpp
/// Versioned, endian-stable binary framing for Message — the wire format of
/// the real-network transport (transport/socket_env.hpp).
///
/// Design:
///  * one datagram = one frame; every multi-byte integer is little-endian
///    byte-by-byte (buffer.hpp), so frames are identical across hosts;
///  * a frame starts with magic + version, ends with a CRC-32 of everything
///    before it; decode rejects bad magic, unknown versions, truncation,
///    trailing garbage, length mismatches and checksum failures — it never
///    crashes or reads out of bounds on corrupt input (fuzzed in
///    tests/test_wire_codec.cpp);
///  * payloads are tagged with a PayloadKind drawn from a closed registry of
///    the body types the protocols in this library actually send (mirrors
///    the closed protocol-id registry in net/protocol_ids.hpp). Every typed
///    payload a protocol passes to Env::send must have a kind here — the
///    codec is the one place that knows how to flatten them;
///  * decoded labels are interned so Message::label keeps its
///    static-lifetime `const char*` contract.

namespace ecfd::wire {

/// Frame-format constants (bump kVersion on any layout change).
inline constexpr std::uint16_t kMagic = 0xECFD;
inline constexpr std::uint8_t kVersion = 1;

/// Frame flag bits (byte 3 of the header). A set bit changes the layout
/// right after the flags byte, so unknown bits are rejected — a v1 decoder
/// without this table cannot skip fields it does not know the width of.
/// kFlagCausalSeq inserts a u64 per-sender send sequence number used by
/// ecfd_trace to stitch true happens-before send->deliver edges across
/// process traces; transports only set it while a recorder is attached, so
/// untraced runs emit byte-identical legacy frames.
inline constexpr std::uint8_t kFlagCausalSeq = 0x01;
inline constexpr std::uint8_t kKnownFlags = kFlagCausalSeq;

/// Hard bounds enforced by decode: anything larger is rejected, so a
/// corrupt length field can never cause a huge allocation.
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024;
inline constexpr std::size_t kMaxLabelBytes = 64;
inline constexpr std::uint32_t kMaxElements = 1u << 16;  ///< vector/set caps
inline constexpr int kMaxUniverse = 1 << 16;             ///< max ProcessSet n

/// Wire tags for every payload type protocols send. Values are part of the
/// wire format — never renumber, only append.
enum class PayloadKind : std::uint16_t {
  kNone = 0,        ///< Message::make_empty
  kProcessSet = 1,  ///< c_to_p list, efficient_p leader list, w_to_s suspects
  kU64Vector = 2,   ///< stable_leader counters, omega_from_s count rows
  kRingBody = 3,    ///< fd/ring_fd QUERY/REPLY circulated state
  kEstimate = 4,    ///< consensus::EstimateBody
  kPropose = 5,     ///< consensus::ProposeBody
  kRoundOnly = 6,   ///< consensus::RoundOnly (announce/null/ack/nack)
  kDecide = 7,      ///< consensus::DecideBody (usually nested in kRbEnvelope)
  kRbEnvelope = 8,  ///< broadcast::RbEnvelope (carries a nested payload)
  kI64 = 9,         ///< plain std::int64_t (application values over RB)
  kKvRequest = 10,  ///< kv::Request (client -> server envelope)
  kKvReply = 11,    ///< kv::Reply (server -> client envelope)
  kKvBatch = 12,    ///< kv::BatchBody (replicated command batch, over RB)
  kKvSnapshot = 13, ///< kv::SnapshotChunk (store snapshot transfer)
  kLogSlot = 14,    ///< core::SlotFrame (carries a nested payload)
};

/// Encodes \p m into a self-contained frame. Returns false (and sets
/// \p error when non-null) if the payload type is not in the registry.
/// \p causal_seq, when nonzero, sets kFlagCausalSeq and embeds the
/// sender's send sequence number (sequences start at 1; 0 = untagged).
bool encode_message(const Message& m, std::vector<std::uint8_t>* out,
                    std::string* error = nullptr,
                    std::uint64_t causal_seq = 0);

/// Decodes one frame. Returns std::nullopt (and sets \p error when
/// non-null) on any malformed input; never throws, never reads out of
/// bounds, never allocates more than the bounds above allow. When
/// \p causal_seq is non-null it receives the frame's embedded causal
/// sequence number, or 0 if the frame carries none.
std::optional<Message> decode_message(const std::uint8_t* data,
                                      std::size_t len,
                                      std::string* error = nullptr,
                                      std::uint64_t* causal_seq = nullptr);

inline std::optional<Message> decode_message(
    const std::vector<std::uint8_t>& frame, std::string* error = nullptr,
    std::uint64_t* causal_seq = nullptr) {
  return decode_message(frame.data(), frame.size(), error, causal_seq);
}

}  // namespace ecfd::wire
