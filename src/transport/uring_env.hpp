#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <string>
#include <vector>

#include "transport/dgram_env.hpp"
#include "transport/uring_raw.hpp"

/// \file uring_env.hpp
/// The io_uring real-network backend — the high-throughput DgramEnv.
///
/// Same socket, same wire format, same event-loop contract as the poll(2)
/// backend (socket_env.hpp); what changes is how bytes cross the kernel
/// boundary:
///
///  * Receive: one multishot IORING_OP_RECVMSG stays armed on the socket.
///    The kernel picks a buffer from a registered provided-buffer ring
///    (IORING_REGISTER_PBUF_RING) per datagram and posts a CQE — in the
///    steady state datagrams arrive with ZERO receive syscalls; buffers
///    are recycled back onto the ring as each CQE is consumed.
///  * Send: every datagram of a tick becomes an IORING_OP_SENDMSG SQE in
///    a slot pool (buffers pinned until their CQE), and ONE
///    io_uring_enter(2) submits the whole batch — where the poll backend
///    pays ceil(k / 64) sendmmsg calls, this pays one regardless
///    of k. Slots deliberately carry no IOSQE_IO_LINK: linking would make
///    one EPERM cancel the rest of the tick's traffic.
///  * Wait: io_uring_enter(GETEVENTS | EXT_ARG) with a nanosecond
///    timespec replaces poll(2)'s millisecond timeout.
///
/// Construction never fails; wire_init() does (kernel without io_uring,
/// seccomp, ECFD_URING_DISABLE=1 in the environment) and make_net_env()
/// then degrades to the poll backend, so `--backend uring` is a request,
/// not a requirement.

namespace ecfd::transport {

class UringEnv final : public DgramEnv {
 public:
  explicit UringEnv(Options opts) : DgramEnv(std::move(opts)) {}
  ~UringEnv() override;

  [[nodiscard]] const char* backend_name() const override { return "uring"; }

 protected:
  bool wire_init(std::string* error) override;
  void wire_flush(std::vector<Datagram> out) override;
  void wire_wait(DurUs max_wait) override;

 private:
  /// One in-flight sendmsg: everything the kernel reads asynchronously
  /// (msghdr, iovec, sockaddr, payload) pinned until the CQE lands.
  struct SendSlot {
    msghdr msg{};
    iovec iov{};
    sockaddr_in addr{};
    std::vector<std::uint8_t> bytes;
    ProcessId dst{kNoProcess};
    std::uint32_t frames{1};
    bool batched{false};
  };

  bool setup_buf_ring(std::string* error);
  bool arm_recv(std::string* error);
  /// Returns a free send-slot index, reaping completions (blocking if
  /// needed) when the pool is exhausted.
  std::size_t acquire_slot();
  io_uring_sqe* get_sqe_blocking();
  /// Drains the CQ: recv CQEs route through on_datagram() (and re-arm the
  /// multishot when the kernel retires it), send CQEs release their slot.
  void process_cqes();
  void handle_recv_cqe(const io_uring_cqe& cqe);
  void recycle_buffer(std::uint16_t bid);

  [[nodiscard]] std::uint8_t* recv_buf(std::uint16_t bid) {
    return recv_bufs_.data() + static_cast<std::size_t>(bid) * buf_size_;
  }

  uring::Ring ring_;

  // Provided-buffer ring (group 0) for the multishot receive.
  io_uring_buf_ring* buf_ring_{nullptr};
  std::size_t buf_ring_bytes_{0};
  std::uint16_t buf_ring_tail_{0};
  std::size_t buf_size_{0};      ///< recvmsg_out header + name + payload
  std::vector<std::uint8_t> recv_bufs_;
  msghdr recv_template_{};       ///< pinned while the multishot is armed
  bool recv_armed_{false};

  std::vector<SendSlot> slots_;
  std::vector<std::size_t> free_slots_;
  std::size_t inflight_sends_{0};
};

}  // namespace ecfd::transport
