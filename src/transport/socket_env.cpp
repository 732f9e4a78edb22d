#include "transport/socket_env.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "wire/codec.hpp"

namespace ecfd::transport {

bool SocketEnv::wire_init(std::string* error) {
  (void)error;  // plain sockets: nothing beyond the base's bind can fail
  return true;
}

void SocketEnv::wire_flush(std::vector<Datagram> out) {
  std::size_t done = 0;
  std::vector<mmsghdr> msgs(kSendBatch);
  std::vector<iovec> iovs(kSendBatch);
  while (done < out.size()) {
    const std::size_t batch = std::min(kSendBatch, out.size() - done);
    if (batch >= 2 && use_mmsg_) {
      std::memset(msgs.data(), 0, batch * sizeof(mmsghdr));
      for (std::size_t i = 0; i < batch; ++i) {
        Datagram& d = out[done + i];
        auto& sa = d.addr.empty() ? peer_sockaddr(d.dst) : d.addr;
        iovs[i].iov_base = d.bytes.data();
        iovs[i].iov_len = d.bytes.size();
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
        msgs[i].msg_hdr.msg_name = const_cast<std::uint8_t*>(sa.data());
        msgs[i].msg_hdr.msg_namelen = static_cast<socklen_t>(sa.size());
      }
      const int sent =
          ::sendmmsg(sock_fd(), msgs.data(), static_cast<unsigned int>(batch),
                     0);
      if (sent > 0) {
        for (int i = 0; i < sent; ++i) {
          note_dgram_sent(out[done + static_cast<std::size_t>(i)], true);
        }
        send_batch_hist().observe(sent);
        done += static_cast<std::size_t>(sent);
        continue;
      }
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        use_mmsg_ = false;  // kernel without sendmmsg: per-datagram path
        continue;
      }
      // UDP is lossy by contract; ENOBUFS etc. just drop the head datagram
      // (matching the old per-datagram behaviour) and keep making progress.
      note_send_error();
      ++done;
      continue;
    }
    const Datagram& d = out[done];
    const auto& sa = d.addr.empty() ? peer_sockaddr(d.dst) : d.addr;
    const auto sent =
        ::sendto(sock_fd(), d.bytes.data(), d.bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(sa.data()),
                 static_cast<socklen_t>(sa.size()));
    if (sent < 0) {
      note_send_error();
    } else {
      note_dgram_sent(d, false);
      send_batch_hist().observe(1);
    }
    ++done;
  }
}

void SocketEnv::drain_socket() {
  while (use_mmsg_) {
    if (recv_bufs_.size() < kRecvBatch * wire::kMaxFrameBytes) {
      recv_bufs_.resize(kRecvBatch * wire::kMaxFrameBytes);
    }
    std::vector<mmsghdr> msgs(kRecvBatch);
    std::vector<iovec> iovs(kRecvBatch);
    std::vector<sockaddr_in> froms(kRecvBatch);
    std::memset(msgs.data(), 0, kRecvBatch * sizeof(mmsghdr));
    std::memset(froms.data(), 0, kRecvBatch * sizeof(sockaddr_in));
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      iovs[i].iov_base = recv_bufs_.data() + i * wire::kMaxFrameBytes;
      iovs[i].iov_len = wire::kMaxFrameBytes;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(froms[i]);
    }
    const int got = ::recvmmsg(sock_fd(), msgs.data(),
                               static_cast<unsigned int>(kRecvBatch), 0,
                               nullptr);
    if (got < 0) {
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        use_mmsg_ = false;  // kernel without recvmmsg: per-datagram path
        break;
      }
      // EAGAIN/EWOULDBLOCK: drained. Anything else on UDP is transient;
      // either way this read pass is over.
      return;
    }
    recv_batch_hist().observe(got);
    for (int i = 0; i < got; ++i) {
      on_datagram(recv_bufs_.data() +
                      static_cast<std::size_t>(i) * wire::kMaxFrameBytes,
                  msgs[i].msg_len,
                  pack_external_token(ntohl(froms[i].sin_addr.s_addr),
                                      ntohs(froms[i].sin_port)));
    }
    if (static_cast<std::size_t>(got) < kRecvBatch) return;  // drained
  }
  std::uint8_t buf[wire::kMaxFrameBytes];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const auto got = ::recvfrom(sock_fd(), buf, sizeof(buf), 0,
                                reinterpret_cast<sockaddr*>(&from), &from_len);
    if (got < 0) return;  // EAGAIN: drained (anything else: pass is over)
    recv_batch_hist().observe(1);
    on_datagram(buf, static_cast<std::size_t>(got),
                pack_external_token(ntohl(from.sin_addr.s_addr),
                                    ntohs(from.sin_port)));
  }
}

void SocketEnv::wire_wait(DurUs max_wait) {
  pollfd pfd{};
  pfd.fd = sock_fd();
  pfd.events = POLLIN;
  // +1ms so a timer due mid-millisecond is not busy-polled.
  const int timeout_ms = static_cast<int>(max_wait / 1000 + 1);
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
}

}  // namespace ecfd::transport
