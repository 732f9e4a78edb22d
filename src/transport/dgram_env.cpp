#include "transport/dgram_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "wire/codec.hpp"
#include "wire/envelope.hpp"

namespace ecfd::transport {

namespace {

/// Builds an IPv4 sockaddr for a peer row; stored type-erased so the
/// header stays free of <netinet/in.h>.
std::vector<std::uint8_t> make_sockaddr(const PeerAddr& peer) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &sa.sin_addr) != 1) {
    return {};  // caught in open(): the transport is numeric-IPv4 only
  }
  std::vector<std::uint8_t> out(sizeof(sa));
  std::memcpy(out.data(), &sa, sizeof(sa));
  return out;
}

sockaddr_in sockaddr_of(DgramEnv::ExternalToken token) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(static_cast<std::uint32_t>(token >> 16));
  sa.sin_port = htons(static_cast<std::uint16_t>(token & 0xffff));
  return sa;
}

}  // namespace

DgramEnv::DgramEnv(Options opts)
    : Host(opts.self, static_cast<int>(opts.peers.size()),
           Rng(opts.seed * 0x9E3779B97F4A7C15ULL +
               static_cast<std::uint64_t>(opts.self) + 1)),
      opts_(std::move(opts)),
      epoch_(std::chrono::steady_clock::now()),
      coalescer_(n(), opts_.net.coalesce) {
  assert(!opts_.peers.empty());
  assert(self() >= 0 && self() < n());
  // Register-once, bump-direct: the wire paths below never build counter
  // name strings.
  peer_cells_.resize(static_cast<std::size_t>(n()));
  for (ProcessId p = 0; p < n(); ++p) {
    const std::string suffix = ".p" + std::to_string(p);
    auto& cells = peer_cells_[static_cast<std::size_t>(p)];
    cells.sent = metrics_.counter("net.sent" + suffix);
    cells.dgram_sent = metrics_.counter("net.dgram_sent" + suffix);
    cells.sent_batched = metrics_.counter("net.sent_batched" + suffix);
    cells.sent_single = metrics_.counter("net.sent_single" + suffix);
    cells.recv = metrics_.counter("net.recv" + suffix);
  }
  send_batch_hist_ = metrics_.histogram("net.send_batch");
  recv_batch_hist_ = metrics_.histogram("net.recv_batch");
  coalesce_hist_ = metrics_.histogram("net.coalesce_frames");
  envelope_sent_ = metrics_.counter("net.envelope_sent");
  envelope_recv_ = metrics_.counter("net.envelope_recv");
}

DgramEnv::~DgramEnv() {
  if (fd_ >= 0) ::close(fd_);
}

void DgramEnv::attach_recorder(obs::Recorder* rec) {
  assert(!started() && "attach_recorder before start()");
  if (rec == nullptr) {
    bind_obs(nullptr, -1);
    return;
  }
  rec->meta().source = "socket";
  rec->meta().clock = obs::ClockDomain::kMonotonic;
  rec->meta().wall_epoch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      now();
  rec->bind_hosts(n());
  bind_obs(rec, self());
}

bool DgramEnv::open(std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error) *error = reason;
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    return false;
  };

  peer_sockaddrs_.clear();
  for (const auto& peer : opts_.peers) {
    auto sa = make_sockaddr(peer);
    if (sa.empty()) {
      return fail("bad peer host (numeric IPv4 required): " + peer.host);
    }
    peer_sockaddrs_.push_back(std::move(sa));
  }

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return fail(std::string("socket(): ") + std::strerror(errno));

  // Deliberately no SO_REUSEADDR: UDP has no TIME_WAIT to work around, and
  // on Linux the option would let a second process bind the same unicast
  // port and silently steal datagrams. A duplicate --id must fail loudly.
  sockaddr_in self_sa{};
  std::memcpy(&self_sa,
              peer_sockaddrs_[static_cast<std::size_t>(opts_.self)].data(),
              sizeof(self_sa));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&self_sa),
             sizeof(self_sa)) != 0) {
    return fail("bind(" +
                opts_.peers[static_cast<std::size_t>(opts_.self)].host + ":" +
                std::to_string(
                    opts_.peers[static_cast<std::size_t>(opts_.self)].port) +
                "): " + std::strerror(errno));
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return fail(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }

  std::string backend_error;
  if (!wire_init(&backend_error)) {
    return fail(std::string(backend_name()) +
                " backend init: " + backend_error);
  }
  return true;
}

void DgramEnv::count_message(const Message& m, bool dropped) {
  const char* suffix = dropped ? ".dropped" : ".sent";
  if (m.label == nullptr || m.label[0] == '\0') {
    metrics_.add(message_counter_key(m) + suffix);
    return;
  }
  LabelCells& cells = label_cells_[m.label];
  obs::MetricsRegistry::Cell*& cell = dropped ? cells.dropped : cells.sent;
  if (cell == nullptr) cell = metrics_.counter(message_counter_key(m) + suffix);
  cell->fetch_add(1, std::memory_order_relaxed);
}

void DgramEnv::send(ProcessId dst, Message m) {
  assert(dst >= 0 && dst < n());
  m.src = self();
  m.dst = dst;
  record(EventType::kSend, dst, m.protocol);

  if (dst == self()) {
    // Self-sends never touch the wire (mirrors the other backends'
    // minimal-delay local delivery).
    set_timer(0, [this, m = std::move(m)]() { deliver(m); });
    return;
  }

  // While a recorder is attached, every outgoing frame carries a per-sender
  // causal sequence number (wire flag kFlagCausalSeq), and the matching
  // kWireSend event lets ecfd_trace stitch true happens-before send->deliver
  // edges across process traces. Untraced runs emit legacy frames.
  const std::uint64_t causal_seq = recording() ? ++wire_seq_ : 0;
  std::vector<std::uint8_t> frame;
  std::string error;
  if (!wire::encode_message(m, &frame, &error, causal_seq)) {
    metrics_.add("net.encode_error");
    return;
  }

  // Injected chaos: drop, or hold the encoded frame back for a while.
  if (opts_.loss > 0.0 && rng().chance(opts_.loss)) {
    count_message(m, /*dropped=*/true);
    record(EventType::kDrop, dst, m.protocol);
    return;
  }
  count_message(m, /*dropped=*/false);
  if (causal_seq != 0) {
    record(EventType::kWireSend, dst, static_cast<std::int64_t>(causal_seq));
  }
  const DurUs hold =
      opts_.max_extra_delay > 0
          ? rng().range(opts_.min_extra_delay, opts_.max_extra_delay)
          : 0;
  if (hold > 0) {
    set_timer(hold, [this, dst, frame = std::move(frame)]() mutable {
      transmit(dst, std::move(frame));
    });
    return;
  }
  transmit(dst, std::move(frame));
}

void DgramEnv::transmit(ProcessId dst, std::vector<std::uint8_t> frame) {
  // The coalescer holds the frame until the end of this loop iteration;
  // batches that hit the size caps pack right away and wait in out_ for
  // the same flush_sends().
  std::vector<Coalescer::Packed> ready;
  coalescer_.add(dst, std::move(frame), &ready);
  for (auto& p : ready) {
    out_.push_back(Datagram{p.dst, static_cast<std::uint32_t>(p.frames),
                            {}, std::move(p.bytes)});
  }
}

void DgramEnv::send_external(ExternalToken token, Message m) {
  m.src = self();
  m.dst = kNoProcess;
  std::vector<std::uint8_t> frame;
  std::string error;
  if (!wire::encode_message(m, &frame, &error)) {
    metrics_.add("net.encode_error");
    return;
  }
  metrics_.add("net.sent_external");
  const sockaddr_in sa = sockaddr_of(token);
  std::vector<std::uint8_t> addr(sizeof(sa));
  std::memcpy(addr.data(), &sa, sizeof(sa));
  ext_out_.push_back(Datagram{kNoProcess, 1, std::move(addr), std::move(frame)});
}

void DgramEnv::flush_sends() {
  // Size-triggered packs queued earlier in the iteration go first so the
  // per-peer FIFO survives coalescing.
  std::vector<Coalescer::Packed> packed;
  coalescer_.flush(&packed);
  if (out_.empty() && packed.empty() && ext_out_.empty()) return;

  std::vector<Datagram> wire_out;
  wire_out.reserve(out_.size() + packed.size() + ext_out_.size());
  for (auto& d : out_) wire_out.push_back(std::move(d));
  out_.clear();
  for (auto& p : packed) {
    wire_out.push_back(Datagram{p.dst, static_cast<std::uint32_t>(p.frames),
                                {}, std::move(p.bytes)});
  }
  for (auto& d : ext_out_) wire_out.push_back(std::move(d));
  ext_out_.clear();
  wire_flush(std::move(wire_out));
}

void DgramEnv::note_dgram_sent(const Datagram& d, bool batched) {
  coalesce_hist_->observe(static_cast<std::int64_t>(d.frames));
  if (d.frames >= 2) envelope_sent_->fetch_add(1, std::memory_order_relaxed);
  if (d.dst < 0) return;  // external: counted at queue time
  auto& cells = peer_cells_[static_cast<std::size_t>(d.dst)];
  cells.sent->fetch_add(d.frames, std::memory_order_relaxed);
  cells.dgram_sent->fetch_add(1, std::memory_order_relaxed);
  (batched ? cells.sent_batched : cells.sent_single)
      ->fetch_add(1, std::memory_order_relaxed);
}

TimerId DgramEnv::set_timer(DurUs delay, std::function<void()> fn) {
  const TimerId id = next_timer_++;
  if (delay < 0) delay = 0;
  timers_.push(Timer{now() + delay, next_seq_++, id, std::move(fn)});
  record(EventType::kTimerSet, -1, static_cast<std::int64_t>(id));
  return id;
}

void DgramEnv::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  cancelled_.insert(id);
  record(EventType::kTimerCancel, -1, static_cast<std::int64_t>(id));
}

TimeUs DgramEnv::next_timer_at() const {
  return timers_.empty() ? kTimeNever : timers_.top().when;
}

void DgramEnv::fire_due_timers() {
  // Drain against a snapshot of the clock: a timer armed during the drain
  // (notably a zero-delay re-arming tick) lands strictly after `cutoff`
  // and fires on the NEXT loop iteration, so a self-rearming timer can
  // keep the loop busy but can never wedge it.
  const TimeUs cutoff = now();
  while (!timers_.empty() && timers_.top().when <= cutoff && !stopping_) {
    Timer t = timers_.top();
    timers_.pop();
    const auto cancelled = cancelled_.find(t.id);
    if (cancelled != cancelled_.end()) {
      cancelled_.erase(cancelled);
      continue;
    }
    t.fn();
  }
}

void DgramEnv::deliver(const Message& m) {
  if (!dispatch(m)) metrics_.add("net.unknown_protocol");
}

void DgramEnv::handle_frame(const std::uint8_t* data, std::size_t len,
                            ExternalToken from_token) {
  std::string error;
  std::uint64_t causal_seq = 0;
  auto decoded = wire::decode_message(data, len, &error, &causal_seq);
  if (!decoded) {
    metrics_.add("net.decode_error");
    return;
  }
  // src = kNoProcess marks a frame from outside the universe (a kv
  // client); route it to the external handler with the sender's address
  // token so a reply can find its way back.
  if (decoded->dst == self() && decoded->src < 0 && external_) {
    metrics_.add("net.recv_external");
    record(EventType::kDeliver, kNoProcess, decoded->protocol);
    external_(from_token, *decoded);
    return;
  }
  // A frame for another node (misconfigured peer table, stale sender)
  // is rejected here — protocols only ever see their own traffic.
  if (decoded->dst != self() || decoded->src < 0 || decoded->src >= n()) {
    metrics_.add("net.misaddressed");
    return;
  }
  peer_cells_[static_cast<std::size_t>(decoded->src)].recv->fetch_add(
      1, std::memory_order_relaxed);
  if (causal_seq != 0) {
    record(EventType::kWireDeliver, decoded->src,
           static_cast<std::int64_t>(causal_seq));
  }
  deliver(*decoded);
}

void DgramEnv::on_datagram(const std::uint8_t* data, std::size_t len,
                           ExternalToken from_token) {
  if (wire::is_envelope(data, len)) {
    std::string error;
    const auto frames = wire::decode_envelope(data, len, &error);
    if (!frames) {
      // A corrupt envelope rejects whole: its framing cannot be trusted,
      // so none of the inner frames can be salvaged.
      metrics_.add("net.envelope_decode_error");
      return;
    }
    envelope_recv_->fetch_add(1, std::memory_order_relaxed);
    // Inner frames carry their own CRC, so one corrupt frame rejects
    // individually (inside handle_frame) while its siblings deliver.
    for (const auto& f : *frames) handle_frame(f.data, f.len, from_token);
    return;
  }
  handle_frame(data, len, from_token);
}

void DgramEnv::poll_once(DurUs max_wait) {
  fire_due_timers();
  flush_sends();  // everything queued by timers/protocol starts
  if (stopping_) return;

  DurUs wait = max_wait;
  const TimeUs next = next_timer_at();
  if (next != kTimeNever) {
    const DurUs until_timer = next - now();
    if (until_timer < wait) wait = until_timer;
  }
  if (wait < 0) wait = 0;

  wire_wait(wait);
  fire_due_timers();
  flush_sends();  // replies triggered by received datagrams go out now
}

void DgramEnv::run_for(DurUs dur) {
  stopping_ = false;
  const TimeUs end = now() + dur;
  while (!stopping_ && now() < end) poll_once(end - now());
}

bool DgramEnv::run_until(const std::function<bool()>& pred, DurUs deadline) {
  stopping_ = false;
  const TimeUs end = now() + deadline;
  while (!stopping_ && !pred() && now() < end) poll_once(msec(20));
  return pred();
}

std::optional<Backend> parse_backend(const std::string& s) {
  if (s == "poll") return Backend::kPoll;
  if (s == "uring") return Backend::kUring;
  return std::nullopt;
}

const char* backend_name(Backend b) {
  return b == Backend::kUring ? "uring" : "poll";
}

}  // namespace ecfd::transport
