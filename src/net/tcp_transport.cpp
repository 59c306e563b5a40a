#include "net/tcp_transport.hpp"

#include "net/wire.hpp"
#include "sim/process.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ares::net {

namespace {

/// Frames gathered into one sendmsg.
constexpr std::size_t kMaxIov = 64;

/// Free space kept ahead of each recv.
constexpr std::size_t kReadChunk = 64 * 1024;

constexpr int kStreamFlags = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool to_sockaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

int jittered_dial_delay_ms(int base_ms, int jitter_pct, std::uint64_t salt,
                           int attempt) {
  if (base_ms <= 0) return 0;
  if (jitter_pct <= 0) return base_ms;
  // SplitMix64 of (salt, attempt) -> u in [0, 1) -> factor in [1-j, 1+j].
  std::uint64_t z =
      salt + static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double j = static_cast<double>(jitter_pct) / 100.0;
  const double factor = 1.0 + j * (2.0 * u - 1.0);
  const int ms = static_cast<int>(static_cast<double>(base_ms) * factor);
  return ms < 1 ? 1 : ms;
}

// --- AddressBook -------------------------------------------------------------

void AddressBook::set(ProcessId id, Endpoint ep) {
  std::lock_guard<std::mutex> lk(mu_);
  map_[id] = std::move(ep);
}

std::optional<Endpoint> AddressBook::find(ProcessId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

// --- TcpTransport ------------------------------------------------------------

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book)
    : TcpTransport(rt, std::move(book), Options{}) {}

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
                           Options opt)
    : rt_(rt), book_(std::move(book)), opt_(std::move(opt)) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start() {
  if (opt_.listen) {
    listen_fd_ = ::socket(AF_INET, kStreamFlags, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("TcpTransport: socket() failed");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    if (!to_sockaddr(opt_.listen_host, opt_.listen_port, addr)) {
      throw std::runtime_error("TcpTransport: bad listen host");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error(std::string("TcpTransport: bind/listen: ") +
                               std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  rt_.locked([this] {
    running_ = true;
    if (listen_fd_ >= 0) {
      listen_watch_ =
          rt_.watch(listen_fd_, [this](std::uint32_t) { accept_ready(); });
    }
  });
  rt_.start();
}

void TcpTransport::stop() {
  bool was_running = false;
  rt_.locked([&] { std::swap(was_running, running_); });
  if (!was_running) return;
  rt_.stop();
  rt_.locked([this] {
    close_watched(listen_fd_, listen_watch_);
    const std::vector<ConnPtr> conns(conns_.begin(), conns_.end());
    for (const ConnPtr& c : conns) kill(c, /*replay=*/false);
  });
}

void TcpTransport::register_process(sim::Process& p) {
  rt_.locked([&] { procs_[p.id()] = &p; });
}

void TcpTransport::unregister_process(ProcessId id) {
  rt_.locked([&] { procs_.erase(id); });
}

void TcpTransport::send(ProcessId from, ProcessId to, sim::BodyPtr body) {
  if (!rt_.in_node()) {
    rt_.locked([&] { send(from, to, std::move(body)); });
    return;
  }
  // Same-node shortcut: a co-hosted destination is reached through the
  // node's own event queue.
  if (procs_.contains(to)) {
    rt_.simulator().post(
        [this, from, to, body] { local_deliver(from, to, body); });
    return;
  }
  if (!running_) return;  // crashed/stopped node: frames vanish
  // Fast-fail frames to suspected peers (modulo the detector's probe
  // allowance) — dropped here is indistinguishable from dropped by the
  // network, which the protocols already tolerate, and it keeps a dead
  // peer's queue from soaking up memory.
  if (detector_) {
    const SimTime now = NodeRuntime::unix_now_us();
    if (!detector_->allow_send(to, now)) {
      frames_fastfailed_.fetch_add(1, std::memory_order_relaxed);
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Arm the silence clock when the frame is handed to the transport, not
    // when a write succeeds: a peer whose connection died and never comes
    // back would otherwise be invisible to the timeout rule.
    detector_->note_send(to, now);
  }
  route(Frame{wire::encode_frame(from, to, *body), to, 0, std::nullopt});
}

void TcpTransport::atomic_broadcast(ProcessId from,
                                    std::vector<ProcessId> dests,
                                    sim::BodyPtr body) {
  // Approximation: per-destination sends (see sim::Transport — real
  // crash-stop networks have no all-or-none primitive).
  for (ProcessId d : dests) send(from, d, body);
}

std::size_t TcpTransport::queue_depth(ProcessId dest) const {
  std::size_t depth = 0;
  rt_.locked([&] {
    if (auto it = routes_.find(dest); it != routes_.end()) {
      depth = it->second->out.size();
    }
  });
  return depth;
}

void TcpTransport::route(Frame f) {
  auto it = routes_.find(f.to);
  const ConnPtr c = it != routes_.end() ? it->second : dial(f.to);
  if (!c) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  c->out.push_back(std::move(f));
  // Bounded queue: drop the OLDEST unwritten frame while over budget (see
  // Options); a partly written front must finish or the stream corrupts.
  while (opt_.max_queue_frames > 0 && c->out.size() > opt_.max_queue_frames) {
    c->out.erase(c->out.begin() + (c->out_off > 0 ? 1 : 0));
    frames_dropped_overflow_.fetch_add(1, std::memory_order_relaxed);
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  // Anything queued before this frame is already waiting for EPOLLOUT.
  if (!c->connecting && c->out.size() == 1) flush(c);
}

TcpTransport::ConnPtr TcpTransport::dial(ProcessId dest) {
  const SimTime now = NodeRuntime::unix_now_us();
  if (auto it = down_until_.find(dest);
      it != down_until_.end() && now < it->second) {
    return nullptr;
  }
  if (!book_ || !book_->find(dest)) return nullptr;  // only published ones

  auto c = std::make_shared<Conn>();
  c->dialed = dest;
  c->connecting = true;
  c->budget = known_peers_.contains(dest) ? opt_.redial_attempts
                                          : opt_.dial_attempts;
  // A suspected peer gets a single cheap attempt: spending the full dial
  // budget on a peer the detector already condemned would synchronize a
  // reconnect storm across clients.
  if (detector_ && detector_->suspected(dest, now)) c->budget = 1;
  routes_[dest] = c;
  conns_.insert(c);
  connect_attempt(c);
  return c->dead ? nullptr : c;
}

void TcpTransport::connect_attempt(const ConnPtr& c) {
  // Looked up per attempt: a restarted server may republish a new port.
  const std::optional<Endpoint> ep = book_->find(c->dialed);
  sockaddr_in addr{};
  const int fd = ::socket(AF_INET, kStreamFlags, 0);
  if (fd >= 0 && ep && to_sockaddr(ep->host, ep->port, addr) &&
      (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 ||
       errno == EINPROGRESS)) {
    // Completion (or refusal) arrives as EPOLLOUT — even for an immediate
    // loopback connect, so a dial never flushes re-entrantly.
    c->fd = fd;
    watch(c);
    return;
  }
  if (fd >= 0) ::close(fd);
  dial_failed(c);
}

void TcpTransport::dial_failed(const ConnPtr& c) {
  close_watched(c->fd, c->watch);
  if (++c->attempt < c->budget && running_) {
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(c->dialed) << 32) ^
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
    const int ms = jittered_dial_delay_ms(
        opt_.dial_retry_ms, opt_.dial_retry_jitter_pct, salt, c->attempt);
    rt_.simulator().schedule_after(
        static_cast<SimDuration>(ms) * 1'000,
        [this, w = std::weak_ptr<Conn>(c)] {
          // A stopped transport dropped every Conn, so `this` is only
          // touched while the connection (and thus the transport) lives.
          if (auto live = w.lock(); live && !live->dead) connect_attempt(live);
        });
    return;
  }
  const SimTime now = NodeRuntime::unix_now_us();
  if (detector_) detector_->note_dial_failure(c->dialed, now);
  down_until_[c->dialed] =
      now + static_cast<SimTime>(opt_.down_ms) * 1'000;
  kill(c, /*replay=*/false);
}

void TcpTransport::close_watched(int& fd, std::uint64_t watch) {
  if (fd < 0) return;
  rt_.unwatch(watch, fd);
  ::close(fd);
  fd = -1;
}

void TcpTransport::watch(const ConnPtr& c) {
  c->watch = rt_.watch(
      c->fd, [this, c](std::uint32_t events) { on_ready(c, events); });
}

void TcpTransport::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: backlog drained
    }
    set_nodelay(fd);
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    conns_.insert(c);
    watch(c);
  }
}

void TcpTransport::on_ready(const ConnPtr& c, std::uint32_t events) {
  if (c->dead) return;
  if (c->connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      dial_failed(c);
      return;
    }
    c->connecting = false;
    set_nodelay(c->fd);
    // A completed TCP handshake is affirmative evidence the peer is back
    // (its listener answered), so heal any standing suspicion now rather
    // than waiting for the first reply frame.
    if (detector_) {
      detector_->note_receive(c->dialed, NodeRuntime::unix_now_us());
    }
    known_peers_.insert(c->dialed);
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) read_ready(c);
  if (!c->dead && (events & EPOLLOUT) != 0) flush(c);
}

void TcpTransport::flush(const ConnPtr& c) {
  while (!c->out.empty()) {
    std::array<iovec, kMaxIov> iov{};
    std::size_t n = 0;
    for (Frame& f : c->out) {
      if (n == iov.size()) break;
      const std::size_t off = n == 0 ? c->out_off : 0;
      if (off == 0 && !f.fault) {
        f.fault = chaos_ ? chaos_->sock_fault(NodeRuntime::unix_now_us())
                         : ChaosController::SockFault::kNone;
      }
      if (off == 0 && f.fault != ChaosController::SockFault::kNone) break;
      iov[n++] = iovec{f.bytes.data() + off, f.bytes.size() - off};
    }
    if (n == 0) {
      // The front frame drew a socket fault.
      Frame& f = c->out.front();
      if (f.fault == ChaosController::SockFault::kTear) {
        // Torn frame: a truncated prefix hits the wire, then the
        // connection dies. The peer sees a short read mid-frame and drops
        // the connection; the frame is consumed (its bytes went out) —
        // liveness comes from the retransmission layer, not replay.
        (void)::send(c->fd, f.bytes.data(), f.bytes.size() / 2,
                     MSG_NOSIGNAL);
        c->out.pop_front();
        frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      // kReset: the connection dies before the frame hits the wire; the
      // frame is intact, so kill() replays it on a new connection.
      kill(c, /*replay=*/true);
      return;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = n;
    // MSG_NOSIGNAL: a peer that died mid-write yields EPIPE, not SIGPIPE.
    const ssize_t w = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT resumes
      kill(c, /*replay=*/true);
      return;
    }
    auto left = static_cast<std::size_t>(w);
    while (left > 0) {
      const std::size_t rest = c->out.front().bytes.size() - c->out_off;
      if (left < rest) {
        c->out_off += left;
        break;
      }
      left -= rest;
      c->out_off = 0;
      c->out.pop_front();
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TcpTransport::read_ready(const ConnPtr& c) {
  for (;;) {
    if (c->in.size() - c->in_len < kReadChunk) {
      c->in.resize(std::max(c->in.size() * 2, c->in_len + kReadChunk));
    }
    const std::size_t room = c->in.size() - c->in_len;
    const ssize_t n = ::recv(c->fd, c->in.data() + c->in_len, room, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      kill(c, /*replay=*/true);  // EOF or error
      return;
    }
    c->in_len += static_cast<std::size_t>(n);
    std::size_t p = 0;
    while (c->in_len - p >= 4) {
      const std::uint8_t* h = c->in.data() + p;
      const std::uint32_t len = static_cast<std::uint32_t>(h[0]) |
                                static_cast<std::uint32_t>(h[1]) << 8 |
                                static_cast<std::uint32_t>(h[2]) << 16 |
                                static_cast<std::uint32_t>(h[3]) << 24;
      if (len < wire::kFrameHeaderBytes - 4 || len > wire::kMaxFrameBytes) {
        kill(c, /*replay=*/true);  // corrupt peer: drop the connection
        return;
      }
      if (c->in_len - p - 4 < len) break;
      wire::DecodedFrame frame;
      try {
        frame = wire::decode_frame(h + 4, len);
      } catch (const wire::WireError&) {
        kill(c, /*replay=*/true);
        return;
      }
      p += 4 + len;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (detector_) {
        detector_->note_receive(frame.from, NodeRuntime::unix_now_us());
      }
      // Learn the route: this connection reaches frame.from.
      routes_.try_emplace(frame.from, c);
      known_peers_.insert(frame.from);
      local_deliver(frame.from, frame.to, frame.body);
      if (c->dead) return;
    }
    std::memmove(c->in.data(), c->in.data() + p, c->in_len - p);
    c->in_len -= p;
    // A short read emptied the socket; later bytes raise a new edge.
    if (static_cast<std::size_t>(n) < room) return;
  }
}

void TcpTransport::kill(ConnPtr c, bool replay) {
  if (c->dead) return;
  c->dead = true;
  close_watched(c->fd, c->watch);
  conns_.erase(c);
  std::erase_if(routes_, [&](const auto& r) { return r.second == c; });
  std::deque<Frame> out = std::move(c->out);
  // Reconnect-and-replay: the frame whose write failed (or whose connection
  // was reset before it) gets a bounded number of fresh connections.
  using Fault = ChaosController::SockFault;
  if (!out.empty() && (c->out_off > 0 || out.front().fault == Fault::kReset)) {
    Frame& f = out.front();
    f.fault.reset();
    if (replay && ++f.replays <= opt_.write_replay_attempts) {
      frames_replayed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      out.pop_front();
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!replay || !running_) {
    frames_dropped_.fetch_add(out.size(), std::memory_order_relaxed);
    return;
  }
  for (Frame& f : out) route(std::move(f));
}

void TcpTransport::local_deliver(ProcessId from, ProcessId to,
                                 const sim::BodyPtr& body) {
  auto it = procs_.find(to);
  if (it == procs_.end() || it->second->crashed()) return;  // gone process
  sim::Message msg;
  msg.from = from;
  msg.to = to;
  msg.sent_at = rt_.simulator().now();
  msg.body = body;
  it->second->deliver(msg);
}

}  // namespace ares::net
