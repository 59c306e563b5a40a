// TcpTransport: the sim::Transport backend over real sockets. The exact
// client/server code that runs on the deterministic simulator crosses a
// wire here as length-prefixed binary frames (see net/wire.hpp), with the
// asynchronous-network model preserved:
//
//   * Reliable-until-crash channels: frames to a reachable peer arrive in
//     order over one TCP connection; frames to a dead or unreachable peer
//     are silently dropped after a bounded dial effort — to the sender,
//     slow and dead stay indistinguishable, exactly the model the
//     protocols assume.
//   * One thread per node: every socket is non-blocking and owned by the
//     node's NodeRuntime loop, which accepts, dials (jittered retries are
//     simulator timers), reads, and delivers every complete frame of a
//     read in one locked turn. Whichever thread holds the node lock when a
//     frame is sent writes it straight to the socket; what the kernel will
//     not take waits in the connection's bounded queue, flushed with one
//     sendmsg per EPOLLOUT, so a dead server stalls only its own queue.
//   * Learned routes: listeners never dial. A server answers a client over
//     the connection the client dialed in on — the frame header's `from`
//     binds the connection to a peer id on first receipt. Only processes
//     published in the AddressBook (servers) are ever dialed.
//
// All transport state is guarded by the node lock; public entry points
// called from outside the node take it themselves.
//
// atomic_broadcast degrades to per-destination sends: real crash-stop
// networks have no all-or-none md-primitive, so protocols that *depend* on
// that guarantee (the Section-5 direct state transfer) are verified on the
// sim backend (see sim::Transport).
//
// Lifetime: stop() (idempotent, called by the destructor) stops the node's
// loop and closes every socket. Registered processes must stay alive until
// stop() returns.
#pragma once

#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/failure_detector.hpp"
#include "net/runtime.hpp"
#include "sim/transport.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ares::net {

/// The delay before dial retry `attempt` (1-based): `base_ms` scaled by a
/// deterministic factor in [1 - pct/100, 1 + pct/100] drawn from a
/// SplitMix64 hash of (salt, attempt), floored at 1 ms. Deterministic so
/// tests can assert the spread; different salts (per transport, per
/// destination) de-synchronize real senders.
[[nodiscard]] int jittered_dial_delay_ms(int base_ms, int jitter_pct,
                                         std::uint64_t salt, int attempt);

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Shared ProcessId -> Endpoint directory (the deployment's static
/// membership knowledge). Servers publish themselves after binding;
/// clients are absent — they are only ever reached over learned routes.
class AddressBook {
 public:
  void set(ProcessId id, Endpoint ep);
  [[nodiscard]] std::optional<Endpoint> find(ProcessId id) const;

 private:
  mutable std::mutex mu_;
  std::map<ProcessId, Endpoint> map_;
};

class TcpTransport final : public sim::Transport {
 public:
  struct Options {
    /// Servers listen; pure clients only dial.
    bool listen = false;
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0;  // 0 = ephemeral, see port()

    /// Dial budget for a destination never connected before (covers the
    /// startup race where a peer's listener is still coming up) vs. one
    /// whose established connection died (it probably crashed).
    int dial_attempts = 40;
    int redial_attempts = 2;
    int dial_retry_ms = 50;

    /// ± percent jitter on every dial retry delay (see
    /// jittered_dial_delay_ms): a fixed delay synchronizes every client's
    /// redials into a reconnect stampede after a server restart.
    int dial_retry_jitter_pct = 50;

    /// After a failed dial, drop frames to that destination without
    /// re-dialing for this long (a crashed server must not cost every
    /// subsequent frame a connect timeout).
    int down_ms = 2000;

    /// Per-connection pending-frame bound (frames the kernel has not yet
    /// taken, or queued while dialing). When a peer is dead or slow the
    /// queue would otherwise grow without limit (every retransmission,
    /// probe and op adds frames nobody drains); beyond this depth the
    /// OLDEST unwritten frame is dropped — stale rounds lose to the live
    /// operation's traffic, and the protocols tolerate loss by
    /// construction.
    std::size_t max_queue_frames = 512;

    /// After a write fails mid-frame (peer reset the connection), how many
    /// times the frame is re-offered to a freshly dialed connection before
    /// being dropped (reconnect-and-replay of unacked frames).
    int write_replay_attempts = 2;
  };

  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book);
  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
               Options opt);
  ~TcpTransport() override;

  /// Bind + listen (if configured) and start accepting. Must be called
  /// before the first frame can flow; processes may register earlier.
  void start();

  /// Stop the node's loop and close every socket. Idempotent.
  void stop();

  /// Actual listening port (after start() with listen=true).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Install a failure detector: send() fast-fails frames to suspected
  /// peers, receipts feed it back, and the dial path shrinks its budget
  /// for suspects. Call before start(); not thread-safe to swap while
  /// frames are flowing.
  void set_failure_detector(std::shared_ptr<FailureDetector> fd) {
    detector_ = std::move(fd);
  }
  [[nodiscard]] const std::shared_ptr<FailureDetector>& failure_detector()
      const {
    return detector_;
  }

  /// Install the deployment's shared fault script: every frame draws one
  /// sock_fault() verdict before its first byte is written (torn-frame /
  /// connection-reset injection). Call before start().
  void set_chaos(std::shared_ptr<ChaosController> chaos) {
    chaos_ = std::move(chaos);
  }

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_;
  }
  /// Subsets of frames_dropped(), by cause.
  [[nodiscard]] std::uint64_t frames_dropped_overflow() const {
    return frames_dropped_overflow_;
  }
  [[nodiscard]] std::uint64_t frames_fastfailed() const {
    return frames_fastfailed_;
  }
  /// Frames rewritten onto a freshly dialed connection after a write
  /// failure (reconnect-and-replay).
  [[nodiscard]] std::uint64_t frames_replayed() const {
    return frames_replayed_;
  }

  /// Pending frames on the route toward `dest` (0 if there is none).
  [[nodiscard]] std::size_t queue_depth(ProcessId dest) const;

  // --- sim::Transport --------------------------------------------------------
  void register_process(sim::Process& p) override;
  void unregister_process(ProcessId id) override;
  void send(ProcessId from, ProcessId to, sim::BodyPtr body) override;
  void atomic_broadcast(ProcessId from, std::vector<ProcessId> dests,
                        sim::BodyPtr body) override;

 private:
  struct Frame {
    std::vector<std::uint8_t> bytes;
    ProcessId to = kNoProcess;
    int replays = 0;  // times re-offered to a fresh connection
    std::optional<ChaosController::SockFault> fault;  // drawn at first write
  };

  /// One TCP connection — or, while dialing, the connection-to-be whose
  /// queue collects frames across connect attempts.
  struct Conn {
    int fd = -1;
    std::uint64_t watch = 0;
    ProcessId dialed = kNoProcess;  // kNoProcess: accepted
    int attempt = 0;  // failed connect attempts so far
    int budget = 0;
    bool connecting = false;
    bool dead = false;
    std::deque<Frame> out;  // front may be partly written
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;  // received bytes [0, in_len)
    std::size_t in_len = 0;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  void watch(const ConnPtr& c);
  void close_watched(int& fd, std::uint64_t watch);
  void accept_ready();
  void on_ready(const ConnPtr& c, std::uint32_t events);

  /// Queue `f` on the live route to f.to, dialing through the AddressBook
  /// if there is none; dropped when the destination is unreachable.
  void route(Frame f);
  ConnPtr dial(ProcessId dest);
  void connect_attempt(const ConnPtr& c);
  /// A connect attempt failed: retry after a jittered delay, or give up
  /// (suspect the peer, mark it down, drop the queue).
  void dial_failed(const ConnPtr& c);

  /// Write pending frames until the kernel pushes back.
  void flush(const ConnPtr& c);
  /// Read until the socket is drained, delivering every complete frame.
  void read_ready(const ConnPtr& c);

  /// The connection is gone: close it and re-route its queue if `replay`
  /// (the frame caught mid-write is re-offered at most
  /// write_replay_attempts times), else drop it.
  void kill(ConnPtr c, bool replay);

  /// Hand a message to the local process `to` (node lock held).
  void local_deliver(ProcessId from, ProcessId to, const sim::BodyPtr& body);

  NodeRuntime& rt_;
  std::shared_ptr<AddressBook> book_;
  Options opt_;

  bool running_ = false;
  int listen_fd_ = -1;
  std::uint64_t listen_watch_ = 0;
  std::uint16_t port_ = 0;

  std::unordered_map<ProcessId, sim::Process*> procs_;
  std::unordered_set<ConnPtr> conns_;
  std::unordered_map<ProcessId, ConnPtr> routes_;
  /// Destinations connected at least once get the short redial budget:
  /// 40 jittered first-dial attempts would delay suspicion by seconds.
  std::unordered_set<ProcessId> known_peers_;
  std::unordered_map<ProcessId, SimTime> down_until_;

  std::shared_ptr<FailureDetector> detector_;
  std::shared_ptr<ChaosController> chaos_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_dropped_overflow_{0};
  std::atomic<std::uint64_t> frames_fastfailed_{0};
  std::atomic<std::uint64_t> frames_replayed_{0};
};

}  // namespace ares::net
