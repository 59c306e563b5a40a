// NodeRuntime: one node's execution context on the socket backend. The
// protocol code (Process subclasses, coroutines, timers) was written for the
// single-threaded deterministic simulator; on real sockets every node keeps
// exactly that machinery — a private sim::Simulator whose event queue holds
// coroutine resumptions and timer callbacks — behind one node lock:
//
//   * SimTime unit == 1 microsecond, pumped to "microseconds since the Unix
//     epoch" before anything runs, so timers (lease expiry, TREAS retries,
//     Paxos backoff) fire at real deadlines, and lease expiries computed on
//     a server compare against a client's clock — on one host exactly,
//     across hosts up to clock skew (which the lease ε budgets for).
//   * One epoll loop thread (start()/stop(); TcpTransport runs it) owns the
//     node's sockets and timers: it sleeps on the watched fds plus a
//     timerfd armed for the next due event and runs every ready handler
//     and due event in one locked turn.
//   * run(fn) is the way in for every other thread: it takes the lock on
//     the calling thread, makes this node's simulator the thread's
//     Simulator::current(), pumps, runs fn inline and drains what fn
//     posted. Starting an op therefore costs no hand-off: its first round
//     goes to the sockets from the caller's thread. sync() then parks the
//     caller until a turn leaves its future ready.
#pragma once

#include "common/types.hpp"
#include "sim/coro.hpp"
#include "sim/simulator.hpp"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ares::net {

class NodeRuntime {
 public:
  /// Default patience of sync(): generous against scheduler noise,
  /// finite so a dead quorum fails the operation instead of hanging the
  /// harness forever.
  static constexpr SimDuration kDefaultOpTimeoutUs = 30'000'000;

  explicit NodeRuntime(std::uint64_t seed = 1);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Microseconds since the Unix epoch (CLOCK_REALTIME) — the shared time
  /// base every node's virtual clock tracks.
  [[nodiscard]] static SimTime unix_now_us();

  /// Execute `fn` on this node: node lock held, Simulator::current() set,
  /// virtual clock pumped to wall time before and resumptions drained
  /// after. Everything that touches a Process of this node goes through
  /// here — including *starting* operations, because a Future-returning
  /// coroutine runs eagerly (it sends its first round from the calling
  /// thread).
  void run(const std::function<void()>& fn);

  /// Like run() without pumping the clock or draining: transport
  /// bookkeeping that must not fire protocol timers (e.g. unregistering a
  /// Process from its destructor). Runs `fn` inline if the calling thread
  /// already holds the node lock.
  void locked(const std::function<void()>& fn);

  /// Whether the calling thread is inside this node's run()/locked() or a
  /// loop turn (i.e. holds the node lock).
  [[nodiscard]] bool in_node() const;

  /// After an aborted wait unwinds, how long sync() waits for the typed
  /// result to materialize before throwing. Generous: the abort itself is
  /// synchronous, the grace only covers lock contention on the node.
  static constexpr SimDuration kAbortGraceUs = 2'000'000;

  /// Start the operation `mk()` returns under the node lock, then block
  /// until it completes: the blocking-call surface of the socket backend.
  /// If `timeout_us` passes first, `on_deadline` (if set) runs on the node
  /// — typically Process::abort_pending_waits, which makes the operation
  /// unwind to a typed OpStatus — and only if the future is still not
  /// ready after kAbortGraceUs does sync throw.
  template <typename MakeOp>
  auto sync(MakeOp&& mk, SimDuration timeout_us = kDefaultOpTimeoutUs,
            const std::function<void()>& on_deadline = {}) {
    std::invoke_result_t<MakeOp&> f;
    run([&] { f = mk(); });
    const std::function<bool()> ready = [&f] { return f.ready(); };
    if (!wait_until(ready, timeout_us) && on_deadline) {
      run(on_deadline);
      (void)wait_until(ready, kAbortGraceUs);
    }
    if (!f.ready()) {
      throw std::runtime_error("net::NodeRuntime: operation timed out");
    }
    return f.get();
  }

  // --- the event loop --------------------------------------------------------

  /// Spawn / join the loop thread (idempotent; the destructor stops it).
  void start();
  void stop();

  /// Readiness callback for a watched fd; runs on the loop thread with the
  /// node lock held. `events` is the epoll mask (EPOLLIN, EPOLLOUT, ...).
  using IoHandler = std::function<void(std::uint32_t events)>;

  /// Watch `fd` edge-triggered for input, output and hang-up. Caller holds
  /// the node lock. Returns the id unwatch() takes.
  std::uint64_t watch(int fd, IoHandler on_ready);
  void unwatch(std::uint64_t id, int fd);

 private:
  void loop();

  /// Block until `pred()` holds (checked under the node lock after every
  /// turn) or `timeout_us` of wall time elapses; returns whether it held.
  bool wait_until(const std::function<bool()>& pred, SimDuration timeout_us);

  /// Advance the virtual clock to wall time (never backwards, though
  /// CLOCK_REALTIME may step back), firing every due event. Caller holds
  /// mu_ with Simulator::current() == &sim_.
  void pump_locked();

  /// End of a locked section: arm the timerfd for the earliest pending
  /// event; true if some waiter's predicate now holds (notify cv_).
  bool settle_locked();

  /// Program the timerfd to fire at `at` (simulator µs).
  void arm_timer(SimTime at);

  sim::Simulator sim_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<const std::function<bool()>*> waiters_;

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  SimTime armed_at_;  // timerfd's target; kNever when disarmed
  std::uint64_t next_watch_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<IoHandler>> handlers_;
  std::thread loop_;
  bool loop_stop_ = false;
};

}  // namespace ares::net
