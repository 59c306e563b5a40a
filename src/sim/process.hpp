// Process: the actor base class. Handles registration with the network,
// crash state, RPC request/reply matching for client-side calls (point-to-
// point and shared-request broadcast), typed dispatch for server-side
// handlers, piggybacked configuration discovery (every reply carries the
// server's nextC for the addressed (config, object)), and per-process
// traffic/round accounting for the metrics layer.
#pragma once

#include "sim/coro.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"

#include <cassert>
#include <concepts>
#include <functional>
#include <memory>
#include <unordered_map>

namespace ares::sim {

/// Per-process traffic counters: everything this process sent/received plus
/// the number of quorum rounds (broadcast_collect fan-outs) it initiated.
/// Sampled before/after each workload operation to derive rounds/op,
/// messages/op and bytes/op — the paper-style operation cost, measured.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t metadata_bytes_sent = 0;
  std::uint64_t data_bytes_received = 0;
  std::uint64_t metadata_bytes_received = 0;
  std::uint64_t quorum_rounds = 0;
  /// Quorum rounds the protocol's fast paths proved unnecessary and elided
  /// locally (e.g. a write's post-put config check under fenced transfer
  /// reads) — the "work avoided" counter the OpResult metrics surface.
  std::uint64_t rounds_elided = 0;
  /// Request frames re-sent by the retransmission layer (socket backend
  /// only by default — see Process::RetransmitPolicy). Retransmits are also
  /// counted in messages_sent/bytes: they really cross the wire.
  std::uint64_t retransmits = 0;

  [[nodiscard]] std::uint64_t bytes_sent() const {
    return data_bytes_sent + metadata_bytes_sent;
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return data_bytes_received + metadata_bytes_received;
  }
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_sent() + bytes_received();
  }
};

/// Per-round retransmission with exponential backoff + deterministic
/// jitter. Off by default: the deterministic simulator models loss
/// explicitly and the fuzzer's schedule hashes must not change; the socket
/// backend turns it on per client (safe — PR 8's duplication windows prove
/// every message type idempotent, and PendingBroadcast dedups replies per
/// server anyway).
struct RetransmitPolicy {
  bool enabled = false;
  SimDuration initial_us = 50'000;
  double multiplier = 2.0;
  SimDuration max_us = 1'000'000;
  /// Delay is scaled by a deterministic factor in [1-jitter, 1+jitter]
  /// derived from (rpc id, attempt), so concurrent rounds de-synchronize
  /// without perturbing seeded-run reproducibility.
  double jitter = 0.2;
  int max_attempts = 6;
};

/// The backoff delay before retransmit attempt `attempt` (1-based) of the
/// round salted with `salt` (the rpc id): initial * multiplier^(attempt-1),
/// capped at max_us, scaled by the deterministic jitter factor.
[[nodiscard]] SimDuration retransmit_delay(const RetransmitPolicy& p,
                                           std::uint64_t salt, int attempt);

class Process {
 public:
  /// `net` is the transport this process communicates through — the
  /// deterministic simulator (sim::Network) or a socket backend
  /// (net::TcpTransport). Protocol code never observes which.
  Process(Simulator& sim, Transport& net, ProcessId id);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const Simulator& simulator() const { return sim_; }
  [[nodiscard]] Transport& transport() { return net_; }

  /// Entry point used by the network. Routes RPC replies to pending calls
  /// and everything else to handle().
  void deliver(const Message& msg);

  /// Called by the network when this process crash-stops.
  void mark_crashed() { crashed_ = true; }

  /// Fire-and-forget send.
  void send(ProcessId to, BodyPtr body) {
    account_sent(body);
    net_.send(id_, to, std::move(body));
  }

  /// Client-side call with callback on reply. The callback is never invoked
  /// after this process crashes. Requests to crashed servers simply never
  /// complete (asynchrony: slow and dead are indistinguishable).
  void call_async(ProcessId to, std::shared_ptr<RpcRequest> req,
                  std::function<void(BodyPtr)> on_reply);

  /// Broadcast one *shared, immutable* request to every destination under a
  /// single rpc id; `on_reply` fires once per replying server. One request
  /// allocation per quorum round instead of one per server — the fan-out
  /// building block for every phase whose payload does not vary per server.
  void call_broadcast(const std::vector<ProcessId>& dests,
                      std::shared_ptr<RpcRequest> req,
                      std::function<void(ProcessId, BodyPtr)> on_reply);

  /// Awaitable call. Completes when (if ever) the reply arrives.
  Future<BodyPtr> call(ProcessId to, std::shared_ptr<RpcRequest> req);

  /// Reply to a request: copies the rpc id into `reply`, stamps the
  /// piggybacked nextC hint for the addressed (config, object), and sends
  /// it back. (Public so per-configuration DapServer state machines, which
  /// are not Process subclasses, can respond through their hosting process.)
  template <typename Reply>
  void reply_to(const Message& req, std::shared_ptr<Reply> reply) {
    auto rpc = std::static_pointer_cast<const RpcRequest>(req.body);
    reply->rpc_id = rpc->rpc_id;
    reply->next_c = next_config_hint(rpc->config, rpc->object);
    send(req.from, std::move(reply));
  }

  /// Traffic/round counters of this process (workload metrics layer).
  [[nodiscard]] const TrafficStats& traffic() const { return traffic_; }

  // --- Typed deadlines / abortable quorum waits ------------------------------

  /// When enabled, every QuorumCollector wait started through
  /// broadcast_collect registers an abort hook with this process, making
  /// the wait failable from outside via abort_pending_waits(). Off by
  /// default: abort machinery must not exist on the deterministic backend
  /// unless a deadline layer asks for it.
  void set_abortable_waits(bool on) { abortable_waits_ = on; }
  [[nodiscard]] bool abortable_waits() const { return abortable_waits_; }

  /// Fail every registered pending quorum wait with `err` (typically an
  /// OpAborted). Each suspended co_await rethrows it, unwinding the
  /// operation's coroutine frames through their normal destructors — the
  /// only safe way to cancel eager self-owning frames. No-op when nothing
  /// is waiting.
  void abort_pending_waits(std::exception_ptr err);

  /// Abort-hook registry (used by QuorumCollector; exposed rather than
  /// friended so non-member collector templates can arm themselves).
  std::uint64_t add_abort_hook(std::function<void(std::exception_ptr)> fn);
  void remove_abort_hook(std::uint64_t token);

  /// Retransmission policy for this process's calls (see RetransmitPolicy).
  void set_retransmit_policy(RetransmitPolicy p) { retransmit_ = p; }
  [[nodiscard]] const RetransmitPolicy& retransmit_policy() const {
    return retransmit_;
  }

  /// Expires when this process is destroyed — timers that outlive their
  /// process (retransmits, deadline alarms in a wall-clock-pumped
  /// simulator) capture this and bail instead of touching a dead object.
  [[nodiscard]] std::weak_ptr<void> liveness() const { return alive_; }

  /// One quorum round (a broadcast-and-collect fan-out) started.
  void note_quorum_round() { ++traffic_.quorum_rounds; }

  /// One quorum round proved unnecessary and elided locally (metrics only).
  void note_round_elided() { ++traffic_.rounds_elided; }

  /// Server-side hook: the nextC pointer this process would report for
  /// (cfg, obj), stamped into every reply by reply_to(). Default: ⊥ —
  /// processes that host no reconfiguration state piggyback nothing.
  /// (Public so batch handlers can stamp a per-member hint for every
  /// object a multi-object request addresses, not just the envelope's.)
  [[nodiscard]] virtual CseqEntry next_config_hint(ConfigId cfg,
                                                   ObjectId obj) const {
    (void)cfg;
    (void)obj;
    return {};
  }

 protected:
  /// Subclasses implement protocol logic here. Only non-reply messages (or
  /// replies with no pending call, which are dropped before reaching here)
  /// arrive.
  virtual void handle(const Message& msg) = 0;

  /// Client-side hook: invoked (before the reply callback) whenever an
  /// incoming reply to this process's own request piggybacks a valid nextC
  /// for the (cfg, obj) the request addressed. Default: ignore.
  virtual void note_config_hint(ConfigId cfg, ObjectId obj,
                                const CseqEntry& next) {
    (void)cfg;
    (void)obj;
    (void)next;
  }

  /// Give `req` a fresh rpc id and route replies to it from `dests` (once
  /// per server) to `on_reply`, without sending anything: for requests that
  /// leave through a primitive with no reply path of its own (the
  /// md-primitive's atomic_broadcast), so a server's RetiredReply bounce
  /// still reaches the waiter. Never retransmitted. Returns the rpc id;
  /// forget_replies() drops the route once the waiter is done.
  std::uint64_t expect_replies(
      const std::vector<ProcessId>& dests, RpcRequest& req,
      std::function<void(ProcessId, BodyPtr)> on_reply);
  void forget_replies(std::uint64_t rpc) { broadcasts_.erase(rpc); }

 private:
  /// Request context remembered per pending rpc id, so piggybacked hints in
  /// the reply can be attributed to the (config, object) they are about.
  struct PendingCall {
    std::function<void(BodyPtr)> callback;
    ConfigId config = kNoConfig;
    ObjectId object = kDefaultObject;
    /// Retransmission state (kept only while the policy is enabled).
    BodyPtr req;
    ProcessId dest = kNoProcess;
  };

  struct PendingBroadcast {
    std::function<void(ProcessId, BodyPtr)> callback;
    std::size_t remaining = 0;  // erased once every destination replied
    ConfigId config = kNoConfig;
    ObjectId object = kDefaultObject;
    /// Servers that already replied. A network that duplicates messages
    /// delivers some replies twice; counting a duplicate would both
    /// double-fire the callback (a QuorumCollector would treat one server
    /// as two quorum members — breaking quorum intersection) and erase the
    /// broadcast early, dropping a genuine later reply.
    std::vector<ProcessId> replied;
    /// Retransmission state (kept only while the policy is enabled).
    BodyPtr req;
    std::vector<ProcessId> dests;
  };

  /// Schedule retransmit `attempt` for rpc `rpc` after its backoff delay.
  /// Fires only while the pending entry still exists (i.e. some destination
  /// has not replied) and re-sends the original request body to exactly the
  /// destinations still missing.
  void schedule_retransmit(std::uint64_t rpc, bool broadcast, int attempt);

  void account_sent(const BodyPtr& body) {
    ++traffic_.messages_sent;
    traffic_.data_bytes_sent += body->data_bytes();
    traffic_.metadata_bytes_sent += body->metadata_bytes();
  }

  Simulator& sim_;
  Transport& net_;
  ProcessId id_;
  bool crashed_ = false;
  std::uint64_t next_rpc_id_ = 1;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::unordered_map<std::uint64_t, PendingBroadcast> broadcasts_;
  TrafficStats traffic_;
  bool abortable_waits_ = false;
  std::uint64_t next_abort_token_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(std::exception_ptr)>>
      abort_hooks_;
  RetransmitPolicy retransmit_;
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
};

/// Collects replies from a broadcast to a set of servers and completes when
/// a caller-supplied condition holds. This is the building block for every
/// "send to all, await ⌈(n+k)/2⌉ / a quorum" step in the paper.
///
/// The collector owns shared state kept alive by in-flight callbacks, so it
/// may be destroyed (e.g. client operation abandoned) while replies are
/// still in the air.
template <typename Reply>
class QuorumCollector {
 public:
  struct Arrival {
    ProcessId from;
    std::shared_ptr<const Reply> reply;
  };

  /// Broadcasts `make_request(server)` to every server in `servers` —
  /// the per-server form for phases whose payload varies per destination
  /// (erasure-coded put-data sends distinct fragments).
  template <typename SendFn, typename MakeReq>
  QuorumCollector(SendFn&& do_call, std::vector<ProcessId> servers,
                  MakeReq&& make_request)
      : inner_(std::make_shared<Inner>()) {
    inner_->expected = servers.size();
    for (ProcessId s : servers) {
      auto req = make_request(s);
      do_call(s, std::move(req),
              [inner = inner_, s](BodyPtr reply) { inner->on_reply(s, reply); });
    }
  }

  /// Broadcasts one shared immutable request to every server (one
  /// allocation, one rpc id — see Process::call_broadcast).
  QuorumCollector(Process& p, const std::vector<ProcessId>& servers,
                  std::shared_ptr<RpcRequest> req)
      : inner_(std::make_shared<Inner>()) {
    inner_->expected = servers.size();
    p.call_broadcast(servers, std::move(req),
                     [inner = inner_](ProcessId s, BodyPtr reply) {
                       inner->on_reply(s, reply);
                     });
  }

  /// Completes with true when `pred(arrivals)` first returns true (evaluated
  /// on every arrival). If the predicate never becomes true the future never
  /// completes — exactly the paper's semantics for e.g. a read that cannot
  /// decode; callers layer timeouts/retries on top where wanted.
  Future<bool> wait(std::function<bool(const std::vector<Arrival>&)> pred) {
    inner_->pred = std::move(pred);
    inner_->check();
    return inner_->done.get_future();
  }

  /// Like wait(), but also completes (with false) after `timeout` time units
  /// if the predicate has not been satisfied by then.
  Future<bool> wait(std::function<bool(const std::vector<Arrival>&)> pred,
                    Simulator& sim, SimDuration timeout) {
    auto f = wait(std::move(pred));
    sim.schedule_after(timeout, [inner = inner_] {
      inner->fulfill_value(false);
    });
    return f;
  }

  /// Register this wait with `p`'s abort registry: abort_pending_waits()
  /// fails it with the supplied exception, which the suspended co_await
  /// rethrows (broadcast_collect arms this automatically while
  /// p.abortable_waits() is on).
  void arm_abort(Process& p) {
    auto inner = inner_;
    inner->owner = &p;
    inner->abort_token =
        p.add_abort_hook([inner](std::exception_ptr err) {
          inner->owner = nullptr;  // registry entry consumed by the firing
          inner->fulfill_error(std::move(err));
        });
  }

  /// Completes when at least `count` replies have arrived.
  Future<bool> wait_for(std::size_t count) {
    return wait([count](const std::vector<Arrival>& a) {
      return a.size() >= count;
    });
  }

  [[nodiscard]] const std::vector<Arrival>& arrivals() const {
    return inner_->arrivals;
  }

 private:
  struct Inner {
    std::vector<Arrival> arrivals;
    std::size_t expected = 0;
    std::function<bool(const std::vector<Arrival>&)> pred;
    Promise<bool> done;
    bool fulfilled = false;
    /// Abort registration (arm_abort): owner's registry holds a hook that
    /// fails this wait; the registration is dropped on any fulfillment so
    /// the registry only ever holds genuinely-pending waits.
    Process* owner = nullptr;
    std::uint64_t abort_token = 0;

    void fulfill_value(bool v) {
      if (fulfilled) return;
      fulfilled = true;
      detach_abort();
      done.set_value(v);
    }

    void fulfill_error(std::exception_ptr err) {
      if (fulfilled) return;
      fulfilled = true;
      detach_abort();
      done.set_error(std::move(err));
    }

    void detach_abort() {
      if (owner != nullptr) {
        owner->remove_abort_hook(abort_token);
        owner = nullptr;
      }
    }

    void on_reply(ProcessId from, const BodyPtr& body) {
      if (auto retired = std::dynamic_pointer_cast<const RetiredReply>(body)) {
        // The addressed (config, object) was garbage-collected server-side.
        // Its piggybacked successor already reached note_config_hint (hints
        // run before reply callbacks), so the waiter can re-traverse from an
        // extended cseq. Fail the wait once; later replies are ignored.
        fulfill_error(std::make_exception_ptr(
            ConfigRetired(retired->config, retired->object)));
        return;
      }
      auto typed = std::dynamic_pointer_cast<const Reply>(body);
      if (!typed) return;  // wrong reply type: ignore (defensive)
      arrivals.push_back(Arrival{from, std::move(typed)});
      check();
    }

    void check() {
      if (fulfilled || !pred) return;
      if (pred(arrivals)) {
        fulfilled = true;
        detach_abort();
        done.set_value(true);
      }
    }
  };

  std::shared_ptr<Inner> inner_;
};

/// Convenience: broadcast `make_request(server)` from `p` to `servers` and
/// collect typed replies. Counts as one quorum round on `p`.
template <typename Reply, typename MakeReq>
  requires std::invocable<MakeReq&, ProcessId>
[[nodiscard]] QuorumCollector<Reply> broadcast_collect(
    Process& p, const std::vector<ProcessId>& servers, MakeReq&& make_request) {
  p.note_quorum_round();
  auto do_call = [&p](ProcessId s, std::shared_ptr<RpcRequest> r,
                      std::function<void(BodyPtr)> cb) {
    p.call_async(s, std::move(r), std::move(cb));
  };
  QuorumCollector<Reply> qc(do_call, servers,
                            std::forward<MakeReq>(make_request));
  if (p.abortable_waits()) qc.arm_abort(p);
  return qc;
}

/// Convenience: broadcast one shared immutable request from `p` to
/// `servers` and collect typed replies. Counts as one quorum round on `p`.
template <typename Reply>
[[nodiscard]] QuorumCollector<Reply> broadcast_collect(
    Process& p, const std::vector<ProcessId>& servers,
    std::shared_ptr<RpcRequest> req) {
  p.note_quorum_round();
  QuorumCollector<Reply> qc(p, servers, std::move(req));
  if (p.abortable_waits()) qc.arm_abort(p);
  return qc;
}

}  // namespace ares::sim
