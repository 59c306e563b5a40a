// Fault injection for the socket backend: the sim's fault vocabulary
// (sim::Network's partitions, loss, duplication, gray delays) ported to
// real TCP, plus the faults only a real transport can express (connection
// resets, torn/truncated frames, half-open one-way links).
//
// Two hook points share one script:
//
//   * net::ChaosTransport — a sim::Transport decorator installed between
//     the protocol processes and the TcpTransport of every node. It
//     consults the shared ChaosController per message and drops,
//     duplicates or delays it *before* it reaches a socket. Partitions
//     over TCP are silent drops (the sim holds partitioned messages for
//     later delivery; a real network cannot), so post-heal liveness comes
//     from the retransmission layer, exactly as it would in production.
//   * TcpTransport itself — draws one socket-level verdict per frame just
//     before its first byte is written: kTear writes a truncated
//     frame and kills the connection (the receiver sees a short read /
//     corrupt header and drops the connection — PR 7's framing already
//     survives this), kReset kills the connection before the frame is
//     written (exercising reconnect-and-replay).
//
// One ChaosController is shared by every node of a deployment (see
// NetClusterOptions::chaos), so a "partition {0} from the rest" script
// affects server 0's inbound and outbound frames no matter which node
// sends. All methods are thread-safe; rates draw from a seeded Rng under
// the controller mutex, and timed windows expire against wall-clock
// microseconds (NodeRuntime::unix_now_us).
#pragma once

#include "common/random.hpp"
#include "common/types.hpp"
#include "net/runtime.hpp"
#include "sim/transport.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

namespace ares::net {

class ChaosController {
 public:
  explicit ChaosController(std::uint64_t seed = 42) : rng_(seed) {}

  // --- fault script ----------------------------------------------------------

  /// Symmetric partition: processes in different groups cannot exchange
  /// messages; processes in no group are unaffected (same semantics as
  /// sim::Network::partition, except dropped instead of held — see file
  /// comment).
  void partition(const std::vector<std::vector<ProcessId>>& groups);

  /// One-way partition: messages from any id in `from` to any id in `to`
  /// are dropped; the reverse direction flows. Models half-open links
  /// (e.g. a server whose replies vanish while requests still arrive).
  /// Additive: each call adds a rule on top of existing ones.
  void partition_one_way(std::vector<ProcessId> from,
                         std::vector<ProcessId> to);

  /// Clear every partition rule (symmetric and one-way).
  void heal();

  /// Drop each message with probability `p`. `window_us` > 0 bounds the
  /// fault in wall time (it auto-expires); 0 = until changed.
  void set_loss(double p, SimDuration window_us = 0);

  /// Deliver each message twice with probability `p`.
  void set_duplicate(double p, SimDuration window_us = 0);

  /// Gray failure: messages to or from `id` get a uniform extra delay in
  /// [min, max] µs — slow, not dead, the failure detector's hard case.
  void set_gray(ProcessId id, SimDuration extra_min_us,
                SimDuration extra_max_us);
  void clear_gray(ProcessId id);

  /// Socket-level faults, consulted by TcpTransport's write path.
  void set_reset_rate(double p, SimDuration window_us = 0);
  void set_torn_rate(double p, SimDuration window_us = 0);

  /// Everything off (partitions, rates, gray map).
  void clear_all();

  // --- consultation ----------------------------------------------------------

  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    SimDuration delay_us = 0;
  };

  /// Per-message verdict for the ChaosTransport decorator.
  [[nodiscard]] Verdict message_fault(ProcessId from, ProcessId to,
                                      SimTime now_us);

  enum class SockFault { kNone, kTear, kReset };

  /// Per-frame socket fault for TcpTransport's write path.
  [[nodiscard]] SockFault sock_fault(SimTime now_us);

  // --- counters (assertable in tests) ---------------------------------------

  [[nodiscard]] std::uint64_t messages_dropped() const;
  [[nodiscard]] std::uint64_t messages_duplicated() const;
  [[nodiscard]] std::uint64_t messages_delayed() const;
  [[nodiscard]] std::uint64_t frames_torn() const;
  [[nodiscard]] std::uint64_t frames_reset() const;

 private:
  struct RateWindow {
    double rate = 0;
    SimTime until = 0;  // 0 = no expiry
    [[nodiscard]] bool active(SimTime now) const {
      return rate > 0 && (until == 0 || now < until);
    }
  };

  struct OneWayRule {
    std::set<ProcessId> from;
    std::set<ProcessId> to;
  };

  mutable std::mutex mu_;
  Rng rng_;
  std::map<ProcessId, std::size_t> group_of_;
  std::vector<OneWayRule> one_way_;
  RateWindow loss_;
  RateWindow duplicate_;
  RateWindow reset_;
  RateWindow torn_;
  std::map<ProcessId, std::pair<SimDuration, SimDuration>> gray_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t torn_count_ = 0;
  std::uint64_t reset_count_ = 0;
};

/// The decorator: wraps a node's real transport and applies the shared
/// controller's message-level script to every outbound message. Delays are
/// scheduled on the node's own simulator (pumped at wall time), so a
/// delayed message still enters the wire under the node lock like any
/// other send. atomic_broadcast degrades to per-destination sends — the
/// same approximation TcpTransport makes.
class ChaosTransport final : public sim::Transport {
 public:
  ChaosTransport(NodeRuntime& rt, sim::Transport& inner,
                 std::shared_ptr<ChaosController> ctrl)
      : rt_(rt), inner_(inner), ctrl_(std::move(ctrl)) {}

  void register_process(sim::Process& p) override {
    inner_.register_process(p);
  }
  void unregister_process(ProcessId id) override {
    inner_.unregister_process(id);
  }

  void send(ProcessId from, ProcessId to, sim::BodyPtr body) override;

  void atomic_broadcast(ProcessId from, std::vector<ProcessId> dests,
                        sim::BodyPtr body) override {
    for (ProcessId d : dests) send(from, d, body);
  }

 private:
  NodeRuntime& rt_;
  sim::Transport& inner_;
  std::shared_ptr<ChaosController> ctrl_;
};

}  // namespace ares::net
