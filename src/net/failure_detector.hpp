// Timeout-based failure detector for the socket backend: per-peer health
// derived purely from traffic the transport already carries (no extra
// heartbeat protocol). A peer becomes *suspected* when a send has gone
// unanswered past `suspect_after_us`, or immediately when dialing it fails
// outright (connection refused — the one place TCP is faster than a
// timeout). Any received frame unsuspects it (healing is free: replies are
// the heartbeat).
//
// Consumers:
//   * TcpTransport::enqueue fast-fails frames to suspected peers (with one
//     probe frame allowed per probe_interval so healing can be observed),
//     and the dial path shrinks its retry budget for suspected peers so a
//     reconnect stampede never forms against a dead server.
//   * NetCluster's op admission gate counts unsuspected quorum members and
//     fast-fails operations with OpStatus::kQuorumUnreachable when too few
//     remain — with one full-op probe per probe_interval, which both
//     detects healing and re-arms suspicion.
//
// Thread-safe: node loop threads and client callers poke it concurrently.
// Like everything wall-clock on this backend, timestamps are
// NodeRuntime::unix_now_us().
#pragma once

#include "common/types.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace ares::net {

class FailureDetector {
 public:
  struct Options {
    /// A peer with a send unanswered for this long is suspected. Must sit
    /// well above a healthy round-trip (µs here, ~150 µs over localhost)
    /// and below the op deadline, or the detector never helps an op fail
    /// fast.
    SimDuration suspect_after_us = 1'500'000;
    /// While suspected: one probe send (and one full-op gate bypass) is
    /// allowed per interval, so a healed peer is re-discovered quickly
    /// without paying full traffic into a black hole.
    SimDuration probe_interval_us = 250'000;
  };

  FailureDetector() : FailureDetector(Options{}) {}
  explicit FailureDetector(Options opt) : opt_(opt) {}

  /// A frame to `peer` was handed to the transport at `now_us`.
  void note_send(ProcessId peer, SimTime now_us);

  /// A frame from `peer` arrived: clears outstanding traffic and, if the
  /// peer was suspected, heals it (unsuspect-on-frame-receipt).
  void note_receive(ProcessId peer, SimTime now_us);

  /// Dialing `peer` failed after the transport's whole retry budget:
  /// suspect immediately (refused connections are affirmative evidence,
  /// unlike silence).
  void note_dial_failure(ProcessId peer, SimTime now_us);

  [[nodiscard]] bool suspected(ProcessId peer, SimTime now_us) const;

  /// Gate for the transport's send path: true for healthy peers, and for
  /// suspected peers once per probe_interval (the probe). A false return
  /// means fast-fail the frame.
  [[nodiscard]] bool allow_send(ProcessId peer, SimTime now_us);

  /// Gate bypass for whole-operation admission (NetCluster): while the
  /// quorum looks unreachable, lets one operation per probe_interval
  /// through anyway so its traffic can heal the detector.
  [[nodiscard]] bool allow_op_probe(SimTime now_us);

  [[nodiscard]] std::vector<ProcessId> suspects(SimTime now_us) const;

  [[nodiscard]] std::uint64_t suspicions() const;
  [[nodiscard]] std::uint64_t heals() const;
  [[nodiscard]] std::uint64_t fast_fails() const;

  [[nodiscard]] const Options& options() const { return opt_; }

 private:
  struct Peer {
    /// Timestamp of the oldest send with no receive since (0 = none
    /// outstanding) — the timeout clock.
    SimTime oldest_unanswered = 0;
    bool suspect = false;
    SimTime last_probe = 0;
  };

  /// Evaluate the timeout rule for `p` at `now_us`, latching suspicion.
  /// Caller holds mu_.
  bool eval(Peer& p, SimTime now_us) const;

  Options opt_;
  mutable std::mutex mu_;
  mutable std::map<ProcessId, Peer> peers_;
  SimTime last_op_probe_ = 0;
  mutable std::uint64_t suspicions_ = 0;
  std::uint64_t heals_ = 0;
  std::uint64_t fast_fails_ = 0;
};

}  // namespace ares::net
