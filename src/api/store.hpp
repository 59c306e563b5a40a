// The protocol-agnostic client surface: one abstract `ares::Store` every
// deployment flavor adapts to — StaticStore over the A1/A2 register stack,
// AresStore over the reconfigurable ARES stack. The workload driver, the
// placement feed, the benches and the examples all program against this
// interface only, so a new capability is plumbed exactly once.
//
// Every operation returns a rich OpResult carrying the tag/value outcome
// plus the operation's measured traffic cost (quorum rounds, messages,
// bytes — sampled from the executing process's sim::TrafficStats),
// replacing the scattered per-client accessors.
//
// Batched operations are first-class: read_many/write_many take a span of
// members and adapters turn members that share a configuration into one
// multi-object quorum round (see dap/batch.hpp) instead of a per-object
// loop — B objects in one configuration cost one get-data round, not B.
// The base-class default is the correct-everywhere sequential loop.
#pragma once

#include "common/types.hpp"
#include "dap/config.hpp"
#include "sim/coro.hpp"
#include "sim/process.hpp"

#include <memory>
#include <span>
#include <vector>

namespace ares::api {

/// Measured cost of one operation: quorum rounds initiated, messages sent,
/// and bytes sent+received while it ran. For a batched operation every
/// member carries its amortized share of the batch total (the batch cost
/// divided across members; the remainder lands on the first member), so
/// summing members reproduces the batch and averaging yields cost/op.
struct OpMetrics {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Quorum rounds the protocol proved unnecessary and elided locally
  /// (e.g. a write's post-put config check under fenced transfer reads) —
  /// work the operation would have cost without the fast paths.
  std::uint64_t elided_rounds = 0;

  /// True when the operation's measured share is zero rounds and zero
  /// messages. For a *scalar* operation that means it touched no server at
  /// all — a read served entirely from a valid read lease. Batch members
  /// carry amortized shares of the batch total, so there a zero share only
  /// means the member added no marginal quorum cost (integer division can
  /// round a quorum-served member's share down to zero, and a lease-served
  /// member of a mixed batch can inherit a nonzero share).
  [[nodiscard]] bool local() const { return rounds == 0 && messages == 0; }
};

/// Typed outcome of one Store operation. Anything other than kOk means the
/// operation did NOT take effect observably (a timed-out write may still
/// land on some servers — the history checker treats it like a crashed
/// writer, which tag atomicity already tolerates).
enum class OpStatus : std::uint8_t {
  kOk = 0,
  /// The per-op deadline expired before a quorum answered. The operation's
  /// coroutine frames were unwound (in-flight guards and cseq pins
  /// released); retrying is always safe.
  kTimeout,
  /// Fast-failed before sending: the failure detector currently suspects
  /// too many quorum members for the protocol's quorum size. Cheap to
  /// retry after the detector heals (frame receipt unsuspects).
  kQuorumUnreachable,
  /// Every configuration the client could reach reported the addressed
  /// lineage retired and re-traversal did not converge within the deadline.
  kRetired,
  /// Explicitly cancelled by the caller.
  kCancelled,
};

[[nodiscard]] const char* to_string(OpStatus s);

/// The outcome of one Store operation.
struct OpResult {
  ObjectId object = kDefaultObject;
  bool is_write = false;
  OpStatus status = OpStatus::kOk;
  Tag tag;                         // read: tag returned; write: tag written
  ValuePtr value;                  // read: value returned (null for writes)
  ConfigId installed = kNoConfig;  // reconfig: config that won the GL slot
  OpMetrics metrics;

  [[nodiscard]] bool ok() const { return status == OpStatus::kOk; }
};

/// One member of a write_many batch.
struct WriteOp {
  ObjectId object = kDefaultObject;
  ValuePtr value;
};

class Store {
 public:
  virtual ~Store() = default;

  /// Atomic read of `obj`. Completes with the tag-value pair returned.
  [[nodiscard]] virtual sim::Future<OpResult> read(ObjectId obj) = 0;

  /// Atomic write of `value` to `obj`. Completes with the tag written.
  [[nodiscard]] virtual sim::Future<OpResult> write(ObjectId obj,
                                                    ValuePtr value) = 0;

  /// Capability gate for reconfig(): static deployments have no
  /// reconfiguration machinery and report false.
  [[nodiscard]] virtual bool supports_reconfig() const { return false; }

  /// Install `spec` as the next configuration of `obj`'s lineage.
  /// Capability-gated: the default implementation throws std::logic_error
  /// when awaited (check supports_reconfig() first).
  [[nodiscard]] virtual sim::Future<OpResult> reconfig(ObjectId obj,
                                                       dap::ConfigSpec spec);

  /// Batched read of every object in `objs` (the span's storage must stay
  /// alive until completion). Results align with `objs`. Default: a
  /// sequential per-object loop; adapters override with real multi-object
  /// quorum rounds for members sharing a configuration.
  [[nodiscard]] virtual sim::Future<std::vector<OpResult>> read_many(
      std::span<const ObjectId> objs);

  /// Batched write of every member in `ops` (same lifetime rule). Results
  /// align with `ops`.
  [[nodiscard]] virtual sim::Future<std::vector<OpResult>> write_many(
      std::span<const WriteOp> ops);

  /// The traffic counters metering this store's operations (null when the
  /// store is not backed by a sim::Process — metrics then report 0).
  [[nodiscard]] virtual const sim::TrafficStats* traffic() const {
    return nullptr;
  }

  /// Per-operation deadline in time units (µs of wall time on the socket
  /// backend), 0 = none. When set, an operation that has not completed by
  /// its deadline has its pending quorum waits aborted and returns
  /// OpStatus::kTimeout instead of waiting indefinitely. Applies to every
  /// subsequent operation on this store; one store drives one operation at
  /// a time (the abort hits every wait of the owning client process).
  void set_op_deadline(SimDuration deadline_us) { op_deadline_us_ = deadline_us; }
  [[nodiscard]] SimDuration op_deadline() const { return op_deadline_us_; }

 protected:
  SimDuration op_deadline_us_ = 0;
};

namespace detail {

/// The metered cost between two snapshots of a process's counters.
[[nodiscard]] OpMetrics delta(const sim::TrafficStats& before,
                              const sim::TrafficStats& after);

/// A blank result for one operation on `obj`, or one per member of a
/// batch over `objs`.
[[nodiscard]] OpResult result_for(ObjectId obj, bool is_write);
[[nodiscard]] std::vector<OpResult> results_for(std::span<const ObjectId> objs,
                                                bool is_write);

/// Arm a one-shot deadline alarm on `p`'s simulator (null when
/// `deadline_us` is 0). When it fires and the returned flag is still true,
/// every pending quorum wait of `p` fails with sim::OpAborted — the
/// suspended operation unwinds through its frame destructors
/// (InflightGuards, cseq pins) and run_op maps the exception to a typed
/// OpStatus; clearing the flag disarms it. Works on both backends: the
/// deterministic simulator runs the timer in virtual time, NodeRuntime
/// pumps it at the corresponding wall-clock instant.
[[nodiscard]] std::shared_ptr<bool> arm_deadline(sim::Process& p,
                                                 SimDuration deadline_us);

/// run_op's outcome fills: a read's pair, a write's tag, a reconfig's
/// installed configuration, a batch's pairs (write members keep no value).
void record(OpResult& r, const TagValue& tv);
void record(OpResult& r, const Tag& tag);
void record(OpResult& r, ConfigId installed);
void record(std::vector<OpResult>& rs, const std::vector<TagValue>& tvs);

/// Stamp `status` and the measured `cost` on a result, or on every member
/// of a batch (each carrying its amortized share).
void settle(OpResult& r, OpStatus status, const OpMetrics& cost);
void settle(std::vector<OpResult>& rs, OpStatus status, const OpMetrics& cost);

/// The envelope of every adapter operation: samples `p`'s traffic, arms the
/// deadline, starts the operation — `start()` runs before the first
/// suspension and returns the op's Future — and records its outcome into
/// `out`. An OpAborted (ConfigRetired) becomes kTimeout or kCancelled
/// (kRetired) instead. Either way the alarm is disarmed and the traffic
/// delta charged to `out`. Per the GCC-12 rule in sim/coro.hpp, `start`
/// must capture by value.
template <typename Results, typename Start>
sim::Future<Results> run_op(sim::Process& p, SimDuration deadline,
                            Results out, Start start) {
  const sim::TrafficStats before = p.traffic();
  auto armed = arm_deadline(p, deadline);
  OpStatus status = OpStatus::kOk;
  try {
    auto op = start();
    const auto value = co_await op;
    record(out, value);
  } catch (const sim::OpAborted& e) {
    status = e.reason == sim::OpAborted::Reason::kCancelled
                 ? OpStatus::kCancelled
                 : OpStatus::kTimeout;
  } catch (const sim::ConfigRetired&) {
    status = OpStatus::kRetired;
  }
  if (armed) *armed = false;
  settle(out, status, delta(before, p.traffic()));
  co_return out;
}

}  // namespace detail

}  // namespace ares::api

namespace ares {
// The canonical spelling: `ares::Store` is the client surface.
using api::OpMetrics;
using api::OpResult;
using api::OpStatus;
using api::Store;
using api::WriteOp;
}  // namespace ares
