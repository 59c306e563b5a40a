// Client-side batched multi-object quorum primitives: one QueryBatch /
// PutBatch round over a configuration's servers covers every listed object,
// so B objects sharing a configuration cost one quorum round instead of B.
// These are the building blocks the Store adapters (and AresClient's op
// engine, for groups of two or more) compose; the per-configuration
// grouping and the reconfiguration bookkeeping live in the callers.
#pragma once

#include "dap/config.hpp"
#include "dap/messages.hpp"
#include "sim/coro.hpp"
#include "sim/process.hpp"

#include <vector>

namespace ares::dap {

/// True when `spec`'s protocol serves the whole-replica batch primitives
/// (servers store full values per object). Coded (TREAS) and role-split
/// (LDR) configurations decline; callers fall back to per-object ops.
[[nodiscard]] inline bool batch_capable(const ConfigSpec& spec) {
  return spec.protocol == Protocol::kAbd;
}

/// One get-data (or get-tag, with `tags_only`) quorum round for every
/// object in `objects` on `spec`'s servers. Returns one item per object
/// (aligned with `objects`): the max-tag pair across the quorum, the max
/// confirmed tag, and the "best" piggybacked nextC observed (finalized
/// preferred). `confirmed_hints` (may be empty) parallels `objects`.
/// `want_leases` requests per-member read-lease grants (callers that can
/// install them only; see Dap::get_data_confirmed) — each item's
/// lease_expiry is then the min expiry across a full quorum of grants
/// (0 unless a quorum granted).
[[nodiscard]] sim::Future<std::vector<BatchQueryItem>> batch_get_data(
    sim::Process& owner, ConfigSpec spec, std::vector<ObjectId> objects,
    bool tags_only, std::vector<Tag> confirmed_hints,
    bool want_leases = false);

/// What one batched put-data round learned, per request item (both vectors
/// aligned with `items`).
struct BatchPutResult {
  /// Ack-time nextC hints. Under fenced transfer reads a hint-free ack
  /// quorum proves no transfer can have missed an item's tag (see
  /// AresClient::run_group), so its post-put config check is elidable;
  /// with the fast path off they remain an opportunistic staleness signal
  /// only.
  std::vector<CseqEntry> next_cs;
  /// Write-ack lease expiry per item: the min expiry across a full quorum
  /// of granting acks, 0 when any counted ack declined (only a
  /// quorum-backed lease is enforceable — see abd::WriteAck::lease_expiry).
  std::vector<SimTime> lease_expiries;
};

/// One put-data quorum round for every item on `spec`'s servers. After the
/// quorum acks, every item's tag rests at a quorum: when `spec.semifast`,
/// one ConfirmBatch broadcast tells the servers so. `want_leases` asks the
/// servers for per-item write-ack lease grants riding the acks (callers
/// that can install them only).
[[nodiscard]] sim::Future<BatchPutResult> batch_put_data(
    sim::Process& owner, ConfigSpec spec, std::vector<BatchPutItem> items,
    bool want_leases = false);

}  // namespace ares::dap
