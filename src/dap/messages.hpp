// Protocol-agnostic DAP control messages, shared by ABD / TREAS / LDR.
#pragma once

#include "common/types.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"

#include <memory>
#include <vector>

namespace ares::dap {

/// CONFIRM ⟨τ⟩ (fire-and-forget): the sender completed a quorum put-data of
/// tag τ for (config, object), so a quorum of the configuration's servers
/// now stores tag ≥ τ. Receiving servers raise their confirmed tag, which
/// later query replies report — the evidence that lets semifast readers
/// skip the write-back phase. Metadata only; no reply.
class ConfirmMsg final : public sim::RpcRequest {
 public:
  Tag tag;
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.confirm";
  }
};

/// LEASE-INVALIDATE ⟨τ⟩ (server → lease holder, kInvalidate policy): a
/// put-data (or put-config) carrying a tag newer than the holder's grant is
/// waiting at the sending server. The holder poisons its local lease cache
/// for (config, object), raises its per-configuration install fence to τ —
/// so a grant still in flight from before the invalidation can never be
/// installed afterwards — and acks. The server releases the pending put
/// once every holder acked or its window expired, whichever comes first.
class LeaseInvalidateMsg final : public sim::RpcRequest {
 public:
  Tag tag;
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.lease_invalidate";
  }
};

class LeaseInvalidateAck final : public sim::RpcReply {
 public:
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.lease_invalidate_ack";
  }
};

/// Broadcast one shared CONFIRM ⟨τ⟩ body to `servers` (no acks awaited —
/// zero rounds added to the completing operation).
inline void broadcast_confirm(sim::Process& owner, ConfigId config,
                              ObjectId object, Tag tag,
                              const std::vector<ProcessId>& servers) {
  auto msg = std::make_shared<ConfirmMsg>();
  msg->config = config;
  msg->object = object;
  msg->tag = tag;
  const sim::BodyPtr body = std::move(msg);
  for (ProcessId s : servers) owner.send(s, body);
}

// ---------------------------------------------------------------------------
// Batched multi-object primitives (the Store API's read_many/write_many):
// one RPC addresses every listed object's state within the configuration,
// so B objects sharing a configuration cost one quorum round instead of B.
// Served by DapServer::handle_batch iterating per-object state; only
// whole-replica protocols support them (see DapServer::supports_batch).
// ---------------------------------------------------------------------------

/// QUERY-BATCH: get-data (or, with `tags_only`, get-tag) for every object
/// in `objects`, in one RPC. `confirmed_hints` parallels `objects` (may be
/// empty): the caller's quorum-propagation knowledge per member, absorbed
/// by the server like the scalar confirmed_hint.
class QueryBatchReq final : public sim::RpcRequest {
 public:
  std::vector<ObjectId> objects;
  std::vector<Tag> confirmed_hints;  // parallel to objects, or empty
  bool tags_only = false;
  /// Ask for per-member read-lease grants (readers that can install them
  /// only — a recorded grant is an enforced promise that stalls writers).
  bool want_leases = false;
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.query_batch";
  }
};

/// One object's slice of a QueryBatchReply, in request order. `next_c` is
/// the replying server's nextC pointer for (config, object) — the
/// piggybacked configuration discovery of the scalar path, per member.
struct BatchQueryItem {
  ObjectId object = kNoObject;
  Tag tag;
  ValuePtr value;  // null under tags_only
  Tag confirmed;   // server's quorum-propagated tag for the object
  CseqEntry next_c;
  /// Read-lease grant expiry for (object, requester), 0 = no grant. On the
  /// wire: this server's promise; folded by query_round: the min
  /// expiry across a full quorum of granting replies (0 unless a quorum
  /// granted — only a quorum-backed lease may be trusted, since the settle
  /// gate relies on every put quorum intersecting the grant set).
  SimTime lease_expiry = 0;
};

class QueryBatchReply final : public sim::RpcReply {
 public:
  std::vector<BatchQueryItem> items;  // aligned with the request's objects
  [[nodiscard]] std::size_t data_bytes() const override {
    std::size_t sum = 0;
    for (const auto& it : items) {
      if (it.value) sum += it.value->size();
    }
    return sum;
  }
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.query_batch_reply";
  }
};

/// One member of a PUT-BATCH: put-data(⟨τ, v⟩) for the object.
struct BatchPutItem {
  ObjectId object = kNoObject;
  Tag tag;
  ValuePtr value;
};

class PutBatchReq final : public sim::RpcRequest {
 public:
  std::vector<BatchPutItem> items;
  /// Ask for per-member write-ack lease grants riding the batch ack (same
  /// contract as abd::WriteReq::want_lease).
  bool want_leases = false;
  [[nodiscard]] std::size_t data_bytes() const override {
    std::size_t sum = 0;
    for (const auto& it : items) {
      if (it.value) sum += it.value->size();
    }
    return sum;
  }
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.put_batch";
  }
};

class PutBatchReply final : public sim::RpcReply {
 public:
  /// Ack-time nextC per request item. Under fenced transfer reads a
  /// hint-free ack quorum proves no racing reconfiguration can have
  /// transferred state without the item's tag (see AresClient::run_group) —
  /// its post-put config check is then elidable; with the fast path off it
  /// remains an opportunistic staleness signal only.
  std::vector<CseqEntry> next_cs;
  /// Write-ack lease grant expiry per request item, 0 = no grant (only
  /// present when the request asked; same semantics as
  /// abd::WriteAck::lease_expiry).
  std::vector<SimTime> lease_expiries;
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.put_batch_ack";
  }
};

/// CONFIRM-BATCH (fire-and-forget): per-object confirmed tags after a
/// completed batch put — one broadcast instead of one ConfirmMsg per
/// member. Metadata only; no reply.
class ConfirmBatchMsg final : public sim::RpcRequest {
 public:
  struct Item {
    ObjectId object = kNoObject;
    Tag tag;
  };
  std::vector<Item> tags;
  [[nodiscard]] std::string_view type_name() const override {
    return "dap.confirm_batch";
  }
};

}  // namespace ares::dap
