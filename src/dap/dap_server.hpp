// Server-side counterpart of a DAP implementation: the per-configuration
// state machine a server hosts (ABD's ⟨tag,value⟩ pairs, TREAS's Lists,
// LDR's directory/replica state) plus its message handlers. One DapServer
// instance serves every atomic object addressed in its configuration; state
// is keyed internally by the ObjectId carried in each request.
//
// Batched multi-object primitives (QueryBatchReq / PutBatchReq): the base
// class serves them generically via handle_batch(), running the same
// per-object bodies (query_member / put_members over the query_one /
// put_one hooks a protocol implements) as the protocol's scalar handlers.
// Whole-replica protocols (ABD) support them; coded / role-split protocols
// (TREAS, LDR) report supports_batch() == false, and the clients' member-set
// rounds (dap/batch.hpp) run their members one at a time through the
// scalar primitives (see dap::batch_capable).
#pragma once

#include "codec/codec.hpp"
#include "common/types.hpp"
#include "dap/config.hpp"
#include "dap/messages.hpp"
#include "placement/stats.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"

#include <functional>
#include <map>
#include <memory>
#include <optional>

namespace ares::storage {
class ServerJournal;
}

namespace ares::dap {

/// What a server-side handler may do: reply to the request and send
/// further messages (ARES-TREAS servers forward coded elements).
struct ServerContext {
  sim::Process& process;           // the hosting server process
  const ConfigSpec& config;        // this configuration's spec
  const ConfigRegistry& registry;  // for cross-configuration lookups
};

class DapServer {
 public:
  virtual ~DapServer() = default;

  /// Handle one protocol message addressed to this configuration's state.
  /// Returns true if the message was recognized and consumed.
  virtual bool handle(ServerContext& ctx, const sim::Message& msg) = 0;

  /// Bytes of object data currently stored across all objects (the paper's
  /// storage cost, before normalization; metadata excluded).
  [[nodiscard]] virtual std::size_t stored_data_bytes() const = 0;

  /// Highest tag this server has seen for `obj` (Definition 10
  /// diagnostics). Tag spaces of distinct objects are independent.
  [[nodiscard]] virtual Tag max_tag(ObjectId obj = kDefaultObject) const = 0;

  /// Highest tag known to be propagated to a full quorum of this
  /// configuration for `obj` (semifast reads: query replies report it so
  /// readers can elide the write-back phase). Learned from the
  /// confirmed_hint piggybacked on requests and from ConfirmMsg broadcasts.
  [[nodiscard]] Tag confirmed_tag(ObjectId obj) const;

  /// True when this protocol's per-object state can serve the batched
  /// whole-replica primitives (QueryBatchReq / PutBatchReq).
  [[nodiscard]] virtual bool supports_batch() const { return false; }

  // --- per-object read leases ----------------------------------------------
  //
  // The grant is this server's promise not to let a put-data (or
  // put-config) carrying a tag newer than the grant tag complete through
  // *its* ack before the lease is settled — expired, or invalidated with
  // the holder's ack, per the configuration's LeasePolicy. Clients only
  // trust leases granted by a full quorum in one round, so every put ack
  // quorum intersects the grant set and at least one enforcing server
  // gates the put. State lives here, in the protocol-agnostic base, so the
  // reconfiguration service (put-config on the hosting AresServer) can
  // settle leases of any protocol's DAP state through the same table.

  /// Grant (or renew) a read lease on `obj` to `client`, recording the
  /// server's current `tag` for the object. Returns the grant expiry, or 0
  /// when the configuration grants no leases or a successor configuration
  /// is already known (leases are never minted under a superseded
  /// configuration).
  [[nodiscard]] SimTime maybe_grant_lease(ServerContext& ctx, ObjectId obj,
                                          ProcessId client, Tag tag);

  /// Settle every outstanding lease on `obj` whose grant tag is older than
  /// `tag` (holders other than `writer`), then run `done` — immediately
  /// when nothing is outstanding; after the windows expired (kWait); or
  /// after every holder acked an invalidation or its window expired,
  /// whichever first (kInvalidate — a crashed holder delays `done` by at
  /// most its remaining window). Pass kMaxTag to settle all leases
  /// regardless of grant tag (reconfiguration revocation).
  void settle_leases(ServerContext& ctx, ObjectId obj, Tag tag,
                     ProcessId writer, std::function<void()> done);

  /// Outstanding (unexpired) lease records on `obj` (tests/diagnostics).
  [[nodiscard]] std::size_t lease_count(ObjectId obj, SimTime now) const;

  // --- durability & garbage collection --------------------------------------

  /// Attach the hosting server's write-ahead journal. Mutations to this
  /// configuration's state (put-datas, lease grants) are journaled under
  /// `cfg` before their acks leave. Pass nullptr to detach (recovery replay
  /// restores state without re-journaling).
  void set_journal(storage::ServerJournal* journal, ConfigId cfg);

  /// Retire `obj`'s state under this configuration: drop object data,
  /// leases and confirmed-tag bookkeeping, returning the object-data bytes
  /// reclaimed. Protocol overrides free their stores and delegate to the
  /// base for the lease/confirmed tables.
  virtual std::size_t drop_object(ObjectId obj);

  /// Recovery hooks: re-install one journaled mutation without re-acking or
  /// re-journaling it. restore_put feeds a WalPut back into the protocol
  /// store (ABD registers, TREAS list entries); restore_lease re-seats an
  /// unexpired grant so the restarted server keeps gating puts it promised
  /// to gate.
  virtual void restore_put(ObjectId obj, const Tag& tag, const ValuePtr& value,
                           const std::optional<codec::Fragment>& fragment) {
    (void)obj;
    (void)tag;
    (void)value;
    (void)fragment;
  }
  void restore_lease(ObjectId obj, ProcessId holder, const Tag& tag,
                     SimTime expiry);

  /// Emit this configuration's durable state as WAL records (snapshot
  /// compaction). The base emits unexpired leases; protocol overrides emit
  /// their object data first, then delegate.
  virtual void dump_wal(ServerContext& ctx, ConfigId cfg,
                        const std::function<void(const sim::MessageBody&)>&
                            sink) const;

  /// Raw lease-table entries for `obj`, expired grants included — observes
  /// the reaper (lease_count already filters by expiry).
  [[nodiscard]] std::size_t lease_records(ObjectId obj) const;

  /// The grant window this server would use for a lease on `obj` right
  /// now. The full spec.lease_ms unless the configuration is
  /// lease_adaptive, in which case the window scales with the object's
  /// observed read/write mix (an exponentially-decayed LoadTracker window
  /// fed from the request stream): the full window for read-only traffic,
  /// shrinking linearly to zero as the write share reaches one half —
  /// write-hot objects then get no leases at all, so kWait writers never
  /// stall on them. Objects with too few recent samples to judge get no
  /// window either — a cold object earns its leases with observed read
  /// traffic, never with a promise that could stall a writer.
  [[nodiscard]] SimTime lease_window(const ConfigSpec& spec,
                                     ObjectId obj) const;

 protected:
  /// Absorb the confirmation evidence carried by `msg` (every request's
  /// confirmed_hint, per-member hints of a QueryBatchReq; a standalone
  /// ConfirmMsg or ConfirmBatchMsg). Returns true iff the message was a
  /// confirm broadcast and is thereby fully consumed (no reply is due).
  /// Protocol handlers call this before their own dispatch.
  bool absorb_confirmations(const sim::Message& msg);

  /// Serve QueryBatchReq / PutBatchReq by running query_member /
  /// put_members over per-object state (requires supports_batch()).
  /// Returns true iff the message was a batch request and was consumed.
  /// Protocol handlers call this after absorb_confirmations.
  bool handle_batch(ServerContext& ctx, const sim::Message& msg);

  /// The per-object bodies the scalar handlers and handle_batch share.
  /// query_member answers one object's get-data (get-tag if `tags_only`):
  /// pair, confirmed tag, nextC, and a read-lease grant when asked.
  /// put_members adopts every item now and sends `make_ack`'s reply once
  /// their colliding leases settled, passing each item's write-ack grant —
  /// nonzero only if asked and the pair IS still the register, so a writer
  /// never caches a pair a newer concurrent write already superseded.
  [[nodiscard]] BatchQueryItem query_member(ServerContext& ctx, ObjectId obj,
                                            ProcessId from, bool tags_only,
                                            bool want_lease);
  void put_members(
      ServerContext& ctx, const sim::Message& msg,
      std::vector<BatchPutItem> items, bool want_leases,
      std::function<std::shared_ptr<sim::RpcReply>(std::vector<SimTime>)>
          make_ack);

  /// Per-object whole-replica hooks backing query_member / put_members.
  /// Only protocols with supports_batch() == true implement them.
  [[nodiscard]] virtual TagValue query_one(ObjectId obj) const {
    (void)obj;
    return {};
  }
  virtual void put_one(ObjectId obj, const Tag& tag, const ValuePtr& value) {
    (void)obj;
    (void)tag;
    (void)value;
  }

  /// Count one client operation on `obj` towards the adaptive-window
  /// read/write mix (protocol handlers call it for get-data queries and
  /// put-datas). Periodically decays the window so the mix tracks recent
  /// traffic.
  void note_mix(ObjectId obj, bool is_write);

  /// Journal one put-data mutation (protocol stores call it from their
  /// adopt paths, before the ack leaves). No-op when no journal is
  /// attached.
  void journal_put(ObjectId obj, const Tag& tag, const ValuePtr& value,
                   const std::optional<codec::Fragment>& fragment);

 private:
  void raise_confirmed(ObjectId obj, Tag tag);

  /// Schedule (or coalesce into) a reaping sweep of `obj`'s lease table at
  /// `at`: expired grants linger until swept, bounding the table by live
  /// grants plus one window of stragglers. Sweeps erase only grants whose
  /// expiry has passed — an unexpired promise is never dropped.
  void schedule_lease_sweep(ServerContext& ctx, ObjectId obj, SimTime at);
  void arm_lease_sweep(sim::Process* proc, ObjectId obj, SimTime at);

  /// One granted lease: the server tag at grant time and the window end.
  struct LeaseRecord {
    Tag tag;
    SimTime expiry = 0;
  };

  std::map<ObjectId, Tag> confirmed_;
  std::map<ObjectId, std::map<ProcessId, LeaseRecord>> leases_;

  /// Pending reap time per object (0 = none scheduled). Sweeps compare the
  /// recorded time against their own to detect supersession: renewing a
  /// grant pushes the sweep later instead of stacking timers.
  std::map<ObjectId, SimTime> sweep_at_;

  /// Attached write-ahead journal (owned by the hosting AresServer) and the
  /// configuration id this DAP's records are journaled under.
  storage::ServerJournal* journal_ = nullptr;
  ConfigId journal_cfg_ = kNoConfig;

  /// Alive sentinel for timers. settle_leases schedules simulator callbacks
  /// that capture `this` (and the hosting process); a server destroyed by a
  /// crash/restart would leave those timers dangling. Every deferred `done`
  /// is wrapped in a weak_ptr guard on this token so stale timers no-op
  /// instead of touching freed state.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  /// Observed read/write mix per object (adaptive lease windows).
  placement::LoadTracker mix_;
  std::uint64_t mix_ops_ = 0;
};

}  // namespace ares::dap
