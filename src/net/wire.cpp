#include "net/wire.hpp"

#include "abd/messages.hpp"
#include "ares/messages.hpp"
#include "codec/codec.hpp"
#include "consensus/paxos.hpp"
#include "dap/messages.hpp"
#include "ldr/messages.hpp"
#include "storage/messages.hpp"
#include "storage/records.hpp"
#include "treas/messages.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_map>

namespace ares::net::wire {
namespace {

/// Sanity cap on any on-wire vector count (list entries, batch items,
/// location sets). Far above anything the protocols produce, far below
/// anything that could be used to force a pathological allocation.
constexpr std::size_t kMaxVectorItems = 1u << 20;

// --- primitive writer/reader ----------------------------------------------

/// Little-endian byte sink. With a null output vector it runs in counting
/// mode: same field walk, no bytes materialized (payload_size()).
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) {
    if (out_) out_->push_back(v);
    ++size_;
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    if (out_ && n) out_->insert(out_->end(), p, p + n);
    size_ += n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::vector<std::uint8_t>* out_;
  std::size_t size_ = 0;
};

/// Bounds-checked little-endian byte source; throws WireError on underrun.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* q = p_;
    p_ += n;
    return q;
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw WireError("truncated payload");
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- bidirectional archive --------------------------------------------------
// One `serialize(ar, msg)` per message type serves both directions: Enc walks
// the fields into a Writer, Dec walks the same fields out of a Reader. The
// two can never drift apart because there is only one field list.

struct Enc {
  Writer& w;
  static constexpr bool reading = false;
};

struct Dec {
  Reader& r;
  static constexpr bool reading = true;
};

template <typename Ar> void field(Ar& ar, bool& v);
template <typename Ar> void field(Ar& ar, std::uint32_t& v);
template <typename Ar> void field(Ar& ar, std::uint64_t& v);
template <typename Ar> void field(Ar& ar, Tag& v);
template <typename Ar> void field(Ar& ar, CseqEntry& v);
template <typename Ar> void field(Ar& ar, consensus::Ballot& v);
template <typename Ar> void field(Ar& ar, ValuePtr& v);
template <typename Ar> void field(Ar& ar, codec::Fragment& v);
template <typename Ar> void field(Ar& ar, std::optional<codec::Fragment>& v);
template <typename Ar> void field(Ar& ar, treas::ListEntry& v);
template <typename Ar> void field(Ar& ar, treas::QueryDigestReply::Entry& v);
template <typename Ar> void field(Ar& ar, dap::BatchQueryItem& v);
template <typename Ar> void field(Ar& ar, dap::BatchPutItem& v);
template <typename Ar> void field(Ar& ar, dap::ConfirmBatchMsg::Item& v);
template <typename Ar, typename T> void field(Ar& ar, std::vector<T>& v);

template <typename Ar>
void field(Ar& ar, bool& v) {
  if constexpr (Ar::reading) {
    v = ar.r.u8() != 0;
  } else {
    ar.w.u8(v ? 1 : 0);
  }
}

template <typename Ar>
void field(Ar& ar, std::uint32_t& v) {
  if constexpr (Ar::reading) {
    v = ar.r.u32();
  } else {
    ar.w.u32(v);
  }
}

template <typename Ar>
void field(Ar& ar, std::uint64_t& v) {
  if constexpr (Ar::reading) {
    v = ar.r.u64();
  } else {
    ar.w.u64(v);
  }
}

template <typename Ar>
void field(Ar& ar, Tag& v) {
  field(ar, v.z);
  field(ar, v.writer);
}

template <typename Ar>
void field(Ar& ar, CseqEntry& v) {
  field(ar, v.cfg);
  field(ar, v.finalized);
}

template <typename Ar>
void field(Ar& ar, consensus::Ballot& v) {
  field(ar, v.round);
  field(ar, v.proposer);
}

/// Null and empty values are distinct on the wire (⊥ vs a zero-length
/// value): one presence byte, then length-prefixed bytes.
template <typename Ar>
void field(Ar& ar, ValuePtr& v) {
  if constexpr (Ar::reading) {
    if (ar.r.u8() == 0) {
      v = nullptr;
      return;
    }
    const std::uint32_t n = ar.r.u32();
    const std::uint8_t* p = ar.r.bytes(n);  // bounds-checked
    v = std::make_shared<Value>(p, p + n);
  } else {
    if (!v) {
      ar.w.u8(0);
      return;
    }
    ar.w.u8(1);
    ar.w.u32(static_cast<std::uint32_t>(v->size()));
    ar.w.bytes(v->data(), v->size());
  }
}

template <typename Ar>
void field(Ar& ar, codec::Fragment& v) {
  field(ar, v.index);
  field(ar, v.data);  // shared_ptr<const Value>: same encoding as ValuePtr
}

template <typename Ar>
void field(Ar& ar, std::optional<codec::Fragment>& v) {
  if constexpr (Ar::reading) {
    if (ar.r.u8() == 0) {
      v.reset();
      return;
    }
    codec::Fragment f;
    field(ar, f);
    v = std::move(f);
  } else {
    ar.w.u8(v ? 1 : 0);
    if (v) field(ar, *v);
  }
}

template <typename Ar>
void field(Ar& ar, treas::ListEntry& v) {
  field(ar, v.tag);
  field(ar, v.fragment);
}

template <typename Ar>
void field(Ar& ar, treas::QueryDigestReply::Entry& v) {
  field(ar, v.tag);
  field(ar, v.has_fragment);
}

template <typename Ar>
void field(Ar& ar, dap::BatchQueryItem& v) {
  field(ar, v.object);
  field(ar, v.tag);
  field(ar, v.value);
  field(ar, v.confirmed);
  field(ar, v.next_c);
  field(ar, v.lease_expiry);
}

template <typename Ar>
void field(Ar& ar, dap::BatchPutItem& v) {
  field(ar, v.object);
  field(ar, v.tag);
  field(ar, v.value);
}

template <typename Ar>
void field(Ar& ar, dap::ConfirmBatchMsg::Item& v) {
  field(ar, v.object);
  field(ar, v.tag);
}

template <typename Ar, typename T>
void field(Ar& ar, std::vector<T>& v) {
  if constexpr (Ar::reading) {
    const std::uint32_t n = ar.r.u32();
    if (n > kMaxVectorItems) throw WireError("vector count over cap");
    v.clear();
    v.reserve(std::min<std::size_t>(n, 1024));  // don't trust n blindly
    for (std::uint32_t i = 0; i < n; ++i) {
      T t{};
      field(ar, t);
      v.push_back(std::move(t));
    }
  } else {
    if (v.size() > kMaxVectorItems) throw WireError("vector count over cap");
    ar.w.u32(static_cast<std::uint32_t>(v.size()));
    for (T& t : v) field(ar, t);
  }
}

/// Fields contributed by the RPC base classes. TransferAck derives plain
/// MessageBody and gets neither branch.
template <typename Ar, typename T>
void base_fields(Ar& ar, T& m) {
  if constexpr (std::is_base_of_v<sim::RpcRequest, T>) {
    field(ar, m.rpc_id);
    field(ar, m.config);
    field(ar, m.object);
    field(ar, m.confirmed_hint);
  } else if constexpr (std::is_base_of_v<sim::RpcReply, T>) {
    field(ar, m.rpc_id);
    field(ar, m.next_c);
  }
}

// --- per-type field lists ---------------------------------------------------

// abd
template <typename Ar> void serialize(Ar& ar, abd::QueryTagReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, abd::QueryTagReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, abd::QueryReq& m) {
  base_fields(ar, m);
  field(ar, m.want_lease);
}
template <typename Ar> void serialize(Ar& ar, abd::QueryReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.value);
  field(ar, m.confirmed);
  field(ar, m.lease_expiry);
}
template <typename Ar> void serialize(Ar& ar, abd::WriteReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.value);
  field(ar, m.want_lease);
}
template <typename Ar> void serialize(Ar& ar, abd::WriteAck& m) {
  base_fields(ar, m);
  field(ar, m.lease_expiry);
}

// treas
template <typename Ar> void serialize(Ar& ar, treas::QueryTagReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, treas::QueryTagReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, treas::QueryListReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, treas::QueryListReply& m) {
  base_fields(ar, m);
  field(ar, m.list);
  field(ar, m.confirmed);
}
template <typename Ar> void serialize(Ar& ar, treas::QueryDigestReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, treas::QueryDigestReply& m) {
  base_fields(ar, m);
  field(ar, m.entries);
}
template <typename Ar> void serialize(Ar& ar, treas::PutReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.fragment);
}
template <typename Ar> void serialize(Ar& ar, treas::PutAck& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, treas::ReqFwdCodeElem& m) {
  base_fields(ar, m);
  field(ar, m.transfer_id);
  field(ar, m.reconfigurer);
  field(ar, m.src_config);
  field(ar, m.dst_config);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, treas::FwdCodeElem& m) {
  base_fields(ar, m);
  field(ar, m.transfer_id);
  field(ar, m.reconfigurer);
  field(ar, m.src_config);
  field(ar, m.dst_config);
  field(ar, m.tag);
  field(ar, m.fragment);
}
template <typename Ar> void serialize(Ar& ar, treas::TransferAck& m) {
  base_fields(ar, m);  // plain MessageBody: contributes nothing
  field(ar, m.transfer_id);
}
template <typename Ar> void serialize(Ar& ar, treas::TriggerRepairReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, treas::TriggerRepairAck& m) {
  base_fields(ar, m);
  field(ar, m.started);
}
template <typename Ar> void serialize(Ar& ar, treas::RepairFragReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, treas::RepairFragReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.fragment);
}

// ldr
template <typename Ar> void serialize(Ar& ar, ldr::QueryTagLocReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, ldr::QueryTagLocReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.loc);
  field(ar, m.confirmed);
}
template <typename Ar> void serialize(Ar& ar, ldr::PutMetaReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.loc);
}
template <typename Ar> void serialize(Ar& ar, ldr::PutMetaAck& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, ldr::PutDataReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.value);
}
template <typename Ar> void serialize(Ar& ar, ldr::PutDataAck& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, ldr::GetDataReq& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, ldr::GetDataReply& m) {
  base_fields(ar, m);
  field(ar, m.tag);
  field(ar, m.value);
}

// ares reconfiguration service
template <typename Ar> void serialize(Ar& ar, reconfig::ReadConfigReq& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, reconfig::ReadConfigReply& m) {
  base_fields(ar, m);
  field(ar, m.next);
}
template <typename Ar> void serialize(Ar& ar, reconfig::WriteConfigReq& m) {
  base_fields(ar, m);
  field(ar, m.next);
}
template <typename Ar> void serialize(Ar& ar, reconfig::WriteConfigAck& m) {
  base_fields(ar, m);
}

// paxos
template <typename Ar> void serialize(Ar& ar, consensus::PrepareReq& m) {
  base_fields(ar, m);
  field(ar, m.ballot);
}
template <typename Ar> void serialize(Ar& ar, consensus::PrepareReply& m) {
  base_fields(ar, m);
  field(ar, m.ok);
  field(ar, m.promised);
  field(ar, m.has_accepted);
  field(ar, m.accepted_ballot);
  field(ar, m.accepted_value);
  field(ar, m.decided);
  field(ar, m.decided_value);
}
template <typename Ar> void serialize(Ar& ar, consensus::AcceptReq& m) {
  base_fields(ar, m);
  field(ar, m.ballot);
  field(ar, m.value);
}
template <typename Ar> void serialize(Ar& ar, consensus::AcceptReply& m) {
  base_fields(ar, m);
  field(ar, m.ok);
  field(ar, m.promised);
  field(ar, m.decided);
  field(ar, m.decided_value);
}
template <typename Ar> void serialize(Ar& ar, consensus::DecidedMsg& m) {
  base_fields(ar, m);
  field(ar, m.value);
}

// dap
template <typename Ar> void serialize(Ar& ar, dap::ConfirmMsg& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, dap::LeaseInvalidateMsg& m) {
  base_fields(ar, m);
  field(ar, m.tag);
}
template <typename Ar> void serialize(Ar& ar, dap::LeaseInvalidateAck& m) {
  base_fields(ar, m);
}
template <typename Ar> void serialize(Ar& ar, dap::QueryBatchReq& m) {
  base_fields(ar, m);
  field(ar, m.objects);
  field(ar, m.confirmed_hints);
  field(ar, m.tags_only);
  field(ar, m.want_leases);
}
template <typename Ar> void serialize(Ar& ar, dap::QueryBatchReply& m) {
  base_fields(ar, m);
  field(ar, m.items);
}
template <typename Ar> void serialize(Ar& ar, dap::PutBatchReq& m) {
  base_fields(ar, m);
  field(ar, m.items);
  field(ar, m.want_leases);
}
template <typename Ar> void serialize(Ar& ar, dap::PutBatchReply& m) {
  base_fields(ar, m);
  field(ar, m.next_cs);
  field(ar, m.lease_expiries);
}
template <typename Ar> void serialize(Ar& ar, dap::ConfirmBatchMsg& m) {
  base_fields(ar, m);
  field(ar, m.tags);
}

// storage: config-lineage GC protocol
template <typename Ar> void serialize(Ar& ar, sim::RetiredReply& m) {
  base_fields(ar, m);
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.successor);
}
template <typename Ar> void serialize(Ar& ar, storage::RetireConfigReq& m) {
  base_fields(ar, m);
  field(ar, m.successor);
}
template <typename Ar> void serialize(Ar& ar, storage::RetireConfigAck& m) {
  base_fields(ar, m);
  field(ar, m.retired);
  field(ar, m.bytes_reclaimed);
}

// storage: write-ahead-log records (not RPCs — the WAL frames them on disk
// with the same payload encoding the socket transport uses)
template <typename Ar> void serialize(Ar& ar, storage::WalPut& m) {
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.tag);
  field(ar, m.value);
  field(ar, m.fragment);
}
template <typename Ar> void serialize(Ar& ar, storage::WalCseq& m) {
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.next);
}
template <typename Ar> void serialize(Ar& ar, storage::WalRetire& m) {
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.successor);
}
template <typename Ar> void serialize(Ar& ar, storage::WalPaxos& m) {
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.state.promised);
  field(ar, m.state.has_accepted);
  field(ar, m.state.accepted_ballot);
  field(ar, m.state.accepted_value);
  field(ar, m.state.decided);
  field(ar, m.state.decided_value);
}
template <typename Ar> void serialize(Ar& ar, storage::WalLease& m) {
  field(ar, m.config);
  field(ar, m.object);
  field(ar, m.holder);
  field(ar, m.tag);
  field(ar, m.expiry);
}
template <typename Ar> void serialize(Ar& ar, storage::WalSnapshotHead& m) {
  field(ar, m.record_count);
}
template <typename Ar> void serialize(Ar& ar, storage::WalSnapshotTail& m) {
  field(ar, m.record_count);
}

// --- registry ---------------------------------------------------------------

template <typename T>
void enc_fn(Writer& w, const sim::MessageBody& m) {
  Enc ar{w};
  // Enc only reads the message; the cast exists so one serialize() per type
  // serves both directions.
  serialize(ar, const_cast<T&>(static_cast<const T&>(m)));
}

template <typename T>
sim::BodyPtr dec_fn(Reader& r) {
  auto p = std::make_shared<T>();
  Dec ar{r};
  serialize(ar, *p);
  return p;
}

struct Entry {
  std::uint16_t id;
  std::string_view name;  // must equal T::type_name()
  void (*enc)(Writer&, const sim::MessageBody&);
  sim::BodyPtr (*dec)(Reader&);
};

template <typename T>
constexpr Entry entry(std::uint16_t id, std::string_view name) {
  return Entry{id, name, &enc_fn<T>, &dec_fn<T>};
}

// Ids are wire ABI: append new types with fresh ids, never renumber.
const Entry kEntries[] = {
    // abd: 1-6
    entry<abd::QueryTagReq>(1, "abd.query_tag"),
    entry<abd::QueryTagReply>(2, "abd.query_tag_reply"),
    entry<abd::QueryReq>(3, "abd.query"),
    entry<abd::QueryReply>(4, "abd.query_reply"),
    entry<abd::WriteReq>(5, "abd.write"),
    entry<abd::WriteAck>(6, "abd.write_ack"),
    // treas: 10-24
    entry<treas::QueryTagReq>(10, "treas.query_tag"),
    entry<treas::QueryTagReply>(11, "treas.query_tag_reply"),
    entry<treas::QueryListReq>(12, "treas.query_list"),
    entry<treas::QueryListReply>(13, "treas.query_list_reply"),
    entry<treas::QueryDigestReq>(14, "treas.query_digest"),
    entry<treas::QueryDigestReply>(15, "treas.query_digest_reply"),
    entry<treas::PutReq>(16, "treas.put"),
    entry<treas::PutAck>(17, "treas.put_ack"),
    entry<treas::ReqFwdCodeElem>(18, "treas.req_fwd_code_elem"),
    entry<treas::FwdCodeElem>(19, "treas.fwd_code_elem"),
    entry<treas::TransferAck>(20, "treas.transfer_ack"),
    entry<treas::TriggerRepairReq>(21, "treas.trigger_repair"),
    entry<treas::TriggerRepairAck>(22, "treas.trigger_repair_ack"),
    entry<treas::RepairFragReq>(23, "treas.repair_frag"),
    entry<treas::RepairFragReply>(24, "treas.repair_frag_reply"),
    // ldr: 30-37
    entry<ldr::QueryTagLocReq>(30, "ldr.query_tag_loc"),
    entry<ldr::QueryTagLocReply>(31, "ldr.query_tag_loc_reply"),
    entry<ldr::PutMetaReq>(32, "ldr.put_meta"),
    entry<ldr::PutMetaAck>(33, "ldr.put_meta_ack"),
    entry<ldr::PutDataReq>(34, "ldr.put_data"),
    entry<ldr::PutDataAck>(35, "ldr.put_data_ack"),
    entry<ldr::GetDataReq>(36, "ldr.get_data"),
    entry<ldr::GetDataReply>(37, "ldr.get_data_reply"),
    // ares reconfiguration: 40-43 (44-45 retired: never reuse)
    entry<reconfig::ReadConfigReq>(40, "ares.read_config"),
    entry<reconfig::ReadConfigReply>(41, "ares.read_config_reply"),
    entry<reconfig::WriteConfigReq>(42, "ares.write_config"),
    entry<reconfig::WriteConfigAck>(43, "ares.write_config_ack"),
    // paxos: 50-54
    entry<consensus::PrepareReq>(50, "paxos.prepare"),
    entry<consensus::PrepareReply>(51, "paxos.promise"),
    entry<consensus::AcceptReq>(52, "paxos.accept"),
    entry<consensus::AcceptReply>(53, "paxos.accepted"),
    entry<consensus::DecidedMsg>(54, "paxos.decided"),
    // dap: 60-67
    entry<dap::ConfirmMsg>(60, "dap.confirm"),
    entry<dap::LeaseInvalidateMsg>(61, "dap.lease_invalidate"),
    entry<dap::LeaseInvalidateAck>(62, "dap.lease_invalidate_ack"),
    entry<dap::QueryBatchReq>(63, "dap.query_batch"),
    entry<dap::QueryBatchReply>(64, "dap.query_batch_reply"),
    entry<dap::PutBatchReq>(65, "dap.put_batch"),
    entry<dap::PutBatchReply>(66, "dap.put_batch_ack"),
    entry<dap::ConfirmBatchMsg>(67, "dap.confirm_batch"),
    // storage GC protocol: 70-72
    entry<sim::RetiredReply>(70, "storage.retired"),
    entry<storage::RetireConfigReq>(71, "storage.retire_config"),
    entry<storage::RetireConfigAck>(72, "storage.retire_config_ack"),
    // storage WAL records: 80-86
    entry<storage::WalPut>(80, "wal.put"),
    entry<storage::WalCseq>(81, "wal.cseq"),
    entry<storage::WalRetire>(82, "wal.retire"),
    entry<storage::WalPaxos>(83, "wal.paxos"),
    entry<storage::WalLease>(84, "wal.lease"),
    entry<storage::WalSnapshotHead>(85, "wal.snapshot_head"),
    entry<storage::WalSnapshotTail>(86, "wal.snapshot_tail"),
};

const Entry* find_by_name(std::string_view name) {
  static const auto map = [] {
    std::unordered_map<std::string_view, const Entry*> m;
    for (const Entry& e : kEntries) {
      [[maybe_unused]] const bool inserted = m.emplace(e.name, &e).second;
      assert(inserted && "duplicate wire type name");
    }
    return m;
  }();
  auto it = map.find(name);
  return it == map.end() ? nullptr : it->second;
}

const Entry* find_by_id(std::uint16_t id) {
  static const auto map = [] {
    std::unordered_map<std::uint16_t, const Entry*> m;
    for (const Entry& e : kEntries) {
      [[maybe_unused]] const bool inserted = m.emplace(e.id, &e).second;
      assert(inserted && "duplicate wire type id");
    }
    return m;
  }();
  auto it = map.find(id);
  return it == map.end() ? nullptr : it->second;
}

const Entry& entry_for(const sim::MessageBody& body) {
  const Entry* e = find_by_name(body.type_name());
  if (!e) {
    throw WireError("no wire codec registered for message type '" +
                    std::string(body.type_name()) + "'");
  }
  return *e;
}

}  // namespace

bool is_registered(std::string_view type_name) {
  return find_by_name(type_name) != nullptr;
}

std::uint16_t type_id(std::string_view type_name) {
  const Entry* e = find_by_name(type_name);
  if (!e) {
    throw WireError("unknown wire type name '" + std::string(type_name) + "'");
  }
  return e->id;
}

std::vector<std::string_view> registered_type_names() {
  std::vector<std::string_view> names;
  for (const Entry& e : kEntries) names.push_back(e.name);
  return names;
}

std::vector<std::uint8_t> encode_payload(const sim::MessageBody& body) {
  const Entry& e = entry_for(body);
  std::vector<std::uint8_t> out;
  Writer w(&out);
  e.enc(w, body);
  return out;
}

std::size_t payload_size(const sim::MessageBody& body) {
  const Entry& e = entry_for(body);
  Writer w(nullptr);
  e.enc(w, body);
  return w.size();
}

sim::BodyPtr decode_payload(std::uint16_t id, const std::uint8_t* data,
                            std::size_t len) {
  const Entry* e = find_by_id(id);
  if (!e) throw WireError("unknown wire type id " + std::to_string(id));
  Reader r(data, len);
  sim::BodyPtr body = e->dec(r);
  if (r.remaining() != 0) {
    throw WireError("over-length payload: " + std::to_string(r.remaining()) +
                    " trailing bytes after " + std::string(e->name));
  }
  return body;
}

std::vector<std::uint8_t> encode_frame(ProcessId from, ProcessId to,
                                       const sim::MessageBody& body) {
  const Entry& e = entry_for(body);
  std::vector<std::uint8_t> out;
  Writer w(&out);
  w.u32(0);  // length, patched below
  w.u32(from);
  w.u32(to);
  w.u16(e.id);
  e.enc(w, body);
  const std::size_t len = out.size() - 4;
  if (len > kMaxFrameBytes) throw WireError("frame exceeds kMaxFrameBytes");
  out[0] = static_cast<std::uint8_t>(len);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len >> 16);
  out[3] = static_cast<std::uint8_t>(len >> 24);
  return out;
}

DecodedFrame decode_frame(const std::uint8_t* data, std::size_t len) {
  if (len > kMaxFrameBytes) throw WireError("frame exceeds kMaxFrameBytes");
  Reader r(data, len);
  DecodedFrame f;
  f.from = r.u32();
  f.to = r.u32();
  const std::uint16_t id = r.u16();
  f.body = decode_payload(id, data + (len - r.remaining()), r.remaining());
  return f;
}

std::size_t metadata_bytes(const sim::MessageBody& body) {
  const Entry* e = find_by_name(body.type_name());
  if (!e) return 32;  // nominal constant for unregistered types
  Writer w(nullptr);
  e->enc(w, body);
  return kFrameHeaderBytes + w.size() - body.data_bytes();
}

}  // namespace ares::net::wire
