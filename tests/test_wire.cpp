// Property tests for the wire codec (net/wire.hpp): every registered type
// round-trips encode → decode → re-encode to identical bytes under
// randomized fields (empty and multi-KB values, 0/1/N batch items), and the
// decoder rejects truncated payloads, over-length payloads, and unknown
// type ids. A coverage check keeps the generator table and the registry in
// lock-step so a newly registered type without a generator fails loudly.
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

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace {

using ares::CseqEntry;
using ares::ProcessId;
using ares::Tag;
using ares::Value;
using ares::ValuePtr;
namespace wire = ares::net::wire;

using Rng = std::mt19937_64;

std::uint64_t r64(Rng& g) { return g(); }
std::uint32_t r32(Rng& g) { return static_cast<std::uint32_t>(g()); }
bool rbool(Rng& g) { return (g() & 1) != 0; }

/// Small counts with 0 and 1 well represented (the batch edge cases).
std::size_t rcount(Rng& g, std::size_t max = 8) { return g() % (max + 1); }

Tag rtag(Rng& g) { return Tag{r64(g), r32(g)}; }

CseqEntry rcseq(Rng& g) {
  return CseqEntry{rbool(g) ? r32(g) : ares::kNoConfig, rbool(g)};
}

ares::consensus::Ballot rballot(Rng& g) {
  return ares::consensus::Ballot{r64(g), r32(g)};
}

/// Null, empty, small, or multi-KB — all four must survive the wire, and
/// null vs empty must stay distinct.
ValuePtr rvalue(Rng& g) {
  switch (g() % 4) {
    case 0:
      return nullptr;
    case 1:
      return std::make_shared<Value>();
    case 2: {
      Value v(1 + g() % 64);
      for (auto& b : v) b = static_cast<std::uint8_t>(g());
      return std::make_shared<Value>(std::move(v));
    }
    default: {
      Value v(2048 + g() % 6144);  // 2-8 KB
      for (auto& b : v) b = static_cast<std::uint8_t>(g());
      return std::make_shared<Value>(std::move(v));
    }
  }
}

ares::codec::Fragment rfrag(Rng& g) {
  ares::codec::Fragment f;
  f.index = r32(g) % 16;
  f.data = rvalue(g);
  return f;
}

std::optional<ares::codec::Fragment> ropt_frag(Rng& g) {
  if (rbool(g)) return std::nullopt;
  return rfrag(g);
}

std::vector<ProcessId> rids(Rng& g) {
  std::vector<ProcessId> v(rcount(g));
  for (auto& p : v) p = r32(g);
  return v;
}

void fill_req(ares::sim::RpcRequest& m, Rng& g) {
  m.rpc_id = r64(g);
  m.config = r32(g);
  m.object = r32(g);
  m.confirmed_hint = rtag(g);
}

void fill_reply(ares::sim::RpcReply& m, Rng& g) {
  m.rpc_id = r64(g);
  m.next_c = rcseq(g);
}

using BodyPtr = ares::sim::BodyPtr;
using Generator = std::function<BodyPtr(Rng&)>;

/// One randomized-instance factory per registered wire type, keyed by
/// type_name(). Kept in lock-step with the registry by the Coverage test.
const std::map<std::string, Generator>& generators() {
  static const std::map<std::string, Generator> kGen = [] {
    std::map<std::string, Generator> m;
    const auto add = [&m](Generator gen) {
      Rng probe(0);
      auto name = std::string(gen(probe)->type_name());
      m.emplace(std::move(name), std::move(gen));
    };

    // abd
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::QueryTagReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::QueryTagReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::QueryReq>();
      fill_req(*p, g);
      p->want_lease = rbool(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::QueryReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      p->value = rvalue(g);
      p->confirmed = rtag(g);
      p->lease_expiry = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::WriteReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      p->value = rvalue(g);
      p->want_lease = rbool(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::abd::WriteAck>();
      fill_reply(*p, g);
      p->lease_expiry = r64(g);
      return p;
    });

    // treas
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryTagReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryTagReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryListReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryListReply>();
      fill_reply(*p, g);
      p->list.resize(rcount(g));
      for (auto& e : p->list) {
        e.tag = rtag(g);
        e.fragment = ropt_frag(g);
      }
      p->confirmed = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryDigestReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::QueryDigestReply>();
      fill_reply(*p, g);
      p->entries.resize(rcount(g));
      for (auto& e : p->entries) {
        e.tag = rtag(g);
        e.has_fragment = rbool(g);
      }
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::PutReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      p->fragment = rfrag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::PutAck>();
      fill_reply(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::ReqFwdCodeElem>();
      fill_req(*p, g);
      p->transfer_id = r64(g);
      p->reconfigurer = r32(g);
      p->src_config = r32(g);
      p->dst_config = r32(g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::FwdCodeElem>();
      fill_req(*p, g);
      p->transfer_id = r64(g);
      p->reconfigurer = r32(g);
      p->src_config = r32(g);
      p->dst_config = r32(g);
      p->tag = rtag(g);
      p->fragment = rfrag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::TransferAck>();
      p->transfer_id = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::TriggerRepairReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::TriggerRepairAck>();
      fill_reply(*p, g);
      p->started = rbool(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::RepairFragReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::treas::RepairFragReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      p->fragment = ropt_frag(g);
      return p;
    });

    // ldr
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::QueryTagLocReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::QueryTagLocReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      p->loc = rids(g);
      p->confirmed = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::PutMetaReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      p->loc = rids(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::PutMetaAck>();
      fill_reply(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::PutDataReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      p->value = rvalue(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::PutDataAck>();
      fill_reply(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::GetDataReq>();
      fill_req(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::ldr::GetDataReply>();
      fill_reply(*p, g);
      p->tag = rtag(g);
      p->value = rvalue(g);
      return p;
    });

    // ares reconfiguration
    add([](Rng& g) {
      auto p = std::make_shared<ares::reconfig::ReadConfigReq>();
      fill_req(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::reconfig::ReadConfigReply>();
      fill_reply(*p, g);
      p->next = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::reconfig::WriteConfigReq>();
      fill_req(*p, g);
      p->next = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::reconfig::WriteConfigAck>();
      fill_reply(*p, g);
      return p;
    });

    // paxos
    add([](Rng& g) {
      auto p = std::make_shared<ares::consensus::PrepareReq>();
      fill_req(*p, g);
      p->ballot = rballot(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::consensus::PrepareReply>();
      fill_reply(*p, g);
      p->ok = rbool(g);
      p->promised = rballot(g);
      p->has_accepted = rbool(g);
      p->accepted_ballot = rballot(g);
      p->accepted_value = r64(g);
      p->decided = rbool(g);
      p->decided_value = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::consensus::AcceptReq>();
      fill_req(*p, g);
      p->ballot = rballot(g);
      p->value = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::consensus::AcceptReply>();
      fill_reply(*p, g);
      p->ok = rbool(g);
      p->promised = rballot(g);
      p->decided = rbool(g);
      p->decided_value = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::consensus::DecidedMsg>();
      fill_req(*p, g);
      p->value = r64(g);
      return p;
    });

    // dap
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::ConfirmMsg>();
      fill_req(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::LeaseInvalidateMsg>();
      fill_req(*p, g);
      p->tag = rtag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::LeaseInvalidateAck>();
      fill_reply(*p, g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::QueryBatchReq>();
      fill_req(*p, g);
      p->objects.resize(rcount(g));
      for (auto& o : p->objects) o = r32(g);
      p->confirmed_hints.resize(rcount(g));
      for (auto& t : p->confirmed_hints) t = rtag(g);
      p->tags_only = rbool(g);
      p->want_leases = rbool(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::QueryBatchReply>();
      fill_reply(*p, g);
      p->items.resize(rcount(g));
      for (auto& it : p->items) {
        it.object = r32(g);
        it.tag = rtag(g);
        it.value = rvalue(g);
        it.confirmed = rtag(g);
        it.next_c = rcseq(g);
        it.lease_expiry = r64(g);
      }
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::PutBatchReq>();
      fill_req(*p, g);
      p->items.resize(rcount(g));
      for (auto& it : p->items) {
        it.object = r32(g);
        it.tag = rtag(g);
        it.value = rvalue(g);
      }
      p->want_leases = rbool(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::PutBatchReply>();
      fill_reply(*p, g);
      p->next_cs.resize(rcount(g));
      for (auto& n : p->next_cs) n = rcseq(g);
      p->lease_expiries.resize(rcount(g));
      for (auto& e : p->lease_expiries) e = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::dap::ConfirmBatchMsg>();
      fill_req(*p, g);
      p->tags.resize(rcount(g));
      for (auto& t : p->tags) {
        t.object = r32(g);
        t.tag = rtag(g);
      }
      return p;
    });

    // storage: config-lineage GC protocol
    add([](Rng& g) {
      auto p = std::make_shared<ares::sim::RetiredReply>();
      fill_reply(*p, g);
      p->config = r32(g);
      p->object = r32(g);
      p->successor = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::RetireConfigReq>();
      fill_req(*p, g);
      p->successor = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::RetireConfigAck>();
      fill_reply(*p, g);
      p->retired = rbool(g);
      p->bytes_reclaimed = r64(g);
      return p;
    });

    // storage: WAL record payloads (framed by storage::Wal on disk)
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalPut>();
      p->config = r32(g);
      p->object = r32(g);
      p->tag = rtag(g);
      p->value = rvalue(g);
      p->fragment = ropt_frag(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalCseq>();
      p->config = r32(g);
      p->object = r32(g);
      p->next = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalRetire>();
      p->config = r32(g);
      p->object = r32(g);
      p->successor = rcseq(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalPaxos>();
      p->config = r32(g);
      p->object = r32(g);
      p->state.promised = rballot(g);
      p->state.has_accepted = rbool(g);
      p->state.accepted_ballot = rballot(g);
      p->state.accepted_value = r64(g);
      p->state.decided = rbool(g);
      p->state.decided_value = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalLease>();
      p->config = r32(g);
      p->object = r32(g);
      p->holder = r32(g);
      p->tag = rtag(g);
      p->expiry = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalSnapshotHead>();
      p->record_count = r64(g);
      return p;
    });
    add([](Rng& g) {
      auto p = std::make_shared<ares::storage::WalSnapshotTail>();
      p->record_count = r64(g);
      return p;
    });

    return m;
  }();
  return kGen;
}

constexpr int kIterations = 40;

TEST(Wire, GeneratorCoverageMatchesRegistry) {
  std::vector<std::string> registered;
  for (auto name : wire::registered_type_names()) {
    registered.emplace_back(name);
  }
  std::vector<std::string> generated;
  for (const auto& [name, gen] : generators()) generated.push_back(name);
  std::sort(registered.begin(), registered.end());
  // generators() is a sorted map already.
  EXPECT_EQ(registered, generated)
      << "every registered wire type needs a generator here (and vice versa)";
}

TEST(Wire, RoundTripEveryTypeRandomized) {
  for (const auto& [name, gen] : generators()) {
    Rng g(std::hash<std::string>{}(name));
    for (int i = 0; i < kIterations; ++i) {
      auto msg = gen(g);
      ASSERT_EQ(msg->type_name(), name);
      const auto bytes = wire::encode_payload(*msg);
      EXPECT_EQ(bytes.size(), wire::payload_size(*msg)) << name;

      const auto decoded =
          wire::decode_payload(wire::type_id(name), bytes.data(), bytes.size());
      ASSERT_NE(decoded, nullptr) << name;
      EXPECT_EQ(decoded->type_name(), name);
      // The codec is injective, so byte-identical re-encoding == field
      // equality without a per-type operator==.
      const auto reencoded = wire::encode_payload(*decoded);
      EXPECT_EQ(bytes, reencoded) << name << " iteration " << i;
      // Derived sizes must survive too (data_bytes drives the cost model).
      EXPECT_EQ(decoded->data_bytes(), msg->data_bytes()) << name;
      EXPECT_EQ(decoded->metadata_bytes(), msg->metadata_bytes()) << name;
    }
  }
}

TEST(Wire, FrameRoundTrip) {
  for (const auto& [name, gen] : generators()) {
    Rng g(std::hash<std::string>{}(name) ^ 0x9e3779b97f4a7c15ull);
    auto msg = gen(g);
    const ProcessId from = r32(g);
    const ProcessId to = r32(g);
    const auto frame = wire::encode_frame(from, to, *msg);
    ASSERT_GE(frame.size(), wire::kFrameHeaderBytes) << name;
    // Length prefix covers exactly the rest of the frame.
    const std::uint32_t len = static_cast<std::uint32_t>(frame[0]) |
                              (static_cast<std::uint32_t>(frame[1]) << 8) |
                              (static_cast<std::uint32_t>(frame[2]) << 16) |
                              (static_cast<std::uint32_t>(frame[3]) << 24);
    ASSERT_EQ(len, frame.size() - 4) << name;

    const auto decoded = wire::decode_frame(frame.data() + 4, len);
    EXPECT_EQ(decoded.from, from) << name;
    EXPECT_EQ(decoded.to, to) << name;
    ASSERT_NE(decoded.body, nullptr) << name;
    EXPECT_EQ(wire::encode_payload(*decoded.body), wire::encode_payload(*msg))
        << name;
  }
}

TEST(Wire, RejectsTruncatedPayloads) {
  for (const auto& [name, gen] : generators()) {
    Rng g(std::hash<std::string>{}(name) ^ 0xdeadbeefull);
    auto msg = gen(g);
    const auto bytes = wire::encode_payload(*msg);
    ASSERT_FALSE(bytes.empty()) << name;
    const std::uint16_t id = wire::type_id(name);
    // Every strict prefix must be rejected: either an outright underrun or
    // (when a length field got cut) a trailing-bytes mismatch.
    for (std::size_t cut : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
      EXPECT_THROW((void)wire::decode_payload(id, bytes.data(), cut),
                   wire::WireError)
          << name << " cut to " << cut << " of " << bytes.size();
    }
  }
}

TEST(Wire, RejectsOverLengthPayloads) {
  for (const auto& [name, gen] : generators()) {
    Rng g(std::hash<std::string>{}(name) ^ 0xfeedfaceull);
    auto msg = gen(g);
    auto bytes = wire::encode_payload(*msg);
    bytes.push_back(0x5a);  // one trailing byte nothing consumes
    EXPECT_THROW(
        (void)wire::decode_payload(wire::type_id(name), bytes.data(),
                                   bytes.size()),
        wire::WireError)
        << name;
  }
}

TEST(Wire, RejectsUnknownTypeId) {
  const std::uint8_t none[] = {0};
  EXPECT_THROW((void)wire::decode_payload(0xffff, none, 0), wire::WireError);
  EXPECT_THROW((void)wire::type_id("no.such_type"), wire::WireError);
  EXPECT_FALSE(wire::is_registered("no.such_type"));
}

TEST(Wire, RejectsTruncatedFrameHeader) {
  const std::uint8_t few[8] = {};
  EXPECT_THROW((void)wire::decode_frame(few, sizeof(few)), wire::WireError);
}

TEST(Wire, NullAndEmptyValuesStayDistinct) {
  auto enc = [](ValuePtr v) {
    ares::abd::QueryReply m;
    m.value = std::move(v);
    return wire::encode_payload(m);
  };
  const auto null_bytes = enc(nullptr);
  const auto empty_bytes = enc(std::make_shared<Value>());
  EXPECT_NE(null_bytes, empty_bytes);

  const auto id = wire::type_id("abd.query_reply");
  auto null_rt = std::dynamic_pointer_cast<const ares::abd::QueryReply>(
      wire::decode_payload(id, null_bytes.data(), null_bytes.size()));
  auto empty_rt = std::dynamic_pointer_cast<const ares::abd::QueryReply>(
      wire::decode_payload(id, empty_bytes.data(), empty_bytes.size()));
  ASSERT_NE(null_rt, nullptr);
  ASSERT_NE(empty_rt, nullptr);
  EXPECT_EQ(null_rt->value, nullptr);
  ASSERT_NE(empty_rt->value, nullptr);
  EXPECT_TRUE(empty_rt->value->empty());
}

TEST(Wire, MeasuredMetadataExcludesObjectData) {
  ares::abd::WriteReq m;
  m.tag = Tag{7, 3};
  const auto meta_small = m.metadata_bytes();
  m.value = std::make_shared<Value>(Value(4096, 0xab));
  // Growing the value grows data_bytes, not metadata_bytes.
  EXPECT_EQ(m.data_bytes(), 4096u);
  // (the presence byte exists either way; +4 is the value length field)
  EXPECT_EQ(m.metadata_bytes(), meta_small + 4);
  // And the measured size is the real encoded size.
  EXPECT_EQ(wire::kFrameHeaderBytes + wire::payload_size(m),
            m.metadata_bytes() + m.data_bytes());
}

}  // namespace
