#include "ares/server.hpp"

#include "dap/factory.hpp"
#include "storage/messages.hpp"
#include "storage/records.hpp"

#include <algorithm>

namespace ares::reconfig {

AresServer::AresServer(sim::Simulator& sim, sim::Transport& net, ProcessId id,
                       const dap::ConfigRegistry& registry)
    : sim::Process(sim, net, id), registry_(registry) {}

std::optional<CseqEntry> AresServer::next_config(ConfigId cfg,
                                                 ObjectId obj) const {
  auto it = configs_.find(cfg);
  if (it == configs_.end()) return std::nullopt;
  auto oit = it->second.objects.find(obj);
  if (oit == it->second.objects.end() || !oit->second.nextc.valid()) {
    return std::nullopt;
  }
  return oit->second.nextc;
}

CseqEntry AresServer::next_config_hint(ConfigId cfg, ObjectId obj) const {
  // Pure lookup: hint stamping must not materialize per-object reconfig
  // state (see the comment in handle()).
  auto it = configs_.find(cfg);
  if (it == configs_.end()) return {};
  auto oit = it->second.objects.find(obj);
  return oit == it->second.objects.end() ? CseqEntry{} : oit->second.nextc;
}

const dap::DapServer* AresServer::dap_state(ConfigId cfg) const {
  auto it = configs_.find(cfg);
  return it == configs_.end() ? nullptr : it->second.dap.get();
}

std::size_t AresServer::stored_data_bytes() const {
  std::size_t sum = 0;
  for (const auto& [cfg, pc] : configs_) {
    if (pc.dap) sum += pc.dap->stored_data_bytes();
  }
  return sum;
}

AresServer::PerConfig* AresServer::config_state(ConfigId cfg) {
  auto it = configs_.find(cfg);
  if (it != configs_.end()) return &it->second;
  if (!registry_.contains(cfg)) return nullptr;
  const auto& spec = registry_.get(cfg);
  const bool member = std::find(spec.servers.begin(), spec.servers.end(),
                                id()) != spec.servers.end();
  if (!member) return nullptr;  // misaddressed message
  PerConfig pc;
  pc.dap = dap::make_dap_server(spec, id());
  if (journal_) pc.dap->set_journal(journal_.get(), cfg);
  auto [ins, _] = configs_.emplace(cfg, std::move(pc));
  return &ins->second;
}

void AresServer::journal_cseq(ConfigId cfg, ObjectId obj,
                              const CseqEntry& next) {
  if (journal_) journal_->cseq(cfg, obj, next);
}

bool AresServer::attach_journal(std::shared_ptr<storage::Device> dev,
                                storage::ServerJournal::Options opts) {
  // journal_ stays unset until replay is done: the typed loops below
  // restore state through the same mutation paths that produced it
  // (config_state materializes DAPs along the way), and none of that may
  // re-journal.
  auto journal =
      std::make_unique<storage::ServerJournal>(std::move(dev), std::move(opts));
  storage::RecoveredState rec = journal->recover();

  // Type-split replay order. cseqs first (config-service pointers), then
  // puts through the protocols' own adopt paths, then acceptor state, then
  // retirements LAST — they re-drop whatever earlier puts resurrected —
  // and finally the leases still unexpired on the recovered clock.
  for (const auto& c : rec.cseqs) {
    if (PerConfig* pc = config_state(c->config)) {
      PerObject& po = pc->objects[c->object];
      if (!po.nextc.valid() || !po.nextc.finalized) po.nextc = c->next;
    }
  }
  for (const auto& p : rec.puts) {
    if (PerConfig* pc = config_state(p->config)) {
      pc->dap->restore_put(p->object, p->tag, p->value, p->fragment);
    }
  }
  for (const auto& x : rec.paxos) {
    if (PerConfig* pc = config_state(x->config)) {
      pc->objects[x->object].paxos.restore(x->state);
    }
  }
  for (const auto& r : rec.retires) {
    if (PerConfig* pc = config_state(r->config)) {
      pc->objects[r->object].paxos = consensus::PaxosAcceptor{};
      const std::size_t bytes = pc->dap->drop_object(r->object);
      if (gc_.retire(r->config, r->object, r->successor)) {
        gc_.note_reclaimed(bytes);
      }
    }
  }
  const SimTime now = simulator().now();
  for (const auto& l : rec.leases) {
    if (l->expiry <= now) continue;
    if (PerConfig* pc = config_state(l->config)) {
      pc->dap->restore_lease(l->object, l->holder, l->tag, l->expiry);
    }
  }

  // Wire journaling only now that replay is done.
  journal_ = std::move(journal);
  journal_->set_snapshot_source(
      [this](const storage::ServerJournal::RecordSink& sink) {
        dump_wal_state(sink);
      });
  for (auto& [cfg, pc] : configs_) {
    if (pc.dap) pc.dap->set_journal(journal_.get(), cfg);
  }
  return rec.intact;
}

void AresServer::dump_wal_state(const storage::ServerJournal::RecordSink& sink) {
  for (auto& [cfg, pc] : configs_) {
    for (const auto& [obj, po] : pc.objects) {
      if (po.nextc.valid()) {
        storage::WalCseq rec;
        rec.config = cfg;
        rec.object = obj;
        rec.next = po.nextc;
        sink(rec);
      }
      const consensus::AcceptorState st = po.paxos.snapshot();
      if (!(st == consensus::AcceptorState{})) {
        storage::WalPaxos rec;
        rec.config = cfg;
        rec.object = obj;
        rec.state = st;
        sink(rec);
      }
    }
    if (pc.dap) {
      dap::ServerContext ctx{*this, registry_.get(cfg), registry_};
      pc.dap->dump_wal(ctx, cfg, sink);
    }
  }
  gc_.for_each([&sink](ConfigId cfg, ObjectId obj, CseqEntry successor) {
    storage::WalRetire rec;
    rec.config = cfg;
    rec.object = obj;
    rec.successor = successor;
    sink(rec);
  });
}

void AresServer::begin_recovery(std::vector<ConfigId> stale_configs) {
  stale_.insert(stale_configs.begin(), stale_configs.end());
}

void AresServer::handle(const sim::Message& msg) {
  auto req = std::dynamic_pointer_cast<const sim::RpcRequest>(msg.body);
  if (!req) return;
  // Amnesia guard: stay silent for configurations served before a restart
  // (crash-stop semantics per old configuration — see begin_recovery).
  if (!stale_.empty() && stale_.contains(req->config)) return;
  PerConfig* pc = config_state(req->config);
  if (pc == nullptr) return;

  // Successor propagation (fenced transfer reads): adopt a piggybacked
  // nextC entry under the same rule as put-config — Alg. 6, never demote a
  // finalized pointer. This installs real reconfiguration state, so
  // materializing the per-object slot here is intentional (unlike the
  // plain-DAP rule below). No lease settling: the transfer runs after a
  // quorum put-config already gated its acks on settlement, and installing
  // the pointer only *adds* fencing (blocks further grants, stamps put
  // acks) — it never unblocks a waiting writer.
  if (req->install_next.valid()) {
    PerObject& inst = pc->objects[req->object];
    if (!inst.nextc.valid() || !inst.nextc.finalized) {
      const bool changed = inst.nextc.cfg != req->install_next.cfg ||
                           inst.nextc.finalized != req->install_next.finalized;
      inst.nextc = req->install_next;
      if (changed) journal_cseq(req->config, req->object, inst.nextc);
    }
  }

  // Reconfiguration-service state (a nextC pointer plus a Paxos acceptor
  // per (configuration, object)) materializes only for the message types
  // that use it — a plain DAP data request must not grow acceptor state.
  if (std::dynamic_pointer_cast<const ReadConfigReq>(msg.body)) {
    auto reply = std::make_shared<ReadConfigReply>();
    reply->next = pc->objects[req->object].nextc;
    reply_to(msg, std::move(reply));
    return;
  }
  if (auto write = std::dynamic_pointer_cast<const WriteConfigReq>(msg.body)) {
    // Alg. 6: adopt if nextC = ⊥ or still pending; once finalized, the
    // pointer never changes again (Lemma 46).
    PerObject& po = pc->objects[req->object];
    if (!po.nextc.valid() || !po.nextc.finalized) {
      const bool changed = po.nextc.cfg != write->next.cfg ||
                           po.nextc.finalized != write->next.finalized;
      po.nextc = write->next;
      // Persist-before-ack: the pointer is durable before the settle gate
      // can release the WriteConfigAck below.
      if (changed) journal_cseq(req->config, req->object, po.nextc);
    }
    // Lease revocation gate: with nextC set, this server mints no further
    // leases for the object (maybe_grant_lease checks the hint), and the
    // put-config ack is withheld until every outstanding lease settled —
    // any client must complete a quorum put-config before writing into a
    // successor configuration, so no newer tag can land in the successor
    // while a lease minted here is live. kMaxTag settles regardless of
    // grant tags (the successor's writes may carry any newer tag).
    dap::ServerContext ctx{*this, registry_.get(req->config), registry_};
    sim::Process* proc = this;
    sim::Message saved = msg;
    pc->dap->settle_leases(ctx, req->object, kMaxTag, msg.from,
                           [proc, saved] {
                             proc->reply_to(
                                 saved, std::make_shared<WriteConfigAck>());
                           });
    return;
  }
  // Config-lineage GC. Retirement requests first: a reconfigurer that
  // completed transfer + finalize into a successor authorizes dropping this
  // configuration's per-object state. The existing nextC pointer is
  // deliberately PRESERVED as the straggler hint — the successor named in
  // the request may be far down the chain, and installing a non-immediate
  // successor would violate the client-side chain invariant (Lemma 47);
  // the tombstone's job is only to authorize the drop and to mark the
  // (configuration, object) retired.
  if (auto retire =
          std::dynamic_pointer_cast<const storage::RetireConfigReq>(msg.body)) {
    auto reply = std::make_shared<storage::RetireConfigAck>();
    if (retire->successor.valid() && retire->successor.finalized) {
      if (gc_.retired(req->config, req->object) == nullptr) {
        pc->objects[req->object].paxos = consensus::PaxosAcceptor{};
        const std::size_t bytes = pc->dap->drop_object(req->object);
        gc_.retire(req->config, req->object, retire->successor);
        gc_.note_reclaimed(bytes);
        if (journal_) {
          journal_->retire(req->config, req->object, retire->successor);
        }
        reply->bytes_reclaimed = bytes;
      }
      reply->retired = true;  // idempotent re-delivery acks success too
    }
    reply_to(msg, std::move(reply));
    return;
  }

  // Retired-state guard: DAP data phases and consensus for a retired
  // (configuration, object) answer with a RetiredReply — the client's
  // quorum collector turns it into a ConfigRetired and the operation
  // re-syncs through Alg. 4 traversal. The configuration-service branches
  // above keep answering from the tombstone (nextC survives retirement),
  // so stragglers can still walk the chain forward. Batch requests are
  // refused if ANY addressed member is retired.
  if (gc_.retired_count() != 0) {
    ObjectId hit = req->object;
    bool retired_hit = gc_.retired(req->config, hit) != nullptr;
    if (!retired_hit) {
      if (auto qb =
              std::dynamic_pointer_cast<const dap::QueryBatchReq>(msg.body)) {
        for (ObjectId obj : qb->objects) {
          if (gc_.retired(req->config, obj) != nullptr) {
            retired_hit = true;
            hit = obj;
            break;
          }
        }
      } else if (auto pb =
                     std::dynamic_pointer_cast<const dap::PutBatchReq>(
                         msg.body)) {
        for (const auto& item : pb->items) {
          if (gc_.retired(req->config, item.object) != nullptr) {
            retired_hit = true;
            hit = item.object;
            break;
          }
        }
      }
    }
    if (retired_hit) {
      auto reply = std::make_shared<sim::RetiredReply>();
      reply->config = req->config;
      reply->object = hit;
      reply->successor = *gc_.retired(req->config, hit);
      reply_to(msg, std::move(reply));
      return;
    }
  }

  if (std::dynamic_pointer_cast<const consensus::PrepareReq>(msg.body) ||
      std::dynamic_pointer_cast<const consensus::AcceptReq>(msg.body) ||
      std::dynamic_pointer_cast<const consensus::DecidedMsg>(msg.body)) {
    PerObject& po = pc->objects[req->object];
    if (journal_) {
      // Journal the acceptor transition when it changed. The reply already
      // left inside handle() — atomic with the append within one simulator
      // event, so persist-before-ack holds for every schedule the fuzzer
      // can produce; a real deployment would split handle() to journal
      // between transition and send.
      const consensus::AcceptorState before = po.paxos.snapshot();
      const bool consumed = po.paxos.handle(*this, msg);
      const consensus::AcceptorState after = po.paxos.snapshot();
      if (!(after == before)) journal_->paxos(req->config, req->object, after);
      if (consumed) return;
    } else if (po.paxos.handle(*this, msg)) {
      return;
    }
  }

  dap::ServerContext ctx{*this, registry_.get(req->config), registry_};
  pc->dap->handle(ctx, msg);
}

}  // namespace ares::reconfig
