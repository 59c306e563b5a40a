#include "dap/dap_server.hpp"

#include "common/mutations.hpp"
#include "dap/messages.hpp"
#include "storage/records.hpp"
#include "storage/wal.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace ares::dap {

Tag DapServer::confirmed_tag(ObjectId obj) const {
  auto it = confirmed_.find(obj);
  return it == confirmed_.end() ? kInitialTag : it->second;
}

void DapServer::raise_confirmed(ObjectId obj, Tag tag) {
  // t0 is confirmed by construction; don't materialize map entries for it.
  if (tag <= kInitialTag) return;
  auto& cur = confirmed_[obj];
  cur = std::max(cur, tag);
}

bool DapServer::absorb_confirmations(const sim::Message& msg) {
  auto req = std::dynamic_pointer_cast<const sim::RpcRequest>(msg.body);
  if (!req) return false;
  raise_confirmed(req->object, req->confirmed_hint);
  if (auto batch = std::dynamic_pointer_cast<const QueryBatchReq>(msg.body)) {
    const std::size_t n =
        std::min(batch->objects.size(), batch->confirmed_hints.size());
    for (std::size_t i = 0; i < n; ++i) {
      raise_confirmed(batch->objects[i], batch->confirmed_hints[i]);
    }
    return false;  // still needs its reply (handle_batch)
  }
  if (auto confirm = std::dynamic_pointer_cast<const ConfirmMsg>(msg.body)) {
    raise_confirmed(confirm->object, confirm->tag);
    return true;  // fire-and-forget: consumed, no reply
  }
  if (auto cb = std::dynamic_pointer_cast<const ConfirmBatchMsg>(msg.body)) {
    for (const auto& item : cb->tags) raise_confirmed(item.object, item.tag);
    return true;  // fire-and-forget: consumed, no reply
  }
  return false;
}

bool DapServer::handle_batch(ServerContext& ctx, const sim::Message& msg) {
  if (!supports_batch()) return false;
  if (auto query = std::dynamic_pointer_cast<const QueryBatchReq>(msg.body)) {
    auto reply = std::make_shared<QueryBatchReply>();
    reply->items.reserve(query->objects.size());
    for (ObjectId obj : query->objects) {
      reply->items.push_back(query_member(ctx, obj, msg.from,
                                          query->tags_only,
                                          query->want_leases));
    }
    ctx.process.reply_to(msg, std::move(reply));
    return true;
  }

  if (auto put = std::dynamic_pointer_cast<const PutBatchReq>(msg.body)) {
    // next_cs are sampled at send time: a put-config landing during a
    // settle window is then visible in the ack hints.
    sim::Process* proc = &ctx.process;
    put_members(ctx, msg, put->items, put->want_leases,
                [proc, put](std::vector<SimTime> grants) {
                  auto reply = std::make_shared<PutBatchReply>();
                  reply->next_cs.reserve(put->items.size());
                  for (const auto& item : put->items) {
                    reply->next_cs.push_back(
                        proc->next_config_hint(put->config, item.object));
                  }
                  if (put->want_leases) {
                    reply->lease_expiries = std::move(grants);
                  }
                  return reply;
                });
    return true;
  }

  return false;
}

BatchQueryItem DapServer::query_member(ServerContext& ctx, ObjectId obj,
                                       ProcessId from, bool tags_only,
                                       bool want_lease) {
  BatchQueryItem item;
  item.object = obj;
  const TagValue tv = query_one(obj);
  item.tag = tv.tag;
  if (!tags_only) {
    note_mix(obj, /*is_write=*/false);
    item.value = tv.value;
    // Lease grants only when asked for: get-tag rounds serve writers and
    // lease-blind readers never install, so minting for them would stall
    // later writers for nothing.
    if (want_lease) {
      item.lease_expiry = maybe_grant_lease(ctx, obj, from, tv.tag);
    }
  }
  item.confirmed = confirmed_tag(obj);
  // Per-member piggybacked configuration discovery: a batch envelope's
  // next_c (stamped by reply_to) covers only the envelope object.
  item.next_c = ctx.process.next_config_hint(ctx.config.id, obj);
  return item;
}

void DapServer::put_members(
    ServerContext& ctx, const sim::Message& msg,
    std::vector<BatchPutItem> items, bool want_leases,
    std::function<std::shared_ptr<sim::RpcReply>(std::vector<SimTime>)>
        make_ack) {
  for (const auto& item : items) {
    note_mix(item.object, /*is_write=*/true);
    put_one(item.object, item.tag, item.value);
  }
  // Adopted now; only the ack — the writer's completion — waits for every
  // item's colliding leases to settle. The callback rebuilds the caller's
  // stack-allocated ServerContext from its stable pieces for the grants.
  const auto shared = std::make_shared<const std::vector<BatchPutItem>>(
      std::move(items));
  auto pending = std::make_shared<std::size_t>(shared->size() + 1);
  auto finish = [this, proc = &ctx.process, saved = msg, shared, want_leases,
                 make_ack = std::move(make_ack), pending, spec = &ctx.config,
                 registry = &ctx.registry] {
    if (--*pending != 0) return;
    std::vector<SimTime> grants(shared->size(), 0);
    if (want_leases) {
      ServerContext ctx2{*proc, *spec, *registry};
      for (std::size_t k = 0; k < shared->size(); ++k) {
        const auto& [obj, tag, value] = (*shared)[k];
        if (query_one(obj).tag == tag) {
          grants[k] = maybe_grant_lease(ctx2, obj, saved.from, tag);
        }
      }
    }
    proc->reply_to(saved, make_ack(std::move(grants)));
  };
  for (const auto& item : *shared) {
    settle_leases(ctx, item.object, item.tag, msg.from, finish);
  }
  finish();  // the +1 guard: fire only after every settle registered
}

// ---------------------------------------------------------------------------
// Per-object read leases (see dap_server.hpp for the protocol contract)
// ---------------------------------------------------------------------------

SimTime DapServer::maybe_grant_lease(ServerContext& ctx, ObjectId obj,
                                     ProcessId client, Tag tag) {
  if (!ctx.config.leases_on()) return 0;
  // Never mint a lease under a superseded configuration: once this server
  // knows a successor, writes may already be completing in it, unseen by
  // this configuration's settle gates.
  if (ctx.process.next_config_hint(ctx.config.id, obj).valid()) return 0;
  const SimTime window = lease_window(ctx.config, obj);
  if (window == 0) return 0;  // adaptively disabled: object is write-hot
  const SimTime expiry = ctx.process.simulator().now() + window;
  leases_[obj][client] = LeaseRecord{tag, expiry};
  if (journal_) journal_->lease(journal_cfg_, obj, client, tag, expiry);
  // Reap the table a little after this grant expires: expired records are
  // pure garbage (lease_count and settle_leases both filter by expiry), so
  // the sweep only bounds memory, never correctness. The epsilon keeps the
  // sweep strictly after the expiry instant even at window granularity.
  schedule_lease_sweep(ctx, obj, expiry + std::max<SimTime>(1, window / 8));
  return expiry;
}

void DapServer::set_journal(storage::ServerJournal* journal, ConfigId cfg) {
  journal_ = journal;
  journal_cfg_ = cfg;
}

void DapServer::journal_put(ObjectId obj, const Tag& tag,
                            const ValuePtr& value,
                            const std::optional<codec::Fragment>& fragment) {
  if (journal_) journal_->put(journal_cfg_, obj, tag, value, fragment);
}

std::size_t DapServer::drop_object(ObjectId obj) {
  confirmed_.erase(obj);
  leases_.erase(obj);
  sweep_at_.erase(obj);
  return 0;  // the base holds no object *data*; overrides add their bytes
}

void DapServer::restore_lease(ObjectId obj, ProcessId holder, const Tag& tag,
                              SimTime expiry) {
  leases_[obj][holder] = LeaseRecord{tag, expiry};
}

void DapServer::dump_wal(ServerContext& ctx, ConfigId cfg,
                         const std::function<void(const sim::MessageBody&)>&
                             sink) const {
  const SimTime now = ctx.process.simulator().now();
  for (const auto& [obj, table] : leases_) {
    for (const auto& [holder, rec] : table) {
      if (rec.expiry <= now) continue;  // expired grants need no durability
      storage::WalLease wl;
      wl.config = cfg;
      wl.object = obj;
      wl.holder = holder;
      wl.tag = rec.tag;
      wl.expiry = rec.expiry;
      sink(wl);
    }
  }
}

std::size_t DapServer::lease_records(ObjectId obj) const {
  auto it = leases_.find(obj);
  return it == leases_.end() ? 0 : it->second.size();
}

void DapServer::schedule_lease_sweep(ServerContext& ctx, ObjectId obj,
                                     SimTime at) {
  auto [it, inserted] = sweep_at_.try_emplace(obj, at);
  if (!inserted) {
    // A sweep is already pending. Pushing the recorded time later is enough
    // to cover this grant: the in-flight timer sees the mismatch, reaps
    // what has expired by then, and re-arms itself at the recorded time.
    if (at > it->second) it->second = at;
    return;
  }
  arm_lease_sweep(&ctx.process, obj, at);
}

void DapServer::arm_lease_sweep(sim::Process* proc, ObjectId obj, SimTime at) {
  proc->simulator().schedule_at(
      at, [this, alive = std::weak_ptr<const bool>(alive_), proc, obj, at] {
        if (!alive.lock()) return;
        auto pending = sweep_at_.find(obj);
        if (pending == sweep_at_.end()) return;  // object dropped meanwhile
        const SimTime now = proc->simulator().now();
        if (auto table = leases_.find(obj); table != leases_.end()) {
          std::erase_if(table->second, [now](const auto& kv) {
            return kv.second.expiry <= now;  // never drop an unexpired
          });                                // promise
          if (table->second.empty()) leases_.erase(table);
        }
        if (pending->second > at) {
          // A later grant pushed the slot forward while this timer was in
          // flight: re-arm at the recorded time instead of clearing it.
          arm_lease_sweep(proc, obj, pending->second);
          return;
        }
        sweep_at_.erase(pending);
      });
}

SimTime DapServer::lease_window(const ConfigSpec& spec, ObjectId obj) const {
  if (!spec.lease_adaptive) return spec.lease_ms;
  // Too few recent samples to judge the mix: grant nothing. A lease is an
  // enforced promise that can stall a kWait writer for the whole window, so
  // a cold object must earn its window with observed read traffic first —
  // the reader merely pays quorum rounds until then. (Granting the full
  // window here instead puts the cold-start stalls straight into the write
  // tail: the adaptive kWait p99 lands above the fixed-window baseline.)
  constexpr std::uint64_t kMinSamples = 8;
  const placement::ObjectLoad load = mix_.window_load(obj);
  if (load.ops() < kMinSamples) return 0;
  const double read_share =
      static_cast<double>(load.reads) / static_cast<double>(load.ops());
  if (read_share <= 0.5) return 0;
  return static_cast<SimTime>(static_cast<double>(spec.lease_ms) *
                              (2.0 * read_share - 1.0));
}

void DapServer::note_mix(ObjectId obj, bool is_write) {
  mix_.record(obj, is_write);
  // Exponential decay every 256 ops keeps the window tracking *recent*
  // traffic: after a mix shift an object's old counters halve away within
  // a few hundred server ops, so the window follows within ~1k ops.
  constexpr std::uint64_t kDecayEvery = 256;
  if (++mix_ops_ % kDecayEvery == 0) mix_.decay_window();
}

std::size_t DapServer::lease_count(ObjectId obj, SimTime now) const {
  auto it = leases_.find(obj);
  if (it == leases_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [holder, rec] : it->second) {
    if (rec.expiry > now) ++n;
  }
  return n;
}

void DapServer::settle_leases(ServerContext& ctx, ObjectId obj, Tag tag,
                              ProcessId writer, std::function<void()> done) {
  if (mutations().disable_lease_ack_gating) {
    // Mutation under test: ack immediately, leases be damned. The fuzzer's
    // oracle must catch the stale local read this enables.
    done();
    return;
  }
  // Deferred paths below hand `done` to simulator timers that capture
  // `this` and the hosting process; guard them so a timer outliving a
  // crashed-and-destroyed server no-ops instead of running into freed
  // state. (The synchronous early-outs need no guard.)
  done = [alive = std::weak_ptr<const bool>(alive_),
          done = std::move(done)] {
    if (alive.lock()) done();
  };
  auto table_it = leases_.find(obj);
  if (table_it == leases_.end()) {
    done();
    return;
  }
  sim::Simulator& sim = ctx.process.simulator();
  const SimTime now = sim.now();
  auto& table = table_it->second;
  std::erase_if(table, [now](const auto& kv) {
    return kv.second.expiry <= now;  // opportunistic GC of expired grants
  });

  std::vector<ProcessId> holders;
  SimTime until = now;
  for (const auto& [holder, rec] : table) {
    if (holder == writer) continue;  // the writer's own stale lease is
                                     // poisoned client-side at write start
    if (rec.tag >= tag) continue;    // lease already covers this tag
    holders.push_back(holder);
    until = std::max(until, rec.expiry);
  }
  if (holders.empty()) {
    done();
    return;
  }

  if (ctx.config.lease_policy == LeasePolicy::kWait) {
    // Timer-based settlement: by `until` every colliding window has
    // expired on the grantor's clock, and holders stop serving ε earlier
    // on their own (see AresClient's skew guard).
    sim.schedule_at(until, std::move(done));
    return;
  }

  // kInvalidate: push an invalidation to every holder; release on the last
  // ack or at window expiry, whichever first (a crashed holder never acks,
  // so the expiry fallback bounds the writer's wait by the lease window).
  struct Settle {
    std::size_t remaining = 0;
    bool fired = false;
    std::function<void()> done;
  };
  auto st = std::make_shared<Settle>();
  st->remaining = holders.size();
  st->done = std::move(done);
  for (ProcessId holder : holders) {
    auto inv = std::make_shared<LeaseInvalidateMsg>();
    inv->config = ctx.config.id;
    inv->object = obj;
    inv->tag = tag;
    // The ack only releases THIS settle — the record stays until it
    // expires. Erasing it here would be unsound: the holder may have had a
    // same-round grant still in flight when it acked (it fenced only tags
    // *below* ours and can legitimately install a lease AT our tag the
    // moment our own write's pair reaches it), and that install counts
    // this server in its backing quorum. A record that outlives every
    // lease it could back merely costs later writers one idempotent
    // re-invalidation; a record erased under a live lease lets a later
    // write assemble an ack quorum with no enforcing member — a stale
    // local read after the write completed.
    ctx.process.call_async(holder, std::move(inv),
                           [st](sim::BodyPtr) {
                             if (!st->fired && --st->remaining == 0) {
                               st->fired = true;
                               st->done();
                             }
                           });
  }
  sim.schedule_at(until, [st] {
    if (!st->fired) {
      st->fired = true;
      st->done();
    }
  });
}

}  // namespace ares::dap
