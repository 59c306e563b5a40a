#include "ares/client.hpp"

#include "common/mutations.hpp"
#include "dap/batch.hpp"
#include "dap/factory.hpp"
#include "storage/messages.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>

namespace ares::reconfig {
namespace {

/// Frame-scoped in-flight markers: while any operation coroutine holding
/// indices into an object's cseq is suspended, trim_cseq must not rebase
/// the sequence. Destroyed with the coroutine frame, so exceptional exits
/// release the marks too.
struct InflightGuards {
  std::vector<std::size_t*> counts;
  void hold(std::size_t& n) {
    ++n;
    counts.push_back(&n);
  }
  InflightGuards() = default;
  InflightGuards(const InflightGuards&) = delete;
  InflightGuards& operator=(const InflightGuards&) = delete;
  ~InflightGuards() {
    for (std::size_t* n : counts) --*n;
  }
};

/// Piggybacked nextC discovery is sound for a configuration iff its DAP
/// phase quorums intersect every reconfiguration-service quorum on the same
/// configuration (so a completed put-config is always visible in at least
/// one reply). ABD and TREAS phases wait on server quorums (≥ a majority of
/// c.Servers); LDR phases talk to directory majorities / replica subsets,
/// which need not intersect a server quorum — LDR tails therefore always
/// take the explicit read-config round.
bool covers_config_hints(const dap::ConfigSpec& spec) {
  return spec.protocol != dap::Protocol::kLdr;
}

}  // namespace

AresClient::AresClient(sim::Simulator& sim, sim::Transport& net, ProcessId id,
                       dap::ConfigRegistry& registry, ConfigId c0,
                       checker::HistoryRecorder* recorder)
    : sim::Process(sim, net, id),
      registry_(registry),
      recorder_(recorder),
      default_c0_(c0) {
  assert(registry_.contains(c0));
  // Objects bind lazily (obj_state), so a multi-object store may
  // bind_object() any id — including kDefaultObject — to a different
  // initial configuration before its first operation.
}

AresClient::~AresClient() = default;

void AresClient::bind_object(ObjectId obj, ConfigId c0) {
  assert(registry_.contains(c0));
  auto [it, inserted] = objects_.try_emplace(obj);
  if (!inserted) {
    assert(it->second.cseq[0].cfg == c0 &&
           "object already bound to a different initial configuration");
    return;
  }
  it->second.cseq.push_back(CseqEntry{c0, true});  // cseq[0] = ⟨c0, F⟩
}

AresClient::ObjectState& AresClient::obj_state(ObjectId obj) {
  auto [it, inserted] = objects_.try_emplace(obj);
  if (inserted) {
    assert(registry_.contains(default_c0_));
    it->second.cseq.push_back(CseqEntry{default_c0_, true});
  }
  return it->second;
}

void AresClient::handle(const sim::Message& msg) {
  // Plain clients receive RPC replies (routed before handle()) plus the
  // lease invalidations servers push under LeasePolicy::kInvalidate; other
  // one-way messages such as TransferAck are handled by subclasses.
  if (auto inv =
          std::dynamic_pointer_cast<const dap::LeaseInvalidateMsg>(msg.body)) {
    auto it = objects_.find(inv->object);
    if (it != objects_.end()) {
      // Poison only a lease minted under the invalidating configuration:
      // a straggler settle at a superseded configuration (whose stale
      // record for us has not expired yet) says nothing about a lease we
      // since acquired under the successor — that one is protected by the
      // successor's own settle gates.
      if (it->second.lease.has_value() &&
          it->second.lease->cfg == inv->config) {
        it->second.lease.reset();
      }
      // Raise the install fence: a grant that left a server before this
      // invalidation may still be in flight, and the invalidating writer
      // may complete the moment we ack — installing that stale grant later
      // would serve a value older than a completed write.
      Tag& fence = it->second.lease_fence[inv->config];
      fence = std::max(fence, inv->tag);
    }
    // Ack even for unknown objects: the settling server awaits it.
    reply_to(msg, std::make_shared<dap::LeaseInvalidateAck>());
    return;
  }
}

void AresClient::note_config_hint(ConfigId cfg, ObjectId obj,
                                  const CseqEntry& next) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return;  // reply for an object we dropped state of
  ObjectState& st = it->second;
  for (std::size_t i = 0; i < st.cseq.size(); ++i) {
    if (st.cseq[i].cfg != cfg) continue;
    if (i + 1 == st.cseq.size()) {
      // A successor we did not know: the cached sequence is stale until a
      // full traversal confirms where GL currently ends — and any lease
      // minted on the now-superseded tail must not serve another read.
      st.cseq.push_back(next);
      st.synced = false;
      st.lease.reset();
    } else {
      // Configuration Uniqueness (Lemma 47): only the status can be news.
      assert(st.cseq[i + 1].cfg == next.cfg);
      st.cseq[i + 1].finalized = st.cseq[i + 1].finalized || next.finalized;
    }
    return;
  }
}

const std::vector<CseqEntry>& AresClient::cseq(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    throw std::out_of_range(
        "AresClient::cseq: object not bound — call bind_object() (or run an "
        "operation on it) before observing its configuration sequence");
  }
  return it->second.cseq;
}

std::size_t AresClient::mu(ObjectId obj) const {
  const auto& cs = cseq(obj);
  for (std::size_t i = cs.size(); i-- > 0;) {
    if (cs[i].finalized) return i;
  }
  assert(false && "cseq[0] is always finalized");
  return 0;
}

void AresClient::set_entry(ObjectId obj, std::size_t idx, CseqEntry e) {
  ObjectState& st = obj_state(obj);
  auto& cs = st.cseq;
  assert(e.valid());
  assert(idx <= cs.size());
  if (idx == cs.size()) {
    cs.push_back(e);
    // The sequence grew: a lease minted on the previous tail is revoked
    // (reconfigurations — own or Rebalancer-driven — land here).
    st.lease.reset();
    return;
  }
  // Configuration Uniqueness (Lemma 47): the id in one slot never differs.
  assert(cs[idx].cfg == e.cfg);
  cs[idx].finalized = cs[idx].finalized || e.finalized;
}

const std::shared_ptr<dap::Dap>& AresClient::dap_for(ObjectId obj,
                                                     ConfigId cfg) {
  auto& daps = obj_state(obj).daps;
  auto it = daps.find(cfg);
  if (it == daps.end()) {
    it = daps.emplace(cfg, dap::make_dap(*this, registry_.get(cfg), obj))
             .first;
  }
  return it->second;
}

bool AresClient::tail_covers_hints(ObjectId obj) {
  return covers_config_hints(registry_.get(cseq(obj)[nu(obj)].cfg));
}

// ---------------------------------------------------------------------------
// Config-lineage GC (client side)
// ---------------------------------------------------------------------------

void AresClient::broadcast_retire(ObjectId obj, std::size_t upto,
                                  CseqEntry successor) {
  const auto& cs = cseq(obj);
  assert(upto <= cs.size());
  for (std::size_t i = 0; i < upto; ++i) {
    const ConfigId cfg = cs[i].cfg;
    for (ProcessId s : registry_.get(cfg).servers) {
      auto req = std::make_shared<storage::RetireConfigReq>();
      req->config = cfg;
      req->object = obj;
      req->successor = successor;
      send(s, std::move(req));
    }
  }
}

void AresClient::trim_cseq(ObjectId obj) {
  // Only under config-lineage GC: without it the full lineage stays live on
  // the servers and the (observable) client view keeps every entry.
  if (!config_gc_) return;
  auto it = objects_.find(obj);
  if (it == objects_.end()) return;
  ObjectState& st = it->second;
  if (st.inflight != 0) return;  // suspended ops hold indices into cseq
  std::size_t m = 0;
  for (std::size_t i = st.cseq.size(); i-- > 0;) {
    if (st.cseq[i].finalized) {
      m = i;
      break;
    }
  }
  if (m == 0) return;
  // Every entry below µ is superseded by a finalized successor and — once
  // the retirer's GC broadcast lands — answered only from tombstones.
  // Rebasing keeps cseq[0] finalized (the new base IS µ) and caps the
  // client's footprint at the live suffix of the lineage.
  for (std::size_t i = 0; i < m; ++i) {
    const ConfigId cfg = st.cseq[i].cfg;
    st.daps.erase(cfg);
    st.proposers.erase(cfg);
    st.lease_fence.erase(cfg);
  }
  st.cseq.erase(st.cseq.begin(),
                st.cseq.begin() + static_cast<std::ptrdiff_t>(m));
}

sim::Future<void> AresClient::resync_after_retire(ObjectId obj) {
  obj_state(obj).synced = false;
  // The traversal only talks to the configuration service, which keeps
  // answering from tombstones — it cannot itself be bounced. The retirer
  // finalized the successor before any retirement, so µ lands past every
  // retired entry and the retried phases touch only live configurations.
  co_await read_config(obj);
  co_return;
}

sim::Future<void> AresClient::complete_write(ObjectId obj, TagValue tv) {
  for (;;) {
    bool retired = false;
    try {
      // Re-put into each new tail until the sequence stops growing.
      std::size_t v = nu(obj);
      for (;;) {
        auto put = dap_for(obj, cseq(obj)[v].cfg)->put_data(tv);
        co_await put;
        co_await read_config(obj);
        if (nu(obj) == v) break;
        v = nu(obj);
      }
    } catch (const sim::ConfigRetired&) {
      retired = true;
    }
    if (!retired) co_return;
    auto rs = resync_after_retire(obj);
    co_await rs;
  }
}

// ---------------------------------------------------------------------------
// Per-object read leases (client side)
// ---------------------------------------------------------------------------

SimTime AresClient::lease_now() const {
  const auto skewed =
      static_cast<std::int64_t>(simulator().now()) + clock_skew_;
  return skewed < 0 ? 0 : static_cast<SimTime>(skewed);
}

bool AresClient::lease_usable(ObjectId obj, const ObjectState& st) const {
  if (!fast_path_ || !st.lease.has_value()) return false;
  const LeaseEntry& le = *st.lease;
  // The steady state the lease was minted in must still hold: the cached
  // sequence is synced and is exactly the single (finalized) configuration
  // the grants came from. Any growth poisons the entry, so these checks
  // are belt and braces.
  if (!st.synced || st.cseq.back().cfg != le.cfg) return false;
  if (mu(obj) != nu(obj)) return false;
  // ε guard: serve only while local_clock < expiry − ε. A real skew within
  // ±ε then keeps every local read inside the window the granting servers
  // enforce against writers.
  return lease_now() + lease_epsilon_ < le.expiry;
}

bool AresClient::holds_lease(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it != objects_.end() && lease_usable(obj, it->second);
}

bool AresClient::try_lease_read(ObjectId obj, TagValue& out) {
  ObjectState& st = obj_state(obj);
  if (!lease_usable(obj, st)) return false;
  out = TagValue{st.lease->tag, st.lease->value};
  ++lease_local_reads_;
  return true;
}

void AresClient::install_lease(ObjectId obj, ConfigId cfg, TagValue tv,
                               SimTime expiry) {
  ObjectState& st = obj_state(obj);
  // Install fence: a server invalidated tag f for this configuration while
  // our quorum round (whose grants predate the invalidation) was still in
  // flight — the invalidating write may already be complete, so only a
  // pair at least as new may be served locally.
  auto fit = st.lease_fence.find(cfg);
  if (fit != st.lease_fence.end() && tv.tag < fit->second) return;
  st.lease = LeaseEntry{cfg, tv.tag, tv.value, expiry};
  schedule_lease_reaper(obj, expiry);
}

void AresClient::schedule_lease_reaper(ObjectId obj, SimTime expiry) {
  // Expiry reaper: the lazy validity check already refuses a stale entry;
  // this timer wakeup frees the cached value bytes at window end. It fires
  // on the *client's* clock — the moment lease_usable() turns false — so a
  // skewed clock extends the real-time deadline exactly as it extends the
  // serving window (the hazard the ε guard bounds; reaping on true sim
  // time would silently mask it).
  const SimTime ln = lease_now();
  const SimDuration delay =
      ln + lease_epsilon_ < expiry ? expiry - lease_epsilon_ - ln + 1 : 1;
  std::weak_ptr<char> alive = lease_timer_token_;
  simulator().schedule_after(delay, [this, alive, obj, expiry] {
    if (alive.expired()) return;
    auto it = objects_.find(obj);
    if (it == objects_.end() || !it->second.lease.has_value()) return;
    if (it->second.lease->expiry > expiry) return;  // renewed since
    if (lease_now() + lease_epsilon_ < it->second.lease->expiry) {
      // The local clock has not reached the window end yet (skew): retry.
      schedule_lease_reaper(obj, it->second.lease->expiry);
      return;
    }
    it->second.lease.reset();
  });
}

void AresClient::poison_lease(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it != objects_.end()) it->second.lease.reset();
}

// ---------------------------------------------------------------------------
// Sequence traversal (Algorithm 4)
// ---------------------------------------------------------------------------

sim::Future<std::optional<CseqEntry>> AresClient::read_next_config(
    ObjectId obj, ConfigId c) {
  const auto& spec = registry_.get(c);
  auto req = std::make_shared<ReadConfigReq>();
  req->config = c;
  req->object = obj;
  auto qc = sim::broadcast_collect<ReadConfigReply>(*this, spec.servers,
                                                    std::move(req));
  co_await qc.wait_for(spec.quorum_size());
  std::optional<CseqEntry> result;
  for (const auto& a : qc.arrivals()) {
    if (!a.reply->next.valid()) continue;
    if (!result || (a.reply->next.finalized && !result->finalized)) {
      result = a.reply->next;
    }
  }
  co_return result;
}

sim::Future<void> AresClient::put_config(ObjectId obj, ConfigId c,
                                         CseqEntry e) {
  const auto& spec = registry_.get(c);
  auto req = std::make_shared<WriteConfigReq>();
  req->config = c;
  req->object = obj;
  req->next = e;
  auto qc = sim::broadcast_collect<WriteConfigAck>(*this, spec.servers,
                                                   std::move(req));
  co_await qc.wait_for(spec.quorum_size());
  co_return;
}

sim::Future<void> AresClient::read_config(ObjectId obj) {
  (void)obj_state(obj);  // lazily bind to the default c0 on first use
  // Start from the last *finalized* configuration and chase nextC pointers
  // to the end of GL, helping propagate every link discovered (Alg. 4).
  std::size_t idx = mu(obj);
  for (;;) {
    std::optional<CseqEntry> next =
        co_await read_next_config(obj, cseq(obj)[idx].cfg);
    if (!next) {
      // A piggybacked hint (e.g. from a late reply of an earlier round) may
      // have extended the sequence past idx even though this quorum round
      // reported ⊥ — keep chasing from the extended entry.
      if (nu(obj) > idx) {
        co_await put_config(obj, cseq(obj)[idx].cfg, cseq(obj)[idx + 1]);
        ++idx;
        continue;
      }
      break;
    }
    set_entry(obj, idx + 1, *next);
    co_await put_config(obj, cseq(obj)[idx].cfg, cseq(obj)[idx + 1]);
    ++idx;
  }
  // No suspension between the loop's exit condition and here, so no hint
  // can sneak in: the traversal really reached the current end of GL.
  obj_state(obj).synced = true;
  co_return;
}

sim::Future<void> AresClient::ensure_config(ObjectId obj) {
  ObjectState& st = obj_state(obj);
  if (fast_path_ && st.synced && tail_covers_hints(obj)) {
    co_return;  // steady state: the cached cseq is current — zero rounds
  }
  co_await read_config(obj);
  co_return;
}

// ---------------------------------------------------------------------------
// Read / write operations (Algorithm 7): one engine for scalar and batched
// ops, with the steady-state fast path
// ---------------------------------------------------------------------------

sim::Future<TagValue> AresClient::read(ObjectId obj) {
  // Lease fast path: a valid window serves the read entirely locally —
  // zero quorum rounds, zero messages, no engine state.
  if (TagValue leased; try_lease_read(obj, leased)) {
    if (recorder_ != nullptr) {
      const std::uint64_t op = recorder_->begin(
          id(), checker::OpKind::kRead, simulator().now(), obj);
      recorder_->end(op, simulator().now(), leased.tag, leased.value);
    }
    co_return leased;
  }
  auto run = run_members({obj}, {});
  const std::vector<TagValue> out = co_await run;
  co_return out.front();
}

sim::Future<Tag> AresClient::write(ObjectId obj, ValuePtr value) {
  auto run = run_members({obj}, {std::move(value)});
  const std::vector<TagValue> out = co_await run;
  co_return out.front().tag;
}

sim::Future<std::vector<TagValue>> AresClient::run_members(
    std::vector<ObjectId> objs, std::vector<ValuePtr> values) {
  const bool writes = !values.empty();
  std::vector<Member> ms(objs.size());
  InflightGuards guard;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    Member& m = ms[i];
    m.obj = objs[i];
    if (writes) m.tv.value = values[i];
    trim_cseq(m.obj);
    guard.hold(obj_state(m.obj).inflight);  // lazily binds to the default c0
    // An own write outdates any locally cached pair: the servers' settle
    // gates exclude the writer itself, so the writer revokes its own lease.
    if (writes) poison_lease(m.obj);
    if (recorder_ != nullptr) {
      m.rec = recorder_->begin(
          id(), writes ? checker::OpKind::kWrite : checker::OpKind::kRead,
          simulator().now(), m.obj);
    }
  }
  for (;;) {
    // One wave: every unfinished member, one op per object at a time (a
    // repeated write needs a distinct tag, so it waits for a later wave).
    std::vector<std::size_t> wave;
    std::set<ObjectId> busy;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].step != Member::Step::kDone && busy.insert(ms[i].obj).second) {
        wave.push_back(i);
      }
    }
    if (wave.empty()) break;
    for (std::size_t i : wave) {
      Member& m = ms[i];
      // Lease fast path: a valid window serves the read locally.
      if (!writes && m.step == Member::Step::kQuery &&
          try_lease_read(m.obj, m.tv)) {
        m.step = Member::Step::kDone;
        continue;
      }
      // Resolve the configuration (zero rounds once synced).
      if (!m.traversed) co_await ensure_config(m.obj);
      m.traversed = false;
    }
    // Members stable in one batch-capable tail share its rounds; every
    // other member runs alone.
    std::vector<std::vector<std::size_t>> groups;
    std::map<ConfigId, std::size_t> shared;  // tail -> its group
    for (std::size_t i : wave) {
      if (ms[i].step == Member::Step::kDone) continue;
      const ObjectId obj = ms[i].obj;
      const ObjectState& st = obj_state(obj);
      const ConfigId tail = st.cseq.back().cfg;
      if (st.synced && mu(obj) == nu(obj) &&
          dap::batch_capable(registry_.get(tail))) {
        auto [it, fresh] = shared.try_emplace(tail, groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(i);
      } else {
        groups.push_back({i});
      }
    }
    for (auto& group : groups) {
      auto attempt = run_group(ms, group, writes);
      co_await attempt;
    }
  }
  std::vector<TagValue> out;
  for (const Member& m : ms) {
    out.push_back(m.tv);
    if (recorder_ != nullptr) {
      recorder_->end(m.rec, simulator().now(), m.tv.tag, m.tv.value);
    }
  }
  co_return out;
}

sim::Future<void> AresClient::run_group(std::vector<Member>& ms,
                                        std::vector<std::size_t> group,
                                        bool writes) {
  using Step = Member::Step;
  bool retired = false;
  try {
    // --- query phase: max tag (reads: max pair) across µ..ν ---------------
    std::vector<std::size_t> q;
    std::ranges::copy_if(group, std::back_inserter(q), [&](std::size_t i) {
      return ms[i].step == Step::kQuery;
    });
    if (!q.empty()) {
      // Group members sat at µ = ν when grouped; a member alone may span
      // µ..ν. Any member whose tail moved since is caught below.
      const ObjectId lead = ms[q.front()].obj;
      const std::size_t m0 = mu(lead);
      const std::size_t v0 = nu(lead);
      const ConfigId tail = cseq(lead)[v0].cfg;
      std::vector<dap::MemberResult> best(q.size());
      for (std::size_t i = m0; i <= v0; ++i) {
        // Ask for grants only when the whole sequence is this one
        // configuration — the settle gates of a superseded configuration
        // do not cover writes landing in its successors, and a grant the
        // client cannot install would still stall later writers.
        const bool want_lease = !writes && fast_path_ && m0 == v0 && i == v0;
        const ConfigId cfg = cseq(lead)[i].cfg;
        std::vector<dap::Dap*> daps;
        for (std::size_t k : q) daps.push_back(dap_for(ms[k].obj, cfg).get());
        auto round = dap::query_round(*this, registry_.get(cfg),
                                      std::move(daps), /*tags_only=*/writes,
                                      want_lease);
        const std::vector<dap::MemberResult> rs = co_await round;
        for (std::size_t k = 0; k < q.size(); ++k) {
          if (rs[k].next_c.valid()) {
            note_config_hint(cfg, ms[q[k]].obj, rs[k].next_c);
          }
          if (rs[k].tv.tag > best[k].tv.tag || (!writes && !best[k].tv.value)) {
            best[k] = rs[k];
          }
        }
      }
      for (std::size_t k = 0; k < q.size(); ++k) {
        Member& m = ms[q[k]];
        // A hint revealed a successor: re-run the phase after a traversal.
        if (cseq(m.obj).back().cfg != tail) continue;
        m.step = Step::kPut;
        if (writes) {
          m.tv.tag = best[k].tv.tag.next(id());
          // Record the tag pre-put: a crashed writer's value may surface.
          if (recorder_ != nullptr) {
            recorder_->note_write_tag(m.rec, m.tv.tag, m.tv.value);
          }
          continue;
        }
        m.tv = best[k].tv;
        if (!m.tv.value) m.tv.value = initial_value();  // initial v0
        m.lease = best[k].lease_expiry;
        m.lease_cfg = tail;
        // Semifast read: a tag already quorum-confirmed in the single
        // configuration needs no write-back. The confirmation is evidence
        // about the *past*, so any transfer sampling after our replies sees
        // the tag by quorum intersection, and a put-config completed before
        // them showed up as a hint (the re-run above). A write's tag, by
        // contrast, reaches a quorum only concurrently with its put round.
        if (fast_path_ && best[k].confirmed && m0 == v0 &&
            tail_covers_hints(m.obj)) {
          finish(m);
        }
      }
    }

    // --- put phase: propagate each pair into the tail ---------------------
    std::vector<std::size_t> p;
    std::ranges::copy_if(group, std::back_inserter(p), [&](std::size_t i) {
      return ms[i].step == Step::kPut;
    });
    if (p.empty()) co_return;
    const ObjectId lead = ms[p.front()].obj;
    const ConfigId tail = cseq(lead).back().cfg;
    std::erase_if(p, [&](std::size_t i) {
      return cseq(ms[i].obj).back().cfg != tail;  // moved: next wave
    });
    // Ask for a write-ack lease only in the single-tail steady state the
    // install premise needs (mirrors the read query's want_lease).
    const bool want_lease = writes && fast_path_ && obj_state(lead).synced &&
                            mu(lead) == nu(lead) && tail_covers_hints(lead);
    std::vector<dap::PutMember> puts;
    for (std::size_t i : p) {
      puts.push_back({dap_for(ms[i].obj, tail).get(), ms[i].tv});
    }
    auto round = dap::put_round(*this, registry_.get(tail), std::move(puts),
                                want_lease);
    const std::vector<dap::MemberResult> acks = co_await round;
    for (std::size_t k = 0; k < p.size(); ++k) {
      if (acks[k].next_c.valid()) {
        note_config_hint(tail, ms[p[k]].obj, acks[k].next_c);
      }
    }
    // The post-put read-config is elidable when the ack quorum came back
    // hint-free: a racing transfer's fenced read waits for a quorum that
    // installed the successor pointer, which intersects our ack quorum —
    // that server either acked our put first (the transfer sees our tag)
    // or replied fenced first, and then its ack carries the pointer and we
    // take the round after all (see FastPath.WriteDiscoversReconfig-
    // CompletingDuringPutRound). LDR tails never elide, so LDR sources
    // need no fence.
    bool elided = false;
    std::vector<std::size_t> check;
    for (std::size_t k = 0; k < p.size(); ++k) {
      Member& m = ms[p[k]];
      const ObjectState& st = obj_state(m.obj);
      if (!(fast_path_ && st.synced && st.cseq.back().cfg == tail &&
            tail_covers_hints(m.obj))) {
        check.push_back(p[k]);
        continue;
      }
      elided = true;
      // Write-ack lease: a full quorum granted on the ack, certifying our
      // pair is each granting server's current register — the writer
      // immediately re-leases its own value. (Reads never ask.)
      if (acks[k].lease_expiry > 0) {
        m.lease = acks[k].lease_expiry;
        m.lease_cfg = tail;
      }
      finish(m);
    }
    if (elided) note_round_elided();
    for (std::size_t i : check) {
      Member& m = ms[i];
      co_await read_config(m.obj);
      if (cseq(m.obj).back().cfg != tail) {
        m.traversed = true;  // re-put into the new tail next wave
      } else {
        finish(m);
      }
    }
    co_return;
  } catch (const sim::ConfigRetired&) {
    retired = true;
  }
  if (!retired) co_return;
  // A quorum round bounced off garbage-collected state: re-sync every
  // unfinished member. Reads are side-effect free up to their write-back
  // and untagged writes may still pick a fresh tag, so both restart in the
  // next wave; a write whose tag is recorded history re-propagates that
  // SAME pair instead (complete_write).
  for (std::size_t i : group) {
    Member& m = ms[i];
    if (m.step == Step::kDone) continue;
    co_await resync_after_retire(m.obj);
    if (writes && m.step == Step::kPut) {
      auto fin = complete_write(m.obj, m.tv);
      co_await fin;
      m.step = Step::kDone;
    } else {
      m.step = Step::kQuery;
    }
  }
}

void AresClient::finish(Member& m) {
  // The pair is quorum-resident now; install its lease (a read's query
  // grant, a write's ack grant) unless a successor revealed meanwhile
  // broke the steady state the grant was minted in.
  if (fast_path_ && m.lease > 0) {
    const ObjectState& st = obj_state(m.obj);
    if (st.synced && mu(m.obj) == nu(m.obj) &&
        st.cseq.back().cfg == m.lease_cfg) {
      install_lease(m.obj, m.lease_cfg, m.tv, m.lease);
    }
  }
  m.step = Member::Step::kDone;
}

// ---------------------------------------------------------------------------
// Reconfiguration (Algorithm 5)
// ---------------------------------------------------------------------------

sim::Future<consensus::PaxosValue> AresClient::propose(ObjectId obj,
                                                       ConfigId on_cfg,
                                                       ConfigId value) {
  auto& proposers = obj_state(obj).proposers;
  auto it = proposers.find(on_cfg);
  if (it == proposers.end()) {
    it = proposers
             .emplace(on_cfg, std::make_unique<consensus::PaxosProposer>(
                                  *this, on_cfg,
                                  registry_.get(on_cfg).servers,
                                  simulator().rng().next_u64(),
                                  /*backoff_base=*/8, obj))
             .first;
  }
  return it->second->propose(value);
}

sim::Future<void> AresClient::update_config(ObjectId obj) {
  // Algorithm 5 update-config: pull the max tag-value pair from every
  // configuration in cseq[µ..ν] through this client, then push it into the
  // newly added configuration ν. (The value flows through the client — the
  // bottleneck ARES-TREAS removes; see arestreas::DirectAresClient.)
  const std::size_t m = mu(obj);
  const std::size_t v = nu(obj);
  TagValue best{kInitialTag, nullptr};
  for (std::size_t i = m; i <= v; ++i) {
    // Fenced on every transfer *source* (i < v): count only replies whose
    // server echoes the installed successor pointer, so the transfer is
    // ordered against concurrent writes whose post-put config check was
    // elided (see run_group). The fence carries cseq[i+1] and installs it
    // on every replying server, so any live quorum suffices. The tail
    // (i == v) has no successor pointer yet and stays unfenced — it is the
    // transfer *destination*, not a source.
    TagValue tv;
    bool lost = false;
    try {
      if (i < v) {
        auto fut =
            dap_for(obj, cseq(obj)[i].cfg)->get_data_fenced(cseq(obj)[i + 1]);
        tv = co_await fut;
      } else {
        auto fut = dap_for(obj, cseq(obj)[i].cfg)->get_data();
        tv = co_await fut;
      }
    } catch (const sim::ConfigRetired&) {
      // A transfer source was retired out from under the transfer. Under
      // the skip_gc_quorum_check mutation this is exactly the injected bug:
      // GC raced ahead of the state transfer and the source's data is gone
      // — the source contributes nothing and the (lossy) transfer
      // completes, so the atomicity oracle can observe the lost write.
      // Without the mutation the correct reaction is to abort and re-sync.
      if (!mutations().skip_gc_quorum_check) throw;
      lost = true;
    }
    if (lost) continue;
    if (tv.value) update_config_bytes_ += tv.value->size();  // pulled in
    best = max_by_tag(best, tv);
  }
  if (!best.value) best.value = initial_value();
  update_config_bytes_ += best.value->size();  // pushed out
  co_await dap_for(obj, cseq(obj)[v].cfg)->put_data(best);
  co_return;
}

sim::Future<ConfigId> AresClient::reconfig(ObjectId obj,
                                           dap::ConfigSpec new_spec) {
  (void)obj_state(obj);  // lazily bind to the default c0 on first use
  // Make the proposed spec resolvable by every process (the simulation's
  // equivalent of shipping the spec alongside its id).
  if (!registry_.contains(new_spec.id)) {
    registry_.register_config(new_spec);
  }

  // Reconfig holds cseq indices (v, last) across suspension points: pin the
  // cseq against trim_cseq rebasing by concurrent ops on this client.
  InflightGuards guard;
  guard.hold(obj_state(obj).inflight);

  ConfigId decided = kNoConfig;
  for (;;) {
    bool retired = false;
    try {
      // Phase 1: read-config. Reconfigurations are rare: always the full
      // traversal, never the cached-cseq shortcut. (Traversal talks only to
      // the config service, which answers from tombstones — it is never
      // bounced by retirement.)
      co_await read_config(obj);

      if (decided == kNoConfig) {
        // A previous attempt's proposal may have been decided on a
        // configuration retired before the outcome reached us. Config ids
        // are unique in the chain — never re-propose one already present.
        for (const auto& e : cseq(obj)) {
          if (e.cfg == new_spec.id) {
            decided = new_spec.id;
            break;
          }
        }
      }
      if (decided == kNoConfig) {
        // Phase 2: add-config — consensus on the successor of the current
        // last configuration, then announce the link with put-config.
        const std::size_t v = nu(obj);
        const ConfigId prev = cseq(obj)[v].cfg;
        decided = static_cast<ConfigId>(
            co_await propose(obj, prev, new_spec.id));
        set_entry(obj, v + 1, CseqEntry{decided, false});
        co_await put_config(obj, prev, cseq(obj)[v + 1]);
        if (config_gc_ && mutations().skip_gc_quorum_check) {
          // Mutation: retire the superseded prefix right after add-config,
          // fabricating a "finalized" successor — before the state
          // transfer ran. Any completed write stored only in the retired
          // prefix is lost (the bug class GC's quorum gating prevents).
          broadcast_retire(obj, v + 1, CseqEntry{decided, true});
        }
      }

      // Locate the decided configuration in the (possibly re-synced)
      // chain. Absent, or at/below µ, means the chain already finalized
      // at-or-past it — some other process completed phases 3–4 for us.
      std::size_t idx = 0;
      bool found = false;
      for (std::size_t i = 0; i < cseq(obj).size(); ++i) {
        if (cseq(obj)[i].cfg == decided) {
          idx = i;
          found = true;
          break;
        }
      }
      if (!found || idx <= mu(obj)) co_return decided;

      // Phase 3: update-config — transfer the latest object state into the
      // new configuration. Pin the index now: update_config transfers into
      // the tail known at this instant, and phase 4 must finalize exactly
      // that entry — never an even-newer configuration a piggybacked hint
      // appends while the transfer is in flight (its own reconfigurer
      // finalizes it after its own transfer).
      const std::size_t last = nu(obj);
      co_await update_config(obj);

      // Phase 4: finalize-config.
      obj_state(obj).cseq[last].finalized = true;
      co_await put_config(obj, cseq(obj)[last - 1].cfg, cseq(obj)[last]);

      if (config_gc_) {
        // The transfer completed and the finalize quorum acked: the prefix
        // cseq[0..last) is superseded — tell its servers to retire the
        // object's state there (fire-and-forget; stragglers re-learn via
        // the tombstone bounce).
        broadcast_retire(obj, last, cseq(obj)[last]);
      }
      co_return decided;
    } catch (const sim::ConfigRetired&) {
      retired = true;
    }
    if (retired) {
      auto rs = resync_after_retire(obj);
      co_await rs;
    }
  }
}

}  // namespace ares::reconfig
