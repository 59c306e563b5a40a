#include "dap/batch.hpp"

#include "dap/messages.hpp"

#include <cassert>

namespace ares::dap {

namespace {

/// Merge a server-reported nextC into the best-so-far for one object:
/// any valid entry beats ⊥; a finalized entry beats a pending one.
void merge_next(CseqEntry& best, const CseqEntry& seen) {
  if (!seen.valid()) return;
  if (!best.valid() || (seen.finalized && !best.finalized)) best = seen;
}

}  // namespace

sim::Future<std::vector<MemberResult>> query_round(
    sim::Process& owner, const ConfigSpec& spec, std::vector<Dap*> members,
    bool tags_only, bool want_leases) {
  assert(!members.empty());
  std::vector<MemberResult> out(members.size());
  if (members.size() == 1) {
    Dap& dap = *members.front();
    if (tags_only) {
      out.front().tv.tag = co_await dap.get_tag();
    } else {
      const GetDataResult r = co_await dap.get_data_confirmed(want_leases);
      out.front().tv = r.tv;
      out.front().confirmed = r.confirmed;
      out.front().lease_expiry = r.lease_expiry;
    }
    co_return out;
  }
  assert(batch_capable(spec));
  auto req = std::make_shared<QueryBatchReq>();
  req->config = spec.id;
  req->object = members.front()->object();
  req->tags_only = tags_only;
  req->want_leases = want_leases;
  for (const Dap* d : members) {
    req->objects.push_back(d->object());
    req->confirmed_hints.push_back(d->confirmed_tag());
  }
  req->confirmed_hint = req->confirmed_hints.front();
  auto qc = sim::broadcast_collect<QueryBatchReply>(owner, spec.servers,
                                                    std::move(req));
  co_await qc.wait_for(spec.quorum_size());

  std::vector<QuorumFold> folds(members.size());
  for (const auto& a : qc.arrivals()) {
    // Replies echo the request's object order; tolerate short replies
    // defensively (a foreign or truncated reply contributes nothing).
    const std::size_t n = std::min(a.reply->items.size(), out.size());
    for (std::size_t i = 0; i < n; ++i) {
      const BatchQueryItem& item = a.reply->items[i];
      if (item.object != members[i]->object()) continue;
      folds[i].add(item.tag, item.value, item.confirmed, item.lease_expiry);
      merge_next(out[i].next_c, item.next_c);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].tv = folds[i].best;
    out[i].lease_expiry = folds[i].lease(spec.quorum_size());
    // The semifast rule of AbdDap::get_data_confirmed: one confirming
    // server vouches that a quorum already stores the returned tag.
    if (spec.semifast && folds[i].confirmed >= folds[i].best.tag) {
      out[i].confirmed = true;
      members[i]->note_confirmed(folds[i].best.tag);
    }
  }
  co_return out;
}

sim::Future<std::vector<MemberResult>> put_round(
    sim::Process& owner, const ConfigSpec& spec,
    std::vector<PutMember> members, bool want_leases) {
  assert(!members.empty());
  std::vector<MemberResult> out(members.size());
  if (members.size() == 1) {
    const PutMember& m = members.front();
    auto put = m.dap->put_data_leased(m.tv, want_leases);
    const PutDataResult r = co_await put;
    out.front().lease_expiry = r.lease_expiry;
    co_return out;
  }
  assert(batch_capable(spec));
  auto req = std::make_shared<PutBatchReq>();
  req->config = spec.id;
  req->object = members.front().dap->object();
  req->want_leases = want_leases;
  for (const PutMember& m : members) {
    req->items.push_back({m.dap->object(), m.tv.tag, m.tv.value});
  }
  auto qc = sim::broadcast_collect<PutBatchReply>(owner, spec.servers,
                                                  std::move(req));
  co_await qc.wait_for(spec.quorum_size());

  // Every member's ⟨τ, v⟩ now rests at a quorum: tell the servers in one
  // fire-and-forget broadcast so subsequent reads can elide the write-back.
  if (spec.semifast) {
    auto confirm = std::make_shared<ConfirmBatchMsg>();
    confirm->config = spec.id;
    confirm->object = members.front().dap->object();
    confirm->tags.reserve(members.size());
    for (const PutMember& m : members) {
      confirm->tags.push_back({m.dap->object(), m.tv.tag});
    }
    const sim::BodyPtr body = std::move(confirm);
    for (ProcessId s : spec.servers) owner.send(s, body);
  }

  std::vector<QuorumFold> folds(members.size());
  for (const auto& a : qc.arrivals()) {
    const std::size_t n = std::min(a.reply->next_cs.size(), out.size());
    for (std::size_t i = 0; i < n; ++i) {
      merge_next(out[i].next_c, a.reply->next_cs[i]);
    }
    const std::size_t m = std::min(a.reply->lease_expiries.size(), out.size());
    for (std::size_t i = 0; i < m; ++i) {
      folds[i].add_grant(a.reply->lease_expiries[i]);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Only a full quorum of granting acks makes an enforceable write-ack
    // lease (see QuorumFold::lease).
    out[i].lease_expiry = folds[i].lease(spec.quorum_size());
    members[i].dap->note_confirmed(members[i].tv.tag);
  }
  co_return out;
}

}  // namespace ares::dap
