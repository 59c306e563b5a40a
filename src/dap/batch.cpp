#include "dap/batch.hpp"

#include "dap/dap.hpp"

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

sim::Future<std::vector<BatchQueryItem>> batch_get_data(
    sim::Process& owner, ConfigSpec spec, std::vector<ObjectId> objects,
    bool tags_only, std::vector<Tag> confirmed_hints, bool want_leases) {
  assert(batch_capable(spec));
  auto req = std::make_shared<QueryBatchReq>();
  req->config = spec.id;
  req->object = objects.empty() ? kDefaultObject : objects.front();
  req->objects = objects;
  req->tags_only = tags_only;
  req->want_leases = want_leases;
  req->confirmed_hints = std::move(confirmed_hints);
  if (!req->confirmed_hints.empty()) {
    req->confirmed_hint = req->confirmed_hints.front();
  }
  auto qc = sim::broadcast_collect<QueryBatchReply>(owner, spec.servers,
                                                    std::move(req));
  co_await qc.wait_for(spec.quorum_size());

  std::vector<QuorumFold> folds(objects.size());
  std::vector<BatchQueryItem> best(objects.size());
  for (const auto& a : qc.arrivals()) {
    // Replies echo the request's object order; tolerate short replies
    // defensively (a foreign or truncated reply contributes nothing).
    const std::size_t n = std::min(a.reply->items.size(), best.size());
    for (std::size_t i = 0; i < n; ++i) {
      const BatchQueryItem& item = a.reply->items[i];
      if (item.object != objects[i]) continue;
      folds[i].add(item.tag, item.value, item.confirmed, item.lease_expiry);
      merge_next(best[i].next_c, item.next_c);
    }
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    best[i].object = objects[i];
    best[i].tag = folds[i].best.tag;
    best[i].value = folds[i].best.value;
    best[i].confirmed = folds[i].confirmed;
    best[i].lease_expiry = folds[i].lease(spec.quorum_size());
  }
  co_return best;
}

sim::Future<BatchPutResult> batch_put_data(
    sim::Process& owner, ConfigSpec spec, std::vector<BatchPutItem> items,
    bool want_leases) {
  assert(batch_capable(spec));
  auto req = std::make_shared<PutBatchReq>();
  req->config = spec.id;
  req->object = items.empty() ? kDefaultObject : items.front().object;
  req->items = items;
  req->want_leases = want_leases;
  auto qc = sim::broadcast_collect<PutBatchReply>(owner, spec.servers,
                                                  std::move(req));
  co_await qc.wait_for(spec.quorum_size());

  // Every item's ⟨τ, v⟩ now rests at a quorum: tell the servers in one
  // fire-and-forget broadcast so subsequent reads can elide the write-back.
  if (spec.semifast && !items.empty()) {
    auto confirm = std::make_shared<ConfirmBatchMsg>();
    confirm->config = spec.id;
    confirm->object = items.front().object;
    confirm->tags.reserve(items.size());
    for (const auto& it : items) {
      confirm->tags.push_back({it.object, it.tag});
    }
    const sim::BodyPtr body = std::move(confirm);
    for (ProcessId s : spec.servers) owner.send(s, body);
  }

  BatchPutResult result;
  result.next_cs.resize(items.size());
  std::vector<QuorumFold> folds(items.size());
  for (const auto& a : qc.arrivals()) {
    const std::size_t n =
        std::min(a.reply->next_cs.size(), result.next_cs.size());
    for (std::size_t i = 0; i < n; ++i) {
      merge_next(result.next_cs[i], a.reply->next_cs[i]);
    }
    const std::size_t m =
        std::min(a.reply->lease_expiries.size(), items.size());
    for (std::size_t i = 0; i < m; ++i) {
      folds[i].add_grant(a.reply->lease_expiries[i]);
    }
  }
  // Per item: only a full quorum of granting acks makes an enforceable
  // write-ack lease (see QuorumFold::lease).
  result.lease_expiries.reserve(items.size());
  for (const QuorumFold& f : folds) {
    result.lease_expiries.push_back(f.lease(spec.quorum_size()));
  }
  co_return result;
}

}  // namespace ares::dap
