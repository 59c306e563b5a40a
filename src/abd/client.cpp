#include "abd/client.hpp"

#include "abd/messages.hpp"
#include "common/mutations.hpp"
#include "dap/messages.hpp"

namespace ares::abd {

sim::Future<Tag> AbdDap::get_tag() {
  auto req = std::make_shared<QueryTagReq>();
  req->config = spec_.id;
  req->object = object();
  req->confirmed_hint = confirmed_tag();
  auto qc = sim::broadcast_collect<QueryTagReply>(owner_, spec_.servers,
                                                  std::move(req));
  co_await qc.wait_for(spec_.quorum_size());
  Tag max = kInitialTag;
  for (const auto& a : qc.arrivals()) max = std::max(max, a.reply->tag);
  co_return max;
}

sim::Future<dap::GetDataResult> AbdDap::get_data_confirmed(
    bool want_lease) {
  auto req = std::make_shared<QueryReq>();
  req->config = spec_.id;
  req->object = object();
  req->confirmed_hint = confirmed_tag();
  req->want_lease = want_lease;
  auto qc = sim::broadcast_collect<QueryReply>(owner_, spec_.servers,
                                               std::move(req));
  co_await qc.wait_for(spec_.quorum_size());
  dap::QuorumFold fold;
  for (const auto& a : qc.arrivals()) {
    fold.add(a.reply->tag, a.reply->value, a.reply->confirmed,
             a.reply->lease_expiry);
  }
  dap::GetDataResult result{fold.best, false,
                            fold.lease(spec_.quorum_size())};
  // One confirming server suffices: its claim is that a *quorum* already
  // stores tag ≥ best.tag, so any later read's query quorum intersects that
  // quorum and observes a tag ≥ best.tag without our write-back.
  if (spec_.semifast && fold.confirmed >= fold.best.tag) {
    result.confirmed = true;
    note_confirmed(fold.best.tag);
  }
  co_return result;
}

sim::Future<TagValue> AbdDap::get_data_fenced(CseqEntry successor) {
  auto req = std::make_shared<QueryReq>();
  req->config = spec_.id;
  req->object = object();
  req->confirmed_hint = confirmed_tag();
  // Mutation under test: degrade the fence to a plain quorum read — both
  // the wait predicate below and the successor piggyback, which by itself
  // repairs most schedules (servers learn nextC from the query and stamp
  // the racing writer's put acks).
  if (!mutations().skip_transfer_fence) req->install_next = successor;
  auto qc = sim::broadcast_collect<QueryReply>(owner_, spec_.servers,
                                               std::move(req));
  // Fence: besides a plain quorum, require a quorum of replies whose
  // server has installed (and echoes) a successor pointer for the object.
  // Such a reply fixes an order against any concurrent write in this
  // configuration: the server either processed the write's put-data before
  // replying here (we see tag >= tau_w below), or it replied first -- and
  // then its put ack carries the successor, so the writer does not elide
  // its config check and discovers the transfer. Either way every put-data
  // whose post-put round was elided is visible to this read, which is what
  // makes the elision safe. Liveness: the request piggybacks the decided
  // successor (install_next above) and servers install it before replying,
  // so ANY live quorum satisfies the fence -- it does not depend on the
  // put-config ack quorum surviving (fuzzer-found schedule: put-config
  // lands on {a,b} while c is partitioned, b crashes, c heals unaware).
  using Arrivals =
      std::vector<typename sim::QuorumCollector<QueryReply>::Arrival>;
  const std::size_t q = spec_.quorum_size();
  // Hoisted per the GCC-12 note in sim/coro.hpp: no temporaries inside the
  // co_await expression.
  const bool fence_on = !mutations().skip_transfer_fence;
  std::function<bool(const Arrivals&)> fenced =
      [q, fence_on](const Arrivals& as) {
        if (as.size() < q) return false;
        if (!fence_on) return true;
        std::size_t with_next = 0;
        for (const auto& a : as) {
          if (a.reply->next_c.valid()) ++with_next;
        }
        return with_next >= q;
      };
  co_await qc.wait(fenced);
  dap::QuorumFold fold;
  for (const auto& a : qc.arrivals()) {
    fold.add(a.reply->tag, a.reply->value, a.reply->confirmed, 0);
  }
  co_return fold.best;
}

sim::Future<void> AbdDap::put_data(TagValue tv) {
  co_await put_data_leased(std::move(tv), /*want_lease=*/false);
  co_return;
}

sim::Future<dap::PutDataResult> AbdDap::put_data_leased(TagValue tv,
                                                        bool want_lease) {
  auto req = std::make_shared<WriteReq>();
  req->config = spec_.id;
  req->object = object();
  req->confirmed_hint = confirmed_tag();
  req->tag = tv.tag;
  req->value = tv.value;
  req->want_lease = want_lease;
  auto qc = sim::broadcast_collect<WriteAck>(owner_, spec_.servers,
                                             std::move(req));
  co_await qc.wait_for(spec_.quorum_size());
  // Same full-quorum rule as read leases. Each grant also certifies that at
  // ack time our pair was that server's current register, so the cached
  // value cannot be stale (see WriteAck::lease_expiry).
  dap::QuorumFold fold;
  for (const auto& a : qc.arrivals()) fold.add_grant(a.reply->lease_expiry);
  dap::PutDataResult result{fold.lease(spec_.quorum_size())};
  // ⟨τ, v⟩ now rests at a quorum: remember it and tell the servers, so
  // subsequent reads (ours via the piggybacked hint, anyone's via the
  // broadcast) can skip their write-back.
  note_confirmed(tv.tag);
  if (spec_.semifast) {
    dap::broadcast_confirm(owner_, spec_.id, object(), tv.tag, spec_.servers);
  }
  co_return result;
}

}  // namespace ares::abd
