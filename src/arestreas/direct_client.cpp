#include "arestreas/direct_client.hpp"

#include <cassert>

namespace ares::arestreas {

void DirectAresClient::handle(const sim::Message& msg) {
  if (auto ack = std::dynamic_pointer_cast<const treas::TransferAck>(msg.body)) {
    auto it = transfers_.find(ack->transfer_id);
    if (it == transfers_.end()) return;
    auto& t = it->second;
    t.ackers.insert(msg.from);
    if (!t.fulfilled && t.ackers.size() >= t.needed) {
      t.fulfilled = true;
      t.done.set_value(true);
    }
    return;
  }
  reconfig::AresClient::handle(msg);
}

void DirectAresClient::fail_transfer(std::uint64_t tid,
                                     std::exception_ptr err) {
  auto it = transfers_.find(tid);
  if (it == transfers_.end() || it->second.fulfilled) return;
  it->second.fulfilled = true;
  it->second.done.set_error(std::move(err));
}

sim::Future<void> DirectAresClient::forward_code_element(ObjectId obj,
                                                         Tag tag,
                                                         ConfigId src,
                                                         ConfigId dst) {
  const auto& src_spec = registry_.get(src);
  const auto& dst_spec = registry_.get(dst);

  const std::uint64_t tid = next_transfer_id_++;
  auto& pending = transfers_[tid];
  pending.needed = dst_spec.quorum_size();  // ⌈(n'+k')/2⌉
  auto done = pending.done.get_future();

  auto req = std::make_shared<treas::ReqFwdCodeElem>();
  req->config = src;  // routed to the source configuration's state
  req->object = obj;  // ... for this atomic object
  req->transfer_id = tid;
  req->reconfigurer = id();
  req->src_config = src;
  req->dst_config = dst;
  req->tag = tag;

  // The acks come from C', so only a bounce can end the wait otherwise: a
  // source server that already retired (C, obj) answers with a
  // RetiredReply (the source was garbage-collected under the transfer), and
  // an expired deadline aborts. Either fails the transfer, and reconfig's
  // ConfigRetired catch re-syncs instead of waiting forever.
  const std::uint64_t rpc = expect_replies(
      src_spec.servers, *req, [this, tid](ProcessId, const sim::BodyPtr& b) {
        if (auto r = std::dynamic_pointer_cast<const sim::RetiredReply>(b)) {
          fail_transfer(tid, std::make_exception_ptr(
                                 sim::ConfigRetired(r->config, r->object)));
        }
      });
  const std::uint64_t hook =
      abortable_waits()
          ? add_abort_hook([this, tid](std::exception_ptr err) {
              fail_transfer(tid, std::move(err));
            })
          : 0;
  struct Cleanup {
    DirectAresClient& c;
    std::uint64_t tid, rpc, hook;
    ~Cleanup() {
      c.transfers_.erase(tid);
      c.forget_replies(rpc);
      if (hook != 0) c.remove_abort_hook(hook);
    }
  } cleanup{*this, tid, rpc, hook};

  // md-primitive of [21]: delivered to every non-faulty server of C or none.
  transport().atomic_broadcast(id(), src_spec.servers, std::move(req));

  co_await done;
  co_return;
}

sim::Future<void> DirectAresClient::update_config(ObjectId obj) {
  const std::size_t m = mu(obj);
  const std::size_t v = nu(obj);

  // Direct transfer needs TREAS state on both ends; if any involved
  // configuration runs a different protocol, fall back to the client-
  // conduit transfer of Algorithm 5.
  bool all_treas = true;
  for (std::size_t i = m; i <= v; ++i) {
    if (registry_.get(cseq(obj)[i].cfg).protocol != dap::Protocol::kTreas) {
      all_treas = false;
      break;
    }
  }
  if (!all_treas) {
    co_await reconfig::AresClient::update_config(obj);
    co_return;
  }

  // Algorithm 8: gather ⟨tag, configuration⟩ pairs — metadata only. Fenced
  // on every transfer source (i < v), exactly as the base update_config: a
  // writer that elided its post-put config check must be observed here.
  Tag best = kInitialTag;
  ConfigId holder = cseq(obj)[m].cfg;
  for (std::size_t i = m; i <= v; ++i) {
    Tag t;
    if (i < v) {
      auto fut =
          dap_for(obj, cseq(obj)[i].cfg)->get_dec_tag_fenced(cseq(obj)[i + 1]);
      t = co_await fut;
    } else {
      auto fut = dap_for(obj, cseq(obj)[i].cfg)->get_dec_tag();
      t = co_await fut;
    }
    if (t > best || i == m) {
      best = t;
      holder = cseq(obj)[i].cfg;
    }
  }

  // forward-code-element(τ, C, C'): the object bytes move server→server;
  // update_config_bytes_through_client() stays 0.
  co_await forward_code_element(obj, best, holder, cseq(obj)[v].cfg);
  co_return;
}

}  // namespace ares::arestreas
