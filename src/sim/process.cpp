#include "sim/process.hpp"

#include <algorithm>
#include <utility>

namespace ares::sim {

SimDuration retransmit_delay(const RetransmitPolicy& p, std::uint64_t salt,
                             int attempt) {
  double base = static_cast<double>(p.initial_us);
  for (int i = 1; i < attempt; ++i) base *= p.multiplier;
  base = std::min(base, static_cast<double>(p.max_us));
  // Deterministic jitter: SplitMix64 of (salt, attempt) → factor in
  // [1-jitter, 1+jitter]. Same inputs, same delay — seeded runs reproduce.
  std::uint64_t x =
      (salt + static_cast<std::uint64_t>(attempt)) * 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + p.jitter * (2.0 * u - 1.0);
  return static_cast<SimDuration>(base * factor);
}

Process::Process(Simulator& sim, Transport& net, ProcessId id)
    : sim_(sim), net_(net), id_(id) {
  net_.register_process(*this);
}

Process::~Process() { net_.unregister_process(id_); }

void Process::deliver(const Message& msg) {
  if (crashed_) return;
  ++traffic_.messages_received;
  traffic_.data_bytes_received += msg.body->data_bytes();
  traffic_.metadata_bytes_received += msg.body->metadata_bytes();

  if (auto reply = std::dynamic_pointer_cast<const RpcReply>(msg.body)) {
    if (auto it = pending_.find(reply->rpc_id); it != pending_.end()) {
      PendingCall call = std::move(it->second);
      pending_.erase(it);
      if (reply->next_c.valid()) {
        note_config_hint(call.config, call.object, reply->next_c);
      }
      call.callback(msg.body);
      return;
    }
    if (auto it = broadcasts_.find(reply->rpc_id); it != broadcasts_.end()) {
      // Drop duplicate replies: one vote per server (see PendingBroadcast).
      auto& replied = it->second.replied;
      if (std::find(replied.begin(), replied.end(), msg.from) !=
          replied.end()) {
        return;
      }
      replied.push_back(msg.from);
      // Copy out before invoking anything: the callback may start new calls
      // that rehash the maps.
      auto callback = it->second.callback;
      const ConfigId config = it->second.config;
      const ObjectId object = it->second.object;
      if (--it->second.remaining == 0) broadcasts_.erase(it);
      if (reply->next_c.valid()) {
        note_config_hint(config, object, reply->next_c);
      }
      callback(msg.from, msg.body);
    }
    return;  // late reply for a finished call: drop
  }
  handle(msg);
}

void Process::call_async(ProcessId to, std::shared_ptr<RpcRequest> req,
                         std::function<void(BodyPtr)> on_reply) {
  req->rpc_id = next_rpc_id_++;
  const std::uint64_t rpc = req->rpc_id;
  PendingCall call{std::move(on_reply), req->config, req->object, nullptr, to};
  if (retransmit_.enabled) call.req = req;
  pending_[rpc] = std::move(call);
  send(to, std::move(req));
  if (retransmit_.enabled) schedule_retransmit(rpc, /*broadcast=*/false, 1);
}

void Process::call_broadcast(const std::vector<ProcessId>& dests,
                             std::shared_ptr<RpcRequest> req,
                             std::function<void(ProcessId, BodyPtr)> on_reply) {
  if (dests.empty()) return;
  // One rpc id for the whole fan-out; replies are told apart by sender.
  // The request is immutable from here on, so one body serves every
  // destination (the network shares message bodies by pointer anyway).
  req->rpc_id = next_rpc_id_++;
  const std::uint64_t rpc = req->rpc_id;
  PendingBroadcast bc{std::move(on_reply), dests.size(), req->config,
                      req->object, {}, nullptr, {}};
  if (retransmit_.enabled) {
    bc.req = req;
    bc.dests = dests;
  }
  broadcasts_[rpc] = std::move(bc);
  const BodyPtr body = std::move(req);
  for (ProcessId to : dests) send(to, body);
  if (retransmit_.enabled) schedule_retransmit(rpc, /*broadcast=*/true, 1);
}

std::uint64_t Process::expect_replies(
    const std::vector<ProcessId>& dests, RpcRequest& req,
    std::function<void(ProcessId, BodyPtr)> on_reply) {
  req.rpc_id = next_rpc_id_++;
  broadcasts_[req.rpc_id] = PendingBroadcast{
      std::move(on_reply), dests.size(), req.config, req.object, {}, nullptr,
      {}};
  return req.rpc_id;
}

void Process::schedule_retransmit(std::uint64_t rpc, bool broadcast,
                                  int attempt) {
  if (attempt > retransmit_.max_attempts) return;
  const SimDuration delay = retransmit_delay(retransmit_, rpc, attempt);
  sim_.schedule_after(
      delay, [this, alive = std::weak_ptr<void>(alive_), rpc, broadcast,
              attempt] {
        if (alive.expired()) return;  // process gone; timer outlived it
        if (crashed_) return;
        if (broadcast) {
          auto it = broadcasts_.find(rpc);
          if (it == broadcasts_.end()) return;  // every destination replied
          const auto& bc = it->second;
          for (ProcessId to : bc.dests) {
            if (std::find(bc.replied.begin(), bc.replied.end(), to) !=
                bc.replied.end()) {
              continue;
            }
            ++traffic_.retransmits;
            send(to, bc.req);
          }
        } else {
          auto it = pending_.find(rpc);
          if (it == pending_.end()) return;  // reply arrived
          ++traffic_.retransmits;
          send(it->second.dest, it->second.req);
        }
        schedule_retransmit(rpc, broadcast, attempt + 1);
      });
}

void Process::abort_pending_waits(std::exception_ptr err) {
  // Move the registry out before firing: each hook fulfills a promise whose
  // resumption may start new waits that register fresh hooks, and fulfilled
  // waits try to unregister themselves (a no-op against the drained map).
  auto hooks = std::move(abort_hooks_);
  abort_hooks_.clear();
  for (auto& [token, fn] : hooks) fn(err);
}

std::uint64_t Process::add_abort_hook(
    std::function<void(std::exception_ptr)> fn) {
  const std::uint64_t token = next_abort_token_++;
  abort_hooks_[token] = std::move(fn);
  return token;
}

void Process::remove_abort_hook(std::uint64_t token) {
  abort_hooks_.erase(token);
}

Future<BodyPtr> Process::call(ProcessId to, std::shared_ptr<RpcRequest> req) {
  Promise<BodyPtr> promise;
  call_async(to, std::move(req),
             [promise](BodyPtr reply) mutable { promise.set_value(reply); });
  return promise.get_future();
}

}  // namespace ares::sim
