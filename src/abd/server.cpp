#include "abd/server.hpp"

#include "abd/messages.hpp"
#include "storage/records.hpp"

namespace ares::abd {

namespace {

/// The ⟨t0, v0⟩ register every object starts from.
const AbdServerState::Register& initial_register() {
  static const AbdServerState::Register r{kInitialTag, initial_value()};
  return r;
}

}  // namespace

const AbdServerState::Register& AbdServerState::reg(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? initial_register() : it->second;
}

AbdServerState::Register& AbdServerState::reg(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    it = objects_.emplace(obj, initial_register()).first;
  }
  return it->second;
}

std::size_t AbdServerState::stored_data_bytes() const {
  std::size_t sum = 0;
  for (const auto& [obj, r] : objects_) {
    if (r.value) sum += r.value->size();
  }
  return sum;
}

Tag AbdServerState::max_tag(ObjectId obj) const { return reg(obj).tag; }

std::size_t AbdServerState::drop_object(ObjectId obj) {
  std::size_t bytes = 0;
  if (auto it = objects_.find(obj); it != objects_.end()) {
    if (it->second.value) bytes = it->second.value->size();
    objects_.erase(it);
  }
  DapServer::drop_object(obj);
  return bytes;
}

void AbdServerState::restore_put(
    ObjectId obj, const Tag& tag, const ValuePtr& value,
    const std::optional<codec::Fragment>& fragment) {
  (void)fragment;  // whole-replica protocol: fragments never journaled
  Register& r = reg(obj);
  if (tag > r.tag) {  // same adopt-if-newer rule as the live path
    r.tag = tag;
    r.value = value;
  }
}

void AbdServerState::dump_wal(
    dap::ServerContext& ctx, ConfigId cfg,
    const std::function<void(const sim::MessageBody&)>& sink) const {
  for (const auto& [obj, r] : objects_) {
    if (r.tag <= kInitialTag) continue;  // ⟨t0, v0⟩ reconstructs for free
    storage::WalPut rec;
    rec.config = cfg;
    rec.object = obj;
    rec.tag = r.tag;
    rec.value = r.value;
    sink(rec);
  }
  DapServer::dump_wal(ctx, cfg, sink);
}

bool AbdServerState::handle(dap::ServerContext& ctx, const sim::Message& msg) {
  auto req = std::dynamic_pointer_cast<const sim::RpcRequest>(msg.body);
  if (!req) return false;
  if (absorb_confirmations(msg)) return true;
  if (handle_batch(ctx, msg)) return true;

  // The scalar messages stay on the wire (a one-object query or put is
  // smaller as these than as a one-member batch); their bodies are the
  // batch handler's per-member ones.
  if (std::dynamic_pointer_cast<const QueryTagReq>(msg.body)) {
    auto reply = std::make_shared<QueryTagReply>();
    reply->tag = query_one(req->object).tag;
    ctx.process.reply_to(msg, std::move(reply));
    return true;
  }
  if (auto query = std::dynamic_pointer_cast<const QueryReq>(msg.body)) {
    const dap::BatchQueryItem item =
        query_member(ctx, req->object, msg.from, /*tags_only=*/false,
                     query->want_lease);
    auto reply = std::make_shared<QueryReply>();
    reply->tag = item.tag;
    reply->value = item.value;
    reply->confirmed = item.confirmed;
    reply->lease_expiry = item.lease_expiry;
    ctx.process.reply_to(msg, std::move(reply));
    return true;
  }
  if (auto write = std::dynamic_pointer_cast<const WriteReq>(msg.body)) {
    put_members(ctx, msg, {{req->object, write->tag, write->value}},
                write->want_lease, [](std::vector<SimTime> grants) {
                  auto reply = std::make_shared<WriteAck>();
                  reply->lease_expiry = grants.front();
                  return reply;
                });
    return true;
  }
  return false;
}

}  // namespace ares::abd
