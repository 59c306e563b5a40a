#include "api/store.hpp"

#include <stdexcept>

namespace ares::api {

const char* to_string(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kTimeout: return "timeout";
    case OpStatus::kQuorumUnreachable: return "quorum-unreachable";
    case OpStatus::kRetired: return "retired";
    case OpStatus::kCancelled: return "cancelled";
  }
  return "?";
}

sim::Future<OpResult> Store::reconfig(ObjectId obj, dap::ConfigSpec spec) {
  (void)obj;
  (void)spec;
  throw std::logic_error(
      "this Store does not support reconfig (check supports_reconfig())");
  co_return OpResult{};  // unreachable; makes this a coroutine
}

sim::Future<std::vector<OpResult>> Store::read_many(
    std::span<const ObjectId> objs) {
  std::vector<OpResult> out;
  out.reserve(objs.size());
  for (ObjectId obj : objs) {
    OpResult r = co_await read(obj);
    out.push_back(std::move(r));
  }
  co_return out;
}

sim::Future<std::vector<OpResult>> Store::write_many(
    std::span<const WriteOp> ops) {
  std::vector<OpResult> out;
  out.reserve(ops.size());
  for (const WriteOp& op : ops) {
    OpResult r = co_await write(op.object, op.value);
    out.push_back(std::move(r));
  }
  co_return out;
}

OpMetrics detail::delta(const sim::TrafficStats& before,
                        const sim::TrafficStats& after) {
  return {after.quorum_rounds - before.quorum_rounds,
          after.messages_sent - before.messages_sent,
          after.bytes_total() - before.bytes_total(),
          after.rounds_elided - before.rounds_elided};
}

OpResult detail::result_for(ObjectId obj, bool is_write) {
  OpResult r;
  r.object = obj;
  r.is_write = is_write;
  return r;
}

std::vector<OpResult> detail::results_for(std::span<const ObjectId> objs,
                                          bool is_write) {
  std::vector<OpResult> out;
  out.reserve(objs.size());
  for (ObjectId obj : objs) out.push_back(result_for(obj, is_write));
  return out;
}

std::shared_ptr<bool> detail::arm_deadline(sim::Process& p,
                                           SimDuration deadline_us) {
  if (deadline_us == 0) return nullptr;
  p.set_abortable_waits(true);
  auto armed = std::make_shared<bool>(true);
  p.simulator().schedule_after(
      deadline_us, [armed, alive = p.liveness(), proc = &p] {
        if (!*armed || alive.expired()) return;
        proc->abort_pending_waits(std::make_exception_ptr(
            sim::OpAborted(sim::OpAborted::Reason::kDeadline)));
      });
  return armed;
}

void detail::record(OpResult& r, const TagValue& tv) {
  r.tag = tv.tag;
  r.value = tv.value;
}

void detail::record(OpResult& r, const Tag& tag) { r.tag = tag; }

void detail::record(OpResult& r, ConfigId installed) {
  r.installed = installed;
}

void detail::record(std::vector<OpResult>& rs,
                    const std::vector<TagValue>& tvs) {
  for (std::size_t i = 0; i < tvs.size(); ++i) {
    rs[i].tag = tvs[i].tag;
    if (!rs[i].is_write) rs[i].value = tvs[i].value;
  }
}

void detail::settle(OpResult& r, OpStatus status, const OpMetrics& cost) {
  r.status = status;
  r.metrics = cost;
}

void detail::settle(std::vector<OpResult>& rs, OpStatus status,
                    const OpMetrics& cost) {
  if (rs.empty()) return;
  // Each member's share; the remainder lands on the first member so the
  // shares sum back to the batch total.
  const auto n = static_cast<std::uint64_t>(rs.size());
  for (OpResult& r : rs) {
    r.status = status;
    r.metrics = {cost.rounds / n, cost.messages / n, cost.bytes / n,
                 cost.elided_rounds / n};
  }
  rs.front().metrics.rounds += cost.rounds % n;
  rs.front().metrics.messages += cost.messages % n;
  rs.front().metrics.bytes += cost.bytes % n;
  rs.front().metrics.elided_rounds += cost.elided_rounds % n;
}

}  // namespace ares::api
