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

void detail::amortize(std::vector<OpResult>& results, const OpMetrics& total) {
  if (results.empty()) return;
  const auto n = static_cast<std::uint64_t>(results.size());
  for (auto& r : results) {
    r.metrics = {total.rounds / n, total.messages / n, total.bytes / n,
                 total.elided_rounds / n};
  }
  results.front().metrics.rounds += total.rounds % n;
  results.front().metrics.messages += total.messages % n;
  results.front().metrics.bytes += total.bytes % n;
  results.front().metrics.elided_rounds += total.elided_rounds % n;
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

void detail::disarm(const std::shared_ptr<bool>& armed) {
  if (armed) *armed = false;
}

OpStatus detail::status_of(const sim::OpAborted& e) {
  return e.reason == sim::OpAborted::Reason::kCancelled ? OpStatus::kCancelled
                                                        : OpStatus::kTimeout;
}

}  // namespace ares::api
