#include "api/static_store.hpp"

#include "checker/history.hpp"
#include "dap/batch.hpp"
#include "harness/static_cluster.hpp"

#include <map>
#include <set>

namespace ares::api {

const sim::TrafficStats* StaticStore::traffic() const {
  return &client_.traffic();
}

sim::Future<OpResult> StaticStore::read(ObjectId obj) {
  const auto before = detail::sample(traffic());
  OpResult r;
  r.object = obj;
  auto armed = detail::arm_deadline(client_, op_deadline());
  try {
    auto op = client_.read(obj);
    TagValue tv = co_await op;
    r.tag = tv.tag;
    r.value = tv.value;
  } catch (const sim::OpAborted& e) {
    r.status = detail::status_of(e);
  }
  detail::disarm(armed);
  r.metrics = detail::delta(before, traffic());
  co_return r;
}

sim::Future<OpResult> StaticStore::write(ObjectId obj, ValuePtr value) {
  const auto before = detail::sample(traffic());
  OpResult r;
  r.object = obj;
  r.is_write = true;
  auto armed = detail::arm_deadline(client_, op_deadline());
  try {
    auto op = client_.write(obj, std::move(value));
    const Tag tag = co_await op;
    r.tag = tag;
  } catch (const sim::OpAborted& e) {
    r.status = detail::status_of(e);
  }
  detail::disarm(armed);
  r.metrics = detail::delta(before, traffic());
  co_return r;
}

sim::Future<std::vector<OpResult>> StaticStore::read_many(
    std::span<const ObjectId> objs) {
  auto armed = detail::arm_deadline(client_, op_deadline());
  std::vector<OpResult> out;
  try {
    auto impl = read_many_impl(objs);
    out = co_await impl;
  } catch (const sim::OpAborted& e) {
    out.assign(objs.size(), OpResult{});
    for (std::size_t i = 0; i < objs.size(); ++i) {
      out[i].object = objs[i];
      out[i].status = detail::status_of(e);
    }
  }
  detail::disarm(armed);
  co_return out;
}

sim::Future<std::vector<OpResult>> StaticStore::write_many(
    std::span<const WriteOp> ops) {
  auto armed = detail::arm_deadline(client_, op_deadline());
  std::vector<OpResult> out;
  try {
    auto impl = write_many_impl(ops);
    out = co_await impl;
  } catch (const sim::OpAborted& e) {
    out.assign(ops.size(), OpResult{});
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out[i].object = ops[i].object;
      out[i].is_write = true;
      out[i].status = detail::status_of(e);
    }
  }
  detail::disarm(armed);
  co_return out;
}

// The batch orchestration below is the static (A1/A2) counterpart of one
// wave of AresClient's op engine (run_group): the same semifast write-back
// rule over the same dap/batch rounds, minus everything reconfiguration
// adds — hint absorption, waves, post-put config checks. AresClient lives
// above the reconfiguration service, so the two cannot share the code;
// when the semifast elision rule changes, change run_group too.
sim::Future<std::vector<OpResult>> StaticStore::read_many_impl(
    std::span<const ObjectId> objs) {
  if (!dap::batch_capable(client_.spec())) {
    // Coded / role-split protocols: the correct-everywhere per-object loop.
    auto fallback = Store::read_many(objs);
    auto out = co_await fallback;
    co_return out;
  }
  const auto before = detail::sample(traffic());
  checker::HistoryRecorder* recorder = client_.recorder();
  std::vector<std::uint64_t> rec(objs.size(), 0);
  if (recorder != nullptr) {
    for (std::size_t i = 0; i < objs.size(); ++i) {
      rec[i] = recorder->begin(client_.id(), checker::OpKind::kRead,
                               client_.simulator().now(), objs[i]);
    }
  }

  // Deduplicate: one wire slot per distinct object; repeats share it.
  std::vector<ObjectId> uobjs;
  std::map<ObjectId, std::size_t> uslot;
  for (ObjectId obj : objs) {
    if (uslot.try_emplace(obj, uobjs.size()).second) uobjs.push_back(obj);
  }
  std::vector<Tag> hints;
  hints.reserve(uobjs.size());
  for (ObjectId o : uobjs) {
    hints.push_back(client_.dap(o).confirmed_tag());
  }

  // One get-data quorum round for the whole batch.
  auto get_fut = dap::batch_get_data(client_, client_.spec(), uobjs,
                                     /*tags_only=*/false, std::move(hints));
  auto items = co_await get_fut;
  std::vector<TagValue> best(uobjs.size());
  std::vector<dap::BatchPutItem> wb;
  for (std::size_t u = 0; u < uobjs.size(); ++u) {
    best[u] = TagValue{items[u].tag,
                       items[u].value ? items[u].value : initial_value()};
    const bool confirmed =
        client_.spec().semifast && items[u].confirmed >= best[u].tag;
    if (confirmed) {
      client_.dap(uobjs[u]).note_confirmed(best[u].tag);
    } else {
      // A1 write-back (no reconfiguration exists in a static deployment,
      // so no trailing config check is needed).
      wb.push_back({uobjs[u], best[u].tag, best[u].value});
    }
  }
  if (!wb.empty()) {
    auto put_fut = dap::batch_put_data(client_, client_.spec(), wb);
    (void)co_await put_fut;
    for (const auto& p : wb) client_.dap(p.object).note_confirmed(p.tag);
  }

  std::vector<OpResult> out(objs.size());
  for (std::size_t i = 0; i < objs.size(); ++i) {
    const TagValue& tv = best[uslot[objs[i]]];
    out[i].object = objs[i];
    out[i].tag = tv.tag;
    out[i].value = tv.value;
  }
  if (recorder != nullptr) {
    for (std::size_t i = 0; i < objs.size(); ++i) {
      recorder->end(rec[i], client_.simulator().now(), out[i].tag,
                    out[i].value);
    }
  }
  const OpMetrics total = detail::delta(before, traffic());
  detail::amortize(out, total);
  co_return out;
}

sim::Future<std::vector<OpResult>> StaticStore::write_many_impl(
    std::span<const WriteOp> ops) {
  if (!dap::batch_capable(client_.spec())) {
    auto fallback = Store::write_many(ops);
    auto out = co_await fallback;
    co_return out;
  }
  const auto before = detail::sample(traffic());
  checker::HistoryRecorder* recorder = client_.recorder();

  // Distinct members batch; duplicate objects need distinct tags, so later
  // duplicates take the serialized per-object path (which records its own
  // history through the RegisterClient).
  std::vector<std::size_t> batched;
  std::vector<std::size_t> serial;
  std::set<ObjectId> seen;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (seen.insert(ops[i].object).second ? batched : serial).push_back(i);
  }
  std::vector<std::uint64_t> rec(ops.size(), 0);
  if (recorder != nullptr) {
    for (std::size_t i : batched) {
      rec[i] = recorder->begin(client_.id(), checker::OpKind::kWrite,
                               client_.simulator().now(), ops[i].object);
    }
  }

  std::vector<OpResult> out(ops.size());
  std::vector<ObjectId> gobjs;
  gobjs.reserve(batched.size());
  for (std::size_t i : batched) gobjs.push_back(ops[i].object);
  std::vector<Tag> hints;
  hints.reserve(gobjs.size());
  for (ObjectId o : gobjs) hints.push_back(client_.dap(o).confirmed_tag());

  // One batched get-tag round, then one batched put round.
  auto tag_fut = dap::batch_get_data(client_, client_.spec(), gobjs,
                                     /*tags_only=*/true, std::move(hints));
  auto items = co_await tag_fut;
  std::vector<dap::BatchPutItem> puts;
  puts.reserve(batched.size());
  for (std::size_t j = 0; j < batched.size(); ++j) {
    const std::size_t i = batched[j];
    const Tag tw = items[j].tag.next(client_.id());
    out[i].object = ops[i].object;
    out[i].is_write = true;
    out[i].tag = tw;
    if (recorder != nullptr) {
      // Record the tag pre-put: a crashed writer's value may surface.
      recorder->note_write_tag(rec[i], tw, ops[i].value);
    }
    puts.push_back({ops[i].object, tw, ops[i].value});
  }
  if (!puts.empty()) {
    auto put_fut = dap::batch_put_data(client_, client_.spec(), puts);
    (void)co_await put_fut;
    for (const auto& p : puts) client_.dap(p.object).note_confirmed(p.tag);
  }

  for (std::size_t i : serial) {
    auto op = client_.reg(ops[i].object).write(ops[i].value);
    const Tag tag = co_await op;
    out[i].object = ops[i].object;
    out[i].is_write = true;
    out[i].tag = tag;
  }

  if (recorder != nullptr) {
    for (std::size_t i : batched) {
      recorder->end(rec[i], client_.simulator().now(), out[i].tag,
                    ops[i].value);
    }
  }
  const OpMetrics total = detail::delta(before, traffic());
  detail::amortize(out, total);
  co_return out;
}

}  // namespace ares::api
