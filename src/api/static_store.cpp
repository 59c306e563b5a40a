#include "api/static_store.hpp"

#include "checker/history.hpp"
#include "dap/batch.hpp"
#include "harness/static_cluster.hpp"

#include <map>

namespace ares::api {

const sim::TrafficStats* StaticStore::traffic() const {
  return &client_.traffic();
}

sim::Future<OpResult> StaticStore::read(ObjectId obj) {
  return detail::run_op(client_, op_deadline(),
                        detail::result_for(obj, /*is_write=*/false),
                        [this, obj] { return client_.read(obj); });
}

sim::Future<OpResult> StaticStore::write(ObjectId obj, ValuePtr value) {
  return detail::run_op(
      client_, op_deadline(), detail::result_for(obj, /*is_write=*/true),
      [this, obj, value = std::move(value)]() mutable {
        return client_.write(obj, std::move(value));
      });
}

sim::Future<std::vector<OpResult>> StaticStore::read_many(
    std::span<const ObjectId> objs) {
  if (!dap::batch_capable(client_.spec())) return Store::read_many(objs);
  return detail::run_op(client_, op_deadline(),
                        detail::results_for(objs, /*is_write=*/false),
                        [this, keys = std::vector(objs.begin(), objs.end())]()
                            mutable {
                          return run_members(std::move(keys), {});
                        });
}

sim::Future<std::vector<OpResult>> StaticStore::write_many(
    std::span<const WriteOp> ops) {
  if (!dap::batch_capable(client_.spec())) return Store::write_many(ops);
  std::vector<ObjectId> keys;
  std::vector<ValuePtr> values;
  for (const WriteOp& op : ops) {
    keys.push_back(op.object);
    values.push_back(op.value);
  }
  std::vector<OpResult> out = detail::results_for(keys, /*is_write=*/true);
  return detail::run_op(
      client_, op_deadline(), std::move(out),
      [this, keys = std::move(keys), values = std::move(values)]() mutable {
        return run_members(std::move(keys), std::move(values));
      });
}

sim::Future<std::vector<TagValue>> StaticStore::run_members(
    std::vector<ObjectId> objs, std::vector<ValuePtr> values) {
  const bool writes = !values.empty();
  checker::HistoryRecorder* recorder = client_.recorder();
  std::vector<TagValue> tvs(objs.size());
  std::vector<std::uint64_t> rec(objs.size(), 0);
  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (writes) tvs[i].value = values[i];
    if (recorder != nullptr) {
      rec[i] = recorder->begin(client_.id(),
                               writes ? checker::OpKind::kWrite
                                      : checker::OpKind::kRead,
                               client_.simulator().now(), objs[i]);
    }
  }
  std::vector<bool> done(objs.size(), false);
  for (;;) {
    // One wave: the first pending member of each distinct object leads it.
    std::vector<std::size_t> leads;
    std::vector<dap::Dap*> daps;
    std::map<ObjectId, std::size_t> lead_of;
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (!done[i] && lead_of.try_emplace(objs[i], i).second) {
        leads.push_back(i);
        daps.push_back(&client_.dap(objs[i]));
      }
    }
    if (leads.empty()) break;
    auto query = dap::query_round(client_, client_.spec(), daps,
                                  /*tags_only=*/writes, /*want_leases=*/false);
    const std::vector<dap::MemberResult> rs = co_await query;
    std::vector<dap::PutMember> puts;
    for (std::size_t k = 0; k < leads.size(); ++k) {
      TagValue& tv = tvs[leads[k]];
      if (writes) {
        tv.tag = rs[k].tv.tag.next(client_.id());
        // Record the tag pre-put: a crashed writer's value may surface.
        if (recorder != nullptr) {
          recorder->note_write_tag(rec[leads[k]], tv.tag, tv.value);
        }
      } else {
        tv = rs[k].tv;
        if (!tv.value) tv.value = initial_value();
        // Semifast read: a confirmed tag needs no A1 write-back (and with
        // no reconfiguration, no config check follows the put).
        if (rs[k].confirmed) continue;
      }
      puts.push_back({daps[k], tv});
    }
    if (!puts.empty()) {
      auto put = dap::put_round(client_, client_.spec(), std::move(puts),
                                /*want_leases=*/false);
      (void)co_await put;
    }
    // A repeated read shares its object's op; a repeated write needs a
    // distinct tag, so it waits for a later wave.
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (done[i]) continue;
      const std::size_t lead = lead_of.at(objs[i]);
      if (lead == i || !writes) {
        tvs[i] = tvs[lead];
        done[i] = true;
      }
    }
  }
  if (recorder != nullptr) {
    for (std::size_t i = 0; i < objs.size(); ++i) {
      recorder->end(rec[i], client_.simulator().now(), tvs[i].tag,
                    tvs[i].value);
    }
  }
  co_return tvs;
}

}  // namespace ares::api
