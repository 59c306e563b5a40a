#include "api/ares_store.hpp"

#include "ares/client.hpp"

namespace ares::api {

const sim::TrafficStats* AresStore::traffic() const {
  return &client_.traffic();
}

sim::Future<OpResult> AresStore::read(ObjectId obj) {
  return detail::run_op(client_, op_deadline(),
                        detail::result_for(obj, /*is_write=*/false),
                        [this, obj] { return client_.read(obj); });
}

sim::Future<OpResult> AresStore::write(ObjectId obj, ValuePtr value) {
  return detail::run_op(
      client_, op_deadline(), detail::result_for(obj, /*is_write=*/true),
      [this, obj, value = std::move(value)]() mutable {
        return client_.write(obj, std::move(value));
      });
}

sim::Future<OpResult> AresStore::reconfig(ObjectId obj, dap::ConfigSpec spec) {
  return detail::run_op(client_, op_deadline(),
                        detail::result_for(obj, /*is_write=*/false),
                        [this, obj, spec = std::move(spec)]() mutable {
                          return client_.reconfig(obj, std::move(spec));
                        });
}

sim::Future<std::vector<OpResult>> AresStore::read_many(
    std::span<const ObjectId> objs) {
  return detail::run_op(client_, op_deadline(),
                        detail::results_for(objs, /*is_write=*/false),
                        [this, keys = std::vector(objs.begin(), objs.end())]()
                            mutable {
                          return client_.read_batch(std::move(keys));
                        });
}

sim::Future<std::vector<OpResult>> AresStore::write_many(
    std::span<const WriteOp> ops) {
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
        return client_.write_batch(std::move(keys), std::move(values));
      });
}

}  // namespace ares::api
