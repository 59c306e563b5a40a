#include "api/ares_store.hpp"

#include "ares/client.hpp"

namespace ares::api {

const sim::TrafficStats* AresStore::traffic() const {
  return &client_.traffic();
}

sim::Future<OpResult> AresStore::read(ObjectId obj) {
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
  } catch (const sim::ConfigRetired&) {
    r.status = OpStatus::kRetired;
  }
  detail::disarm(armed);
  r.metrics = detail::delta(before, traffic());
  co_return r;
}

sim::Future<OpResult> AresStore::write(ObjectId obj, ValuePtr value) {
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
  } catch (const sim::ConfigRetired&) {
    r.status = OpStatus::kRetired;
  }
  detail::disarm(armed);
  r.metrics = detail::delta(before, traffic());
  co_return r;
}

sim::Future<OpResult> AresStore::reconfig(ObjectId obj, dap::ConfigSpec spec) {
  const auto before = detail::sample(traffic());
  OpResult r;
  r.object = obj;
  auto armed = detail::arm_deadline(client_, op_deadline());
  try {
    auto op = client_.reconfig(obj, std::move(spec));
    const ConfigId installed = co_await op;
    r.installed = installed;
  } catch (const sim::OpAborted& e) {
    r.status = detail::status_of(e);
  } catch (const sim::ConfigRetired&) {
    r.status = OpStatus::kRetired;
  }
  detail::disarm(armed);
  r.metrics = detail::delta(before, traffic());
  co_return r;
}

sim::Future<std::vector<OpResult>> AresStore::read_many(
    std::span<const ObjectId> objs) {
  return run_many(std::vector<ObjectId>(objs.begin(), objs.end()), {});
}

sim::Future<std::vector<OpResult>> AresStore::write_many(
    std::span<const WriteOp> ops) {
  std::vector<ObjectId> keys;
  std::vector<ValuePtr> values;
  for (const WriteOp& op : ops) {
    keys.push_back(op.object);
    values.push_back(op.value);
  }
  return run_many(std::move(keys), std::move(values));
}

sim::Future<std::vector<OpResult>> AresStore::run_many(
    std::vector<ObjectId> keys, std::vector<ValuePtr> values) {
  const auto before = detail::sample(traffic());
  const bool writes = !values.empty();
  std::vector<OpResult> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i].object = keys[i];
    out[i].is_write = writes;
  }
  auto armed = detail::arm_deadline(client_, op_deadline());
  try {
    auto op = writes ? client_.write_batch(std::move(keys), std::move(values))
                     : client_.read_batch(std::move(keys));
    const std::vector<TagValue> pairs = co_await op;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      out[i].tag = pairs[i].tag;
      if (!writes) out[i].value = pairs[i].value;
    }
  } catch (const sim::OpAborted& e) {
    for (auto& r : out) r.status = detail::status_of(e);
  } catch (const sim::ConfigRetired&) {
    for (auto& r : out) r.status = OpStatus::kRetired;
  }
  detail::disarm(armed);
  detail::amortize(out, detail::delta(before, traffic()));
  co_return out;
}

}  // namespace ares::api
