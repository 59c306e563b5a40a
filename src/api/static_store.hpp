// Store adapter over the static A1/A2 register stack (one configuration,
// no reconfiguration): scalar operations run the generic templates through
// the per-object RegisterClients. Batches over a batch-capable (ABD)
// configuration run the static A1 template as waves over the member-set
// rounds AresClient's engine uses (dap/batch.hpp): one op per distinct
// object per wave — a repeated read shares its object's op, a repeated
// write waits for a later wave — and a write-back only for reads whose tag
// is not yet confirmed. Coded and role-split protocols (TREAS, LDR) run
// the per-object Store loop. reconfig() is capability-gated off.
#pragma once

#include "api/store.hpp"

namespace ares::harness {
class StaticClient;
}

namespace ares::api {

class StaticStore final : public Store {
 public:
  /// `client` must outlive this adapter. One adapter per client process;
  /// metrics are sampled from the client's sim::TrafficStats.
  explicit StaticStore(harness::StaticClient& client) : client_(client) {}

  [[nodiscard]] sim::Future<OpResult> read(ObjectId obj) override;
  [[nodiscard]] sim::Future<OpResult> write(ObjectId obj,
                                            ValuePtr value) override;

  [[nodiscard]] sim::Future<std::vector<OpResult>> read_many(
      std::span<const ObjectId> objs) override;
  [[nodiscard]] sim::Future<std::vector<OpResult>> write_many(
      std::span<const WriteOp> ops) override;

  [[nodiscard]] const sim::TrafficStats* traffic() const override;

  [[nodiscard]] harness::StaticClient& client() { return client_; }

 private:
  /// The waves: reads of `objs` when `values` is empty, else writes.
  /// Records every op; returns each member's pair, aligned with `objs`.
  [[nodiscard]] sim::Future<std::vector<TagValue>> run_members(
      std::vector<ObjectId> objs, std::vector<ValuePtr> values);

  harness::StaticClient& client_;
};

}  // namespace ares::api
