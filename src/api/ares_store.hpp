// Store adapter over the reconfigurable ARES stack: every operation runs
// reconfig::AresClient's Algorithm-7 / Algorithm-5 machinery (sequence
// traversal, fast path, batched multi-object rounds) and returns an
// OpResult carrying the outcome plus the measured traffic cost.
#pragma once

#include "api/store.hpp"

namespace ares::reconfig {
class AresClient;
}

namespace ares::api {

class AresStore final : public Store {
 public:
  /// `client` must outlive this adapter. One adapter per client process;
  /// metrics are sampled from the client's sim::TrafficStats.
  explicit AresStore(reconfig::AresClient& client) : client_(client) {}

  [[nodiscard]] sim::Future<OpResult> read(ObjectId obj) override;
  [[nodiscard]] sim::Future<OpResult> write(ObjectId obj,
                                            ValuePtr value) override;

  [[nodiscard]] bool supports_reconfig() const override { return true; }
  [[nodiscard]] sim::Future<OpResult> reconfig(ObjectId obj,
                                               dap::ConfigSpec spec) override;

  /// Real batching: members sharing a configuration cost one multi-object
  /// quorum round per phase (see AresClient::read_batch / write_batch);
  /// every other member runs as a scalar Alg.-7 op.
  [[nodiscard]] sim::Future<std::vector<OpResult>> read_many(
      std::span<const ObjectId> objs) override;
  [[nodiscard]] sim::Future<std::vector<OpResult>> write_many(
      std::span<const WriteOp> ops) override;

  [[nodiscard]] const sim::TrafficStats* traffic() const override;

  [[nodiscard]] reconfig::AresClient& client() { return client_; }

 private:
  reconfig::AresClient& client_;
};

}  // namespace ares::api
