// Tests for the experiment harness itself: cluster builders, workload
// driver semantics — the instruments the benchmark results depend on.
#include "harness/ares_cluster.hpp"
#include "harness/static_cluster.hpp"
#include "harness/workload.hpp"

#include <gtest/gtest.h>

namespace ares {
namespace {

TEST(StaticClusterBuilder, TreasDefaults) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kTreas;
  o.num_servers = 5;
  o.k = 3;
  o.num_clients = 2;
  harness::StaticCluster cluster(o);
  EXPECT_EQ(cluster.spec().n(), 5u);
  EXPECT_EQ(cluster.spec().k, 3u);
  EXPECT_EQ(cluster.spec().quorum_size(), 4u);
  EXPECT_EQ(cluster.servers().size(), 5u);
  EXPECT_EQ(cluster.clients().size(), 2u);
  // Client ids don't collide with server ids.
  for (auto& c : cluster.clients()) {
    EXPECT_GE(c->id(), 5u);
  }
}

TEST(StaticClusterBuilder, AbdForcesK1) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 5;
  o.k = 3;  // must be ignored for replication
  harness::StaticCluster cluster(o);
  EXPECT_EQ(cluster.spec().k, 1u);
  EXPECT_EQ(cluster.spec().quorum_size(), 3u);  // majority
}

TEST(StaticClusterBuilder, LdrRoleSplit) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kLdr;
  o.num_servers = 8;
  o.ldr_directories = 3;
  o.ldr_f = 1;
  harness::StaticCluster cluster(o);
  EXPECT_EQ(cluster.spec().directories.size(), 3u);
  EXPECT_EQ(cluster.spec().replicas.size(), 5u);
  EXPECT_GE(cluster.spec().replicas.size(), 2 * o.ldr_f + 1);
}

TEST(StaticClusterBuilder, LdrTinyClusterFallsBackToSharedRoles) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kLdr;
  o.num_servers = 4;
  o.ldr_directories = 3;
  o.ldr_f = 1;
  harness::StaticCluster cluster(o);
  // Only 1 server would remain as replica — fewer than 2f+1 = 3, so all
  // servers double as replicas.
  EXPECT_EQ(cluster.spec().replicas.size(), 4u);
}

TEST(AresClusterBuilder, SpecsDrawFromPoolWithWrap) {
  harness::AresClusterOptions o;
  o.server_pool = 6;
  o.initial_servers = 3;
  harness::AresCluster cluster(o);
  auto spec = cluster.make_spec(dap::Protocol::kTreas, 4, 4, 3);
  ASSERT_EQ(spec.servers.size(), 4u);
  EXPECT_EQ(spec.servers[0], 4u);
  EXPECT_EQ(spec.servers[1], 5u);
  EXPECT_EQ(spec.servers[2], 0u);  // wraps around the pool
  EXPECT_EQ(spec.servers[3], 1u);
  EXPECT_NE(spec.id, cluster.initial_config());
}

TEST(AresClusterBuilder, ConfigIdsAreUnique) {
  harness::AresClusterOptions o;
  harness::AresCluster cluster(o);
  auto a = cluster.make_spec(dap::Protocol::kTreas, 0, 3, 2);
  auto b = cluster.make_spec(dap::Protocol::kTreas, 0, 3, 2);
  EXPECT_NE(a.id, b.id);
}

TEST(Workload, ProducesRequestedOperationCount) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 3;
  o.num_clients = 3;
  harness::StaticCluster cluster(o);
  harness::WorkloadOptions opt;
  opt.ops_per_client = 7;
  opt.seed = 3;
  const auto result =
      harness::run_workload(cluster.sim(), cluster.stores(), opt);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.ops.size(), 21u);
  EXPECT_EQ(result.failures, 0u);
}

TEST(Workload, WriteFractionRespected) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 3;
  o.num_clients = 2;
  harness::StaticCluster cluster(o);
  harness::WorkloadOptions opt;
  opt.ops_per_client = 50;
  opt.write_fraction = 1.0;
  opt.seed = 5;
  const auto result =
      harness::run_workload(cluster.sim(), cluster.stores(), opt);
  for (const auto& op : result.ops) EXPECT_TRUE(op.is_write);
}

TEST(Workload, LatencyStatsAreConsistent) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kTreas;
  o.num_servers = 5;
  o.k = 3;
  o.num_clients = 2;
  harness::StaticCluster cluster(o);
  harness::WorkloadOptions opt;
  opt.ops_per_client = 10;
  opt.write_fraction = 0.5;
  opt.seed = 11;
  const auto result =
      harness::run_workload(cluster.sim(), cluster.stores(), opt);
  EXPECT_GT(result.mean_latency(true), 0.0);
  EXPECT_GT(result.mean_latency(false), 0.0);
  EXPECT_GE(result.max_latency(),
            static_cast<SimDuration>(result.mean_latency(true)));
  for (const auto& op : result.ops) EXPECT_GE(op.end, op.start);
}

namespace workload_failures {

/// A Store whose every operation throws something that is NOT derived
/// from std::exception — the case that used to escape client_loop's
/// catch(const std::exception&), skip the done_loops increment, and make
/// run_workload burn its whole event budget.
struct NonStdThrowingStore final : api::Store {
  sim::Future<api::OpResult> read(ObjectId /*obj*/) override {
    return throwing_op();
  }
  sim::Future<api::OpResult> write(ObjectId /*obj*/, ValuePtr /*v*/) override {
    return throwing_op();
  }

  static sim::Future<api::OpResult> throwing_op() {
    throw 42;  // NOLINT: deliberately not a std::exception
    co_return api::OpResult{};
  }
};

}  // namespace workload_failures

TEST(Workload, NonStdExceptionIsRecordedAsFailedOperation) {
  sim::Simulator sim(1);
  workload_failures::NonStdThrowingStore store;
  harness::WorkloadOptions opt;
  opt.ops_per_client = 5;
  opt.num_objects = 2;
  opt.seed = 9;
  std::vector<api::Store*> stores{&store};
  // A tight event budget: if the throw ever escapes the loop again, the
  // workload cannot complete and this stays false instead of hanging long.
  const auto result = harness::run_workload(sim, stores, opt, 10'000);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.ops.size(), 5u);
  EXPECT_EQ(result.failures, 5u);
  for (const auto& op : result.ops) EXPECT_TRUE(op.failed);
}

TEST(Workload, RejectsInvertedThinkRange) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 3;
  o.num_clients = 1;
  harness::StaticCluster cluster(o);
  harness::WorkloadOptions opt;
  opt.think_min = 50;
  opt.think_max = 10;  // inverted — must be rejected up front
  EXPECT_THROW(
      (void)harness::run_workload(cluster.sim(), cluster.stores(), opt),
      std::invalid_argument);
}

TEST(WorkloadOptions, ValidateChecksRanges) {
  harness::WorkloadOptions opt;
  EXPECT_NO_THROW(opt.validate());
  opt.think_min = 5;
  opt.think_max = 5;
  EXPECT_NO_THROW(opt.validate());
  opt.think_max = 4;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt.think_max = 6;
  opt.write_fraction = 1.5;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt.write_fraction = -0.1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace ares
