// Tests of ARES-TREAS (Section 5): direct server-to-server state transfer
// during reconfiguration — correctness of the forward/decode/re-encode
// path, zero object bytes through the reconfigurer, and code-parameter
// changes across configurations.
#include "checker/atomicity.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/workload.hpp"
#include "treas/server.hpp"

#include <gtest/gtest.h>

namespace ares {
namespace {

harness::AresClusterOptions direct_options(std::uint64_t seed = 1) {
  harness::AresClusterOptions o;
  o.server_pool = 16;
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_servers = 5;
  o.initial_k = 3;
  o.num_rw_clients = 2;
  o.num_reconfigurers = 1;
  o.direct_transfer = true;
  o.seed = seed;
  return o;
}

TEST(AresTreas, ValueSurvivesDirectTransfer) {
  harness::AresCluster cluster(direct_options());
  auto payload = make_value(make_test_value(3000, 1));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));

  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);
}

TEST(AresTreas, NoObjectBytesThroughReconfigurer) {
  harness::AresCluster cluster(direct_options());
  auto payload = make_value(make_test_value(50000, 2));
  (void)sim::run_to_completion(cluster.sim(), cluster.client(0).write(payload));

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));
  EXPECT_EQ(cluster.reconfigurer(0).update_config_bytes_through_client(), 0u);
}

TEST(AresTreas, BaseClientDoesMoveBytesThroughItself) {
  // Control for the previous test: the Algorithm-5 client-conduit transfer
  // moves at least the object size through the reconfigurer.
  harness::AresClusterOptions o = direct_options();
  o.direct_transfer = false;
  harness::AresCluster cluster(o);
  const std::size_t size = 50000;
  auto payload = make_value(make_test_value(size, 2));
  (void)sim::run_to_completion(cluster.sim(), cluster.client(0).write(payload));

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));
  EXPECT_GE(cluster.reconfigurer(0).update_config_bytes_through_client(),
            size);
}

TEST(AresTreas, TransferredBytesTravelServerToServer) {
  harness::AresCluster cluster(direct_options());
  auto payload = make_value(make_test_value(20000, 3));
  (void)sim::run_to_completion(cluster.sim(), cluster.client(0).write(payload));
  cluster.sim().run();

  cluster.net().reset_stats();
  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));

  const auto& stats = cluster.net().stats();
  // The object moved via FWD-CODE-ELEM messages...
  auto it = stats.data_bytes_by_type.find("treas.fwd_code_elem");
  ASSERT_NE(it, stats.data_bytes_by_type.end());
  EXPECT_GT(it->second, 0u);
  // ...and no Lists (with elements) were pulled to the reconfigurer.
  auto lists = stats.data_bytes_by_type.find("treas.query_list_reply");
  if (lists != stats.data_bytes_by_type.end()) {
    EXPECT_EQ(lists->second, 0u);
  }
}

TEST(AresTreas, ReencodeAcrossDifferentCodeParameters) {
  // [5,3] → [9,7]: destination servers must decode with the source code and
  // re-encode their own fragment under the destination code (Alg. 9:13-15).
  harness::AresCluster cluster(direct_options());
  auto payload = make_value(make_test_value(7777, 4));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 6, 9, 7);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));

  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);

  // The new configuration's servers hold fragments sized for k' = 7.
  cluster.sim().run();
  std::size_t holding = 0;
  for (std::size_t i = 6; i < 15; ++i) {
    const auto* state = dynamic_cast<const treas::TreasServerState*>(
        cluster.servers()[i % 16]->dap_state(spec.id));
    if (state != nullptr && state->live_elements() > 0) ++holding;
  }
  EXPECT_GE(holding, spec.quorum_size());
}

TEST(AresTreas, ChainOfDirectReconfigs) {
  harness::AresCluster cluster(direct_options(5));
  auto payload = make_value(make_test_value(4096, 5));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));
  for (int i = 0; i < 4; ++i) {
    auto spec = cluster.make_spec(dap::Protocol::kTreas,
                                  static_cast<std::size_t>(3 * i + 5), 5, 3);
    (void)sim::run_to_completion(cluster.sim(),
                                 cluster.reconfigurer(0).reconfig(spec));
  }
  EXPECT_EQ(cluster.reconfigurer(0).update_config_bytes_through_client(), 0u);
  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);
}

// The transfer's source configuration is retired while the md-primitive
// request is still in flight: reconfigurer A's REQ-FW-CODE-ELEM is held
// back until B has finalized a newer configuration and garbage-collected
// the prefix. C0's servers bounce A's request with a RetiredReply, which
// must fail A's transfer so A re-syncs and returns, instead of waiting
// forever for acks nobody will send.
TEST(AresTreas, TransferSourceRetiredMidTransferCompletes) {
  harness::AresClusterOptions o = direct_options(7);
  o.num_reconfigurers = 2;
  o.config_gc = true;
  harness::AresCluster cluster(o);
  auto payload = make_value(make_test_value(2048, 7));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));

  const ProcessId slow = cluster.reconfigurer(0).id();
  cluster.net().set_delay_fn(
      [slow, base = sim::uniform_delay(1, 10)](const sim::Message& m,
                                               Rng& rng) -> SimDuration {
        if (m.from == slow &&
            std::dynamic_pointer_cast<const treas::ReqFwdCodeElem>(m.body)) {
          return 100'000;
        }
        return base(m, rng);
      });

  auto a = cluster.reconfigurer(0).reconfig(
      cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3));
  cluster.sim().run_for(10'000);
  ASSERT_FALSE(a.ready()) << "A's transfer request should still be held";

  const ConfigId c2 = sim::run_to_completion(
      cluster.sim(), cluster.reconfigurer(1).reconfig(
                         cluster.make_spec(dap::Protocol::kTreas, 10, 5, 3)));
  EXPECT_FALSE(a.ready());

  (void)sim::run_to_completion(cluster.sim(), std::move(a));
  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);
  EXPECT_EQ(cluster.client(1).cseq().back().cfg, c2);
}

TEST(AresTreas, FallsBackForNonTreasConfigurations) {
  // Direct transfer requires TREAS on both ends; an ABD initial config
  // triggers the documented fallback to client-conduit transfer.
  harness::AresClusterOptions o = direct_options();
  o.initial_protocol = dap::Protocol::kAbd;
  harness::AresCluster cluster(o);
  auto payload = make_value(make_test_value(1000, 6));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));
  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));
  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);
  EXPECT_GT(cluster.reconfigurer(0).update_config_bytes_through_client(), 0u);
}

class AresTreasAtomicity : public ::testing::TestWithParam<std::uint64_t> {};

sim::Future<void> direct_reconfig_loop(harness::AresCluster* cluster,
                                       reconfig::AresClient* rc, int count,
                                       bool* done) {
  for (int i = 0; i < count; ++i) {
    auto spec = cluster->make_spec(dap::Protocol::kTreas,
                                   (static_cast<std::size_t>(i) * 4 + 5) %
                                       cluster->options().server_pool,
                                   5, 3);
    (void)co_await rc->reconfig(std::move(spec));
  }
  *done = true;
  co_return;
}

TEST_P(AresTreasAtomicity, ConcurrentRwAndDirectReconfigIsAtomic) {
  harness::AresCluster cluster(direct_options(GetParam()));
  bool done = false;
  sim::detach(
      direct_reconfig_loop(&cluster, &cluster.reconfigurer(0), 3, &done));

    harness::WorkloadOptions opt;
  opt.ops_per_client = 8;
  opt.write_fraction = 0.5;
  opt.value_size = 96;
  opt.think_max = 120;
  opt.seed = GetParam() * 7 + 11;
  const auto result = harness::run_workload(cluster.sim(), cluster.stores(), opt);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_TRUE(cluster.sim().run_until([&] { return done; }));

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
  EXPECT_EQ(cluster.reconfigurer(0).update_config_bytes_through_client(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AresTreasAtomicity,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ares
