// End-to-end integration scenarios: long mixed workloads with concurrent
// reconfiguration, protocol migration, server crashes and full-history
// atomicity checks — the closest thing to the paper's deployment story.
#include "checker/atomicity.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/workload.hpp"

#include <gtest/gtest.h>

namespace ares {
namespace {

sim::Future<void> migration_script(harness::AresCluster* cluster,
                                   reconfig::AresClient* rc, bool* done) {
  // ABD [3] → TREAS [5,3] → TREAS [9,7] → LDR [8] → TREAS [6,4],
  // paced so reads/writes interleave with every phase.
  auto s1 = cluster->make_spec(dap::Protocol::kTreas, 3, 5, 3);
  (void)co_await rc->reconfig(std::move(s1));
  co_await sim::sleep_for(rc->simulator(), 300);
  auto s2 = cluster->make_spec(dap::Protocol::kTreas, 8, 9, 7);
  (void)co_await rc->reconfig(std::move(s2));
  co_await sim::sleep_for(rc->simulator(), 300);
  auto s3 = cluster->make_spec(dap::Protocol::kLdr, 1, 8, 1);
  (void)co_await rc->reconfig(std::move(s3));
  co_await sim::sleep_for(rc->simulator(), 300);
  auto s4 = cluster->make_spec(dap::Protocol::kTreas, 10, 6, 4);
  (void)co_await rc->reconfig(std::move(s4));
  *done = true;
  co_return;
}

class Integration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Integration, FullMigrationUnderLoadIsAtomic) {
  harness::AresClusterOptions o;
  o.server_pool = 17;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 3;
  o.num_rw_clients = 4;
  o.num_reconfigurers = 1;
  o.seed = GetParam();
  harness::AresCluster cluster(o);

  bool migration_done = false;
  sim::detach(
      migration_script(&cluster, &cluster.reconfigurer(0), &migration_done));

    harness::WorkloadOptions opt;
  opt.ops_per_client = 12;
  opt.write_fraction = 0.4;
  opt.value_size = 256;
  opt.think_max = 150;
  opt.seed = GetParam() * 1000 + 13;
  const auto result = harness::run_workload(cluster.sim(), cluster.stores(), opt);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_TRUE(cluster.sim().run_until([&] { return migration_done; }));

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;

  // After the dust settles, a fresh read observes the latest written value.
  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(0).read());
  Tag max_written = kInitialTag;
  for (const auto& r : cluster.history().completed()) {
    if (r.kind == checker::OpKind::kWrite) {
      max_written = std::max(max_written, r.tag);
    }
  }
  EXPECT_GE(tv.tag, max_written);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Integration, ::testing::Values(1, 2, 3, 4));

TEST(Integration, ServerReplacementAfterCrashes) {
  // The paper's motivating scenario: servers of the live configuration
  // start failing; a reconfiguration moves the service onto fresh machines
  // before the fault budget is exhausted; data survives.
  harness::AresClusterOptions o;
  o.server_pool = 10;
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_servers = 5;
  o.initial_k = 3;
  o.num_rw_clients = 2;
  o.num_reconfigurers = 1;
  o.seed = 99;
  harness::AresCluster cluster(o);

  auto payload = make_value(make_test_value(10000, 1));
  auto wtag = sim::run_to_completion(cluster.sim(),
                                     cluster.client(0).write(payload));

  cluster.net().crash(0);  // one crash: still within f = 1 for [5,3]

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, 5, 3);
  const ConfigId fresh = spec.id;
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));

  // client(1) catches up on the new configuration while the old one still
  // has a live quorum (a client that never saw c0's successor cannot
  // traverse past a dead c0 — the paper's liveness assumption).
  auto warm = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(warm.tag, wtag);

  // Now the OLD configuration can lose more servers than its fault budget —
  // the service has moved on.
  cluster.net().crash(1);
  cluster.net().crash(2);

  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload);

  // And the data genuinely lives on the new servers.
  cluster.sim().run();
  std::size_t new_servers_holding = 0;
  for (std::size_t i = 5; i < 10; ++i) {
    const auto* state = cluster.servers()[i]->dap_state(fresh);
    if (state != nullptr && state->stored_data_bytes() > 0) {
      ++new_servers_holding;
    }
  }
  EXPECT_GE(new_servers_holding, 4u);  // a ⌈(5+3)/2⌉ quorum
}

TEST(Integration, ManySmallObjectsComposeAtomically) {
  // Composability (Section 1): independent registers — here simulated as
  // sequential epochs on one register with distinct writers — stay atomic
  // as a whole history.
  harness::AresClusterOptions o;
  o.server_pool = 12;
  o.num_rw_clients = 5;
  o.seed = 321;
  harness::AresCluster cluster(o);

    harness::WorkloadOptions opt;
  opt.ops_per_client = 20;
  opt.write_fraction = 0.3;
  opt.value_size = 32;
  opt.think_max = 25;
  opt.seed = 55;
  const auto result = harness::run_workload(cluster.sim(), cluster.stores(), opt);
  ASSERT_TRUE(result.completed);
  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
  // Brute-force cross-check on a small prefix of the history.
  auto records = cluster.history().records();
  if (records.size() > 12) records.resize(12);
  const auto brute = checker::check_linearizable_bruteforce(records);
  EXPECT_TRUE(brute.ok) << brute.violation;
}

TEST(Integration, TwoLiveClustersEachCompleteTheirOwnOps) {
  // Each cluster owns a simulator; while both are alive in one thread, the
  // first one's coroutine resumptions must stay on its own queue, not on
  // the queue of the simulator constructed last.
  harness::AresClusterOptions o;
  o.server_pool = 5;
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_servers = 5;
  o.initial_k = 3;
  o.num_rw_clients = 2;
  o.seed = 17;
  harness::AresCluster first(o);
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 3;
  o.seed = 18;
  harness::AresCluster second(o);

  for (std::uint64_t round = 0; round < 3; ++round) {
    for (harness::AresCluster* c : {&first, &second}) {
      const ValuePtr v = make_value(make_test_value(1000, round));
      ASSERT_TRUE(
          sim::run_to_completion(c->sim(), c->store(0).write(0, v)).ok());
      const auto read = sim::run_to_completion(c->sim(), c->store(1).read(0));
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(*read.value, *v);
    }
  }
  for (harness::AresCluster* c : {&first, &second}) {
    const auto verdict = checker::check_tag_atomicity(c->history().records());
    EXPECT_TRUE(verdict.ok) << verdict.violation;
  }
}

}  // namespace
}  // namespace ares
