// Tests of the steady-state fast path: piggybacked configuration discovery
// (cached cseq, skip of the explicit read-config round), semifast
// confirmed-tag reads (write-back elision), the per-operation round/byte
// metrics that prove the round counts, and — most importantly — that the
// fast path stays atomic when it races reconfigurations, incomplete writes
// and live rebalancing.
#include "checker/atomicity.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/workload.hpp"
#include "placement/policy.hpp"
#include "placement/rebalancer.hpp"
#include "placement/stats.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace ares {
namespace {

harness::AresClusterOptions abd_ares_options(std::uint64_t seed = 1) {
  harness::AresClusterOptions o;
  o.server_pool = 8;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 5;
  o.num_rw_clients = 2;
  o.num_reconfigurers = 1;
  o.seed = seed;
  return o;
}

std::uint64_t read_config_messages(const sim::Network& net) {
  const auto& by_type = net.stats().messages_by_type;
  auto it = by_type.find("ares.read_config");
  return it == by_type.end() ? 0 : it->second;
}

// --- round-count regressions -------------------------------------------------

TEST(FastPath, QuiescentSteadyStateRoundCounts) {
  harness::AresCluster cluster(abd_ares_options());
  auto& client = cluster.client(0);

  // Warmup: the first operation pays the explicit read-config sync
  // (1 round) on top of get-tag + put-data; the post-put read-config is
  // elided (fenced transfer reads make the hint-free ack quorum proof
  // enough — see AresClient::run_group).
  auto payload = make_value(make_test_value(128, 1));
  (void)sim::run_to_completion(cluster.sim(), client.write(payload));
  EXPECT_EQ(client.traffic().quorum_rounds, 3u);
  EXPECT_EQ(client.traffic().rounds_elided, 1u);
  cluster.sim().run();  // drain in-flight confirm broadcasts

  // Steady state: writes skip the leading read-config AND the post-put
  // config check — 2 rounds (get-tag + put-data)...
  const std::uint64_t before_write = client.traffic().quorum_rounds;
  auto payload2 = make_value(make_test_value(128, 2));
  const Tag wtag =
      sim::run_to_completion(cluster.sim(), client.write(payload2));
  EXPECT_EQ(client.traffic().quorum_rounds - before_write, 2u);

  // ... and a confirmed read is 1 round (get-data only; this client just
  // completed the quorum put of wtag, so its piggybacked hint confirms it).
  const std::uint64_t before_read = client.traffic().quorum_rounds;
  const TagValue tv = sim::run_to_completion(cluster.sim(), client.read());
  EXPECT_EQ(client.traffic().quorum_rounds - before_read, 1u);
  EXPECT_EQ(tv.tag, wtag);

  // Cross-client: once the writer's confirm broadcast landed, another
  // client's read is also 1 round after its own one-time config sync.
  cluster.sim().run();
  auto& other = cluster.client(1);
  (void)sim::run_to_completion(cluster.sim(), other.read());  // pays the sync
  const std::uint64_t before_other = other.traffic().quorum_rounds;
  const TagValue tv2 = sim::run_to_completion(cluster.sim(), other.read());
  EXPECT_EQ(other.traffic().quorum_rounds - before_other, 1u);
  EXPECT_EQ(tv2.tag, wtag);

  const auto verdict = checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(FastPath, BaselineKeepsTheFullRoundStructure) {
  // With the fast path off, every operation pays read-config before and
  // after its data phases: 4 rounds when the sequence is quiescent.
  auto o = abd_ares_options();
  o.fast_path = false;
  o.semifast = false;
  harness::AresCluster cluster(o);
  auto& client = cluster.client(0);

  auto payload = make_value(make_test_value(128, 1));
  (void)sim::run_to_completion(cluster.sim(), client.write(payload));
  const std::uint64_t before_read = client.traffic().quorum_rounds;
  (void)sim::run_to_completion(cluster.sim(), client.read());
  EXPECT_EQ(client.traffic().quorum_rounds - before_read, 4u);

  const std::uint64_t before_write = client.traffic().quorum_rounds;
  auto payload2 = make_value(make_test_value(128, 2));
  (void)sim::run_to_completion(cluster.sim(), client.write(payload2));
  EXPECT_EQ(client.traffic().quorum_rounds - before_write, 4u);
}

TEST(FastPath, QuiescentSteadyStateNeverIssuesReadConfig) {
  // Regression for the tentpole claim: after the one-time sync, a quiescent
  // deployment issues zero ReadConfigReq messages, and every read is
  // exactly one round.
  auto o = abd_ares_options(3);
  o.num_rw_clients = 3;
  harness::AresCluster cluster(o);

  harness::WorkloadOptions warmup;
  warmup.ops_per_client = 4;
  warmup.write_fraction = 0.5;
  warmup.seed = 11;
  (void)cluster.run_multi_object_workload(warmup);
  cluster.sim().run();
  ASSERT_GT(read_config_messages(cluster.net()), 0u);  // the one-time syncs

  cluster.net().reset_stats();
  harness::WorkloadOptions steady;
  steady.ops_per_client = 20;
  steady.write_fraction = 0.0;  // read-only: all tags already confirmed
  steady.seed = 12;
  const auto result = cluster.run_multi_object_workload(steady);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);

  EXPECT_EQ(read_config_messages(cluster.net()), 0u);
  EXPECT_DOUBLE_EQ(result.mean_rounds(/*writes=*/false), 1.0);

  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

// --- fast path vs concurrent reconfiguration --------------------------------

TEST(FastPath, PiggybackedHintInvalidatesCachedCseqMidWrite) {
  // A client whose cached cseq is stale must discover the successor
  // configuration through the piggybacked hints of its own data phases —
  // it skips the explicit read-config round, writes into the old
  // configuration, learns of the new one from the put-data acks, and
  // re-runs the affected phase.
  harness::AresCluster cluster(abd_ares_options(5));
  auto& client = cluster.client(0);

  auto payload = make_value(make_test_value(256, 1));
  (void)sim::run_to_completion(cluster.sim(), client.write(payload));
  ASSERT_EQ(client.cseq().size(), 1u);  // synced on c0

  auto spec = cluster.make_spec(dap::Protocol::kTreas, 3, 5, 3);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));

  // The client still believes c0 is the tail; this write must land in the
  // new configuration anyway.
  auto payload2 = make_value(make_test_value(256, 2));
  const Tag wtag =
      sim::run_to_completion(cluster.sim(), client.write(payload2));
  ASSERT_EQ(client.cseq().size(), 2u);
  EXPECT_EQ(client.cseq()[1].cfg, spec.id);

  auto tv = sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload2);

  const auto verdict = checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(FastPath, PiggybackedHintInvalidatesCachedCseqMidRead) {
  harness::AresCluster cluster(abd_ares_options(6));
  auto& reader = cluster.client(1);

  auto payload = make_value(make_test_value(256, 1));
  (void)sim::run_to_completion(cluster.sim(), cluster.client(0).write(payload));
  (void)sim::run_to_completion(cluster.sim(), reader.read());  // syncs on c0
  ASSERT_EQ(reader.cseq().size(), 1u);

  auto spec = cluster.make_spec(dap::Protocol::kAbd, 2, 5, 1);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));
  auto payload2 = make_value(make_test_value(256, 2));
  const Tag wtag =
      sim::run_to_completion(cluster.sim(), cluster.client(0).write(payload2));

  // The stale reader must return the new configuration's value.
  const TagValue tv = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_EQ(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *payload2);
  ASSERT_EQ(reader.cseq().size(), 2u);
  EXPECT_EQ(reader.cseq()[1].cfg, spec.id);

  const auto verdict = checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(FastPath, WriteDiscoversReconfigCompletingDuringPutRound) {
  // Adversarial schedule for the exact window the post-put read-config used
  // to exist for: a reconfiguration whose put-config completes *while* the
  // write's put-data round is in flight, with every put-data ack pre-dating
  // its server's nextC adoption — the ack quorum is entirely hint-free and
  // the writer elides its post-put config check (2 rounds). The *fence* on
  // transfer reads is what keeps this safe: the transfer counts only
  // replies from servers that installed nextC, and any such quorum
  // intersects the put ack quorum — here the slow queries to s0/s1 (which
  // applied the write at +2) and s2's late nextC adoption force the
  // transfer to observe the written tag. Without the fence this schedule
  // is an atomicity violation; with it the elided write stays visible.
  harness::AresClusterOptions o;
  o.server_pool = 8;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 5;
  o.num_rw_clients = 2;
  o.num_reconfigurers = 1;
  o.min_delay = 2;
  o.max_delay = 2;
  o.seed = 31;
  harness::AresCluster cluster(o);
  auto& writer = cluster.client(0);
  const ProcessId writer_id = writer.id();
  const ProcessId reconfigurer_id = cluster.reconfigurer(0).id();

  auto warm = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(warm));
  cluster.sim().run();
  ASSERT_EQ(writer.cseq().size(), 1u);

  // Adversarial delays for the racing phase:
  //  - writer's put-data: fast to s0/s1, slow to s2, slower still to s3/s4
  //    — the ack quorum {s0,s1,s2} completes late and entirely hint-free;
  //  - put-config to s2 delayed past s2's put-data ack, so s2 stays blind;
  //  - the transfer's fenced get-data delayed to s0/s1/s2 past that ack
  //    (the fenced query piggybacks the successor and installs it on
  //    arrival, so an early query to s2 would stamp the ack with the hint
  //    and un-elide the write). The fence is then satisfied by
  //    {s3,s4} + the delayed replies, all of which echo the successor.
  cluster.net().set_delay_fn([writer_id, reconfigurer_id](
                                 const sim::Message& m, Rng&) -> SimDuration {
    const auto type = m.body->type_name();
    if (type == "abd.write" && m.from == writer_id && m.to <= 4) {
      if (m.to <= 1) return 2;
      if (m.to == 2) return 96;
      return 500;
    }
    if (type == "ares.write_config" && m.to == 2) return 200;
    if (type == "abd.query" && m.from == reconfigurer_id && m.to <= 2) {
      return 300;
    }
    return 2;
  });

  auto second = make_value(make_test_value(64, 2));
  const std::uint64_t before_write = writer.traffic().quorum_rounds;
  sim::Future<Tag> write_future = writer.write(second);
  auto race = [](harness::AresCluster* c) -> sim::Future<void> {
    co_await sim::sleep_for(c->sim(), 5);
    auto spec = c->make_spec(dap::Protocol::kAbd, 5, 3, 1);
    (void)co_await c->reconfigurer(0).reconfig(spec);
    co_return;
  };
  sim::detach(race(&cluster));
  const Tag wtag = sim::run_to_completion(cluster.sim(), write_future);
  // The hint-free ack quorum let the racing write complete in the fenced
  // 2-round budget (get-tag + put-data, post-put check elided).
  EXPECT_EQ(writer.traffic().quorum_rounds - before_write, 2u);
  cluster.sim().run();

  // The reconfiguration raced ahead of the write...
  ASSERT_EQ(cluster.reconfigurer(0).cseq().size(), 2u);
  // ... and the completed write must still be visible afterwards.
  const TagValue tv =
      sim::run_to_completion(cluster.sim(), cluster.client(1).read());
  EXPECT_GE(tv.tag, wtag);
  EXPECT_EQ(*tv.value, *second);

  const auto verdict = checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(FastPath, ChurnWorkloadStaysAtomic) {
  // Readers/writers on the fast path race a reconfigurer installing a chain
  // of configurations mid-workload; every per-object history must stay
  // atomic and the clients must converge onto the final configuration.
  auto o = abd_ares_options(7);
  o.server_pool = 10;
  o.num_rw_clients = 3;
  o.num_objects = 2;
  harness::AresCluster cluster(o);

  bool reconfigs_done = false;
  auto reconfig_loop = [](harness::AresCluster* cluster,
                          bool* done) -> sim::Future<void> {
    for (int i = 0; i < 3; ++i) {
      co_await sim::sleep_for(cluster->sim(), 400);
      auto spec = cluster->make_spec(
          i % 2 == 0 ? dap::Protocol::kTreas : dap::Protocol::kAbd,
          static_cast<std::size_t>(1 + 2 * i), 5, i % 2 == 0 ? 3 : 1);
      (void)co_await cluster->reconfigurer(0).reconfig(/*obj=*/0, spec);
    }
    *done = true;
    co_return;
  };
  sim::detach(reconfig_loop(&cluster, &reconfigs_done));

  harness::WorkloadOptions w;
  w.ops_per_client = 30;
  w.write_fraction = 0.5;
  w.value_size = 200;
  w.seed = 21;
  const auto result = cluster.run_multi_object_workload(w);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_TRUE(cluster.sim().run_until([&] { return reconfigs_done; }));

  EXPECT_GE(cluster.reconfigurer(0).cseq(0).size(), 4u);
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

// --- semifast reads vs incomplete writes -------------------------------------

TEST(FastPath, SemifastReadRacingIncompleteWriteStaysMonotone) {
  // A writer crashes mid-put-data: some servers carry the new tag, the
  // quorum confirmation never happened. Sequential semifast reads must
  // still be monotone (the first unconfirmed read pays the write-back; the
  // tag it returns can then be elided by later readers).
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 5;
  o.num_clients = 3;
  o.seed = 13;
  harness::StaticCluster cluster(o);

  auto payload = make_value(make_test_value(128, 1));
  auto pending = cluster.client(0).reg().write(payload);
  // Run just until the first server has adopted the new tag, then crash the
  // writer: the write is incomplete but visible.
  ASSERT_TRUE(cluster.sim().run_until([&] {
    return cluster.servers()[0]->state().max_tag() > kInitialTag;
  }));
  cluster.net().crash(cluster.client(0).id());

  const TagValue r1 =
      sim::run_to_completion(cluster.sim(), cluster.client(1).reg().read());
  const TagValue r2 =
      sim::run_to_completion(cluster.sim(), cluster.client(2).reg().read());
  const TagValue r3 =
      sim::run_to_completion(cluster.sim(), cluster.client(1).reg().read());
  EXPECT_GE(r2.tag, r1.tag);
  EXPECT_GE(r3.tag, r2.tag);

  const auto verdict = checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(FastPath, SemifastStaticWorkloadsStayAtomic) {
  // Randomized concurrency with semifast reads on, across ABD and TREAS.
  for (auto protocol : {dap::Protocol::kAbd, dap::Protocol::kTreas}) {
    harness::StaticClusterOptions o;
    o.protocol = protocol;
    o.num_servers = 5;
    o.k = 3;
    o.num_clients = 4;
    o.seed = 17;
    harness::StaticCluster cluster(o);
    harness::WorkloadOptions w;
    w.ops_per_client = 25;
    w.write_fraction = 0.3;
    w.seed = 18;
    testing_util::run_and_check_atomic(cluster, w);
  }
}

TEST(FastPath, SemifastReadCutsStaticAbdReadsToOneRound) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 5;
  o.num_clients = 1;
  o.seed = 19;
  harness::StaticCluster cluster(o);
  auto& client = cluster.client(0);

  auto payload = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), client.reg().write(payload));
  const std::uint64_t before = client.traffic().quorum_rounds;
  (void)sim::run_to_completion(cluster.sim(), client.reg().read());
  EXPECT_EQ(client.traffic().quorum_rounds - before, 1u);
}

// --- fast path + live rebalancing -------------------------------------------

TEST(FastPath, RebalancerMigrationUnderFastPath) {
  // The hot-object Rebalancer migrates a key mid-workload while every
  // client runs the fast path: the migration must be discovered via
  // piggybacked hints and the full multi-object history must stay atomic.
  harness::AresClusterOptions o;
  o.server_pool = 10;
  o.initial_servers = 3;
  o.initial_protocol = dap::Protocol::kAbd;
  o.num_rw_clients = 3;
  o.num_reconfigurers = 1;
  o.num_objects = 5;
  o.delta = 8;
  o.seed = 23;
  harness::AresCluster cluster(o);

  placement::RoundRobinPlacement policy;
  (void)cluster.shard_objects(policy, 2, 3, dap::Protocol::kAbd, 1);

  placement::LoadTracker tracker;
  placement::RebalancerOptions ro;
  ro.check_interval = 800;
  ro.hot_share = 0.25;
  ro.min_window_ops = 20;
  ro.max_rebalances = 1;
  placement::Rebalancer rebalancer(
      cluster.sim(), cluster.reconfigurer_store(0), tracker,
      [&cluster](ObjectId) {
        return cluster.make_spec(dap::Protocol::kTreas, 6, 4, 2);
      },
      ro);
  rebalancer.start();

  harness::WorkloadOptions w;
  w.ops_per_client = 60;
  w.write_fraction = 0.4;
  w.key_distribution = harness::KeyDistribution::kZipfian;
  w.zipf_s = 1.4;
  w.seed = 24;
  w.on_op = [&tracker](const harness::OpStat& s) {
    tracker.record(s.object, s.is_write);
  };
  const auto result = cluster.run_multi_object_workload(w);
  rebalancer.shutdown();
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_EQ(rebalancer.events().size(), 1u);

  const auto& ev = rebalancer.events().front();
  auto& client = cluster.client(0);
  (void)sim::run_to_completion(cluster.sim(), client.read(ev.object));
  EXPECT_GE(client.cseq(ev.object).size(), 2u);
  EXPECT_EQ(client.cseq(ev.object).back().cfg, ev.installed);

  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

// --- metrics layer -----------------------------------------------------------

TEST(FastPath, WorkloadSurfacesRoundAndByteCounters) {
  harness::AresCluster cluster(abd_ares_options(29));
  harness::WorkloadOptions w;
  w.ops_per_client = 10;
  w.write_fraction = 0.5;
  w.value_size = 100;
  w.seed = 30;
  const auto result = cluster.run_multi_object_workload(w);
  ASSERT_TRUE(result.completed);
  for (const auto& op : result.ops) {
    EXPECT_GE(op.rounds, 1u);
    EXPECT_GT(op.messages, 0u);
    EXPECT_GT(op.bytes, 0u);
  }
  EXPECT_GT(result.mean_rounds(true), 0.0);
  EXPECT_GT(result.mean_bytes(false), 0.0);
  const auto pcts = result.latency_percentiles(false, {50, 99});
  EXPECT_GE(pcts[1], pcts[0]);
}

}  // namespace
}  // namespace ares
