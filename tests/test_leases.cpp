// Per-object read leases: quorum-granted, time-bounded windows that let a
// client serve reads for a hot object entirely locally — zero quorum
// rounds, zero messages — and provably degrade to the Alg.-7 path on
// writes (wait vs invalidate settle policies), reconfigurations (including
// Rebalancer migrations), lease expiry, clock skew past the ε guard, and
// crashes on either side of the grant.
#include "abd/messages.hpp"
#include "checker/atomicity.hpp"
#include "dap/messages.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/workload.hpp"
#include "placement/policy.hpp"
#include "placement/rebalancer.hpp"
#include "placement/stats.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace ares {
namespace {

harness::AresClusterOptions leased_abd_options(std::uint64_t seed = 1) {
  harness::AresClusterOptions o;
  o.server_pool = 8;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 5;
  o.num_rw_clients = 2;
  o.num_reconfigurers = 1;
  o.lease_ms = 10'000;
  o.lease_policy = dap::LeasePolicy::kInvalidate;
  o.seed = seed;
  return o;
}

void expect_all_atomic(harness::AresCluster& cluster) {
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

// --- the tentpole claim: leased steady-state reads cost nothing ------------

TEST(Leases, SteadyReadsAreZeroRoundsZeroMessages) {
  harness::AresCluster cluster(leased_abd_options());
  auto& client = cluster.client(0);

  auto payload = make_value(make_test_value(128, 1));
  const Tag wtag =
      sim::run_to_completion(cluster.sim(), client.write(payload));
  cluster.sim().run();  // drain confirm broadcasts

  // First read: one quorum round; the full quorum of piggybacked grants
  // installs the lease.
  const std::uint64_t r0 = client.traffic().quorum_rounds;
  (void)sim::run_to_completion(cluster.sim(), client.read());
  EXPECT_EQ(client.traffic().quorum_rounds - r0, 1u);
  ASSERT_TRUE(client.holds_lease(kDefaultObject));

  // Every read inside the window: zero rounds, zero messages, zero bytes.
  const auto before = client.traffic();
  for (int i = 0; i < 5; ++i) {
    const TagValue tv = sim::run_to_completion(cluster.sim(), client.read());
    EXPECT_EQ(tv.tag, wtag);
  }
  EXPECT_EQ(client.traffic().quorum_rounds, before.quorum_rounds);
  EXPECT_EQ(client.traffic().messages_sent, before.messages_sent);
  EXPECT_EQ(client.traffic().bytes_sent(), before.bytes_sent());
  EXPECT_GE(client.lease_local_reads(), 5u);

  // The Store surface reports the same through OpResult metrics.
  const auto r = sim::run_to_completion(cluster.sim(),
                                        cluster.store(0).read(kDefaultObject));
  EXPECT_TRUE(r.metrics.local());
  EXPECT_EQ(r.metrics.rounds, 0u);
  EXPECT_EQ(r.metrics.messages, 0u);
  EXPECT_EQ(r.metrics.bytes, 0u);
  EXPECT_EQ(r.tag, wtag);

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(Leases, LeaseExpiresWithoutTraffic) {
  auto o = leased_abd_options(2);
  o.lease_ms = 300;
  harness::AresCluster cluster(o);
  auto& client = cluster.client(0);

  auto payload = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), client.write(payload));
  cluster.sim().run();
  (void)sim::run_to_completion(cluster.sim(), client.read());
  ASSERT_TRUE(client.holds_lease(kDefaultObject));

  // Let the window (and the expiry reaper wakeup) pass: the next read goes
  // back to the quorum and re-acquires.
  cluster.sim().run_for(1'000);
  EXPECT_FALSE(client.holds_lease(kDefaultObject));
  const std::uint64_t r0 = client.traffic().quorum_rounds;
  (void)sim::run_to_completion(cluster.sim(), client.read());
  EXPECT_EQ(client.traffic().quorum_rounds - r0, 1u);
  EXPECT_TRUE(client.holds_lease(kDefaultObject));
}

// --- writer settle policies -------------------------------------------------

TEST(Leases, InvalidatePolicyRevokesHoldersBeforeWriteCompletes) {
  harness::AresCluster cluster(leased_abd_options(3));
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);

  auto v1 = make_value(make_test_value(128, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v1));
  cluster.sim().run();
  (void)sim::run_to_completion(cluster.sim(), reader.read());
  ASSERT_TRUE(reader.holds_lease(kDefaultObject));

  // The write pushes invalidations and collects the holder's ack before it
  // completes: by completion the reader's cache is poisoned.
  auto v2 = make_value(make_test_value(128, 2));
  const Tag t2 = sim::run_to_completion(cluster.sim(), writer.write(v2));
  EXPECT_FALSE(reader.holds_lease(kDefaultObject));

  // The reader's next read is a quorum round returning the new value.
  const std::uint64_t r0 = reader.traffic().quorum_rounds;
  const TagValue tv = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_GE(reader.traffic().quorum_rounds - r0, 1u);
  EXPECT_EQ(tv.tag, t2);
  EXPECT_EQ(*tv.value, *v2);

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(Leases, WaitPolicyBoundsWriterByTheLeaseWindow) {
  auto o = leased_abd_options(4);
  o.lease_policy = dap::LeasePolicy::kWait;
  o.lease_ms = 500;
  o.min_delay = 2;
  o.max_delay = 2;
  harness::AresCluster cluster(o);
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);

  auto v1 = make_value(make_test_value(64, 1));
  const Tag t1 = sim::run_to_completion(cluster.sim(), writer.write(v1));
  cluster.sim().run();
  const TagValue r1 = sim::run_to_completion(cluster.sim(), reader.read());
  ASSERT_TRUE(reader.holds_lease(kDefaultObject));

  // The writer must wait out the reader's window (no invalidations are
  // sent under kWait) — bounded by lease_ms plus a few message delays.
  const SimTime write_start = cluster.sim().now();
  auto v2 = make_value(make_test_value(64, 2));
  sim::Future<Tag> wf = writer.write(v2);

  // While the writer waits, the reader legally serves the old pair locally
  // (the operations are concurrent).
  cluster.sim().run_for(100);
  const TagValue mid = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_EQ(mid.tag, r1.tag);
  EXPECT_EQ(mid.tag, t1);

  const Tag t2 = sim::run_to_completion(cluster.sim(), wf);
  const SimDuration write_latency = cluster.sim().now() - write_start;
  EXPECT_GE(write_latency, o.lease_ms / 2);       // really waited
  EXPECT_LE(write_latency, o.lease_ms + 100);     // but bounded

  // After completion the reader's window is over: quorum read, new value.
  const TagValue after = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_EQ(after.tag, t2);
  EXPECT_EQ(*after.value, *v2);

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(Leases, CrashedLeaseHolderCannotDeadlockWriters) {
  // Satellite regression: a holder that crash-stops never acks its
  // invalidation; the writer must still terminate within the lease window
  // (the settle's expiry fallback fires).
  auto o = leased_abd_options(5);
  o.lease_ms = 600;
  harness::AresCluster cluster(o);
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);

  auto v1 = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v1));
  cluster.sim().run();
  (void)sim::run_to_completion(cluster.sim(), reader.read());
  ASSERT_TRUE(reader.holds_lease(kDefaultObject));

  cluster.net().crash(reader.id());

  const SimTime write_start = cluster.sim().now();
  auto v2 = make_value(make_test_value(64, 2));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v2));
  // Termination bound: remaining window + a handful of message delays.
  EXPECT_LE(cluster.sim().now() - write_start,
            o.lease_ms + 6 * o.max_delay);
}

TEST(Leases, LeaseBlindReadersMintNoGrants) {
  // A grant is an enforced promise that stalls later writers, so servers
  // mint one only when the reader asked (want_lease): a fast-path-off
  // reader installs nothing and therefore must not slow writers down —
  // under kWait a phantom grant would cost every write up to lease_ms.
  auto o = leased_abd_options(11);
  o.fast_path = false;
  o.lease_policy = dap::LeasePolicy::kWait;
  o.lease_ms = 5'000;
  harness::AresCluster cluster(o);
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);

  auto v1 = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v1));
  (void)sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_FALSE(reader.holds_lease(kDefaultObject));
  for (const auto& srv : cluster.servers()) {
    const auto* dap = srv->dap_state(cluster.initial_config());
    if (dap != nullptr) {
      EXPECT_EQ(dap->lease_count(kDefaultObject, cluster.sim().now()), 0u);
    }
  }

  const SimTime write_start = cluster.sim().now();
  auto v2 = make_value(make_test_value(64, 2));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v2));
  EXPECT_LT(cluster.sim().now() - write_start, 1'000u);  // no lease stall
}

// --- reconfiguration / rebalancing revocation -------------------------------

TEST(Leases, ReconfigRevokesLeasesAndNewConfigLeasesWork) {
  harness::AresCluster cluster(leased_abd_options(6));
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);

  auto v1 = make_value(make_test_value(128, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v1));
  cluster.sim().run();
  (void)sim::run_to_completion(cluster.sim(), reader.read());
  ASSERT_TRUE(reader.holds_lease(kDefaultObject));

  // Migrate the object to a disjoint ABD configuration: the put-config
  // round settles the reader's lease before the transfer runs, so no local
  // read can survive into the successor's write stream.
  auto spec = cluster.make_spec(dap::Protocol::kAbd, 3, 5, 1);
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.reconfigurer(0).reconfig(spec));
  EXPECT_FALSE(reader.holds_lease(kDefaultObject));

  auto v2 = make_value(make_test_value(128, 2));
  const Tag t2 = sim::run_to_completion(cluster.sim(), writer.write(v2));
  cluster.sim().run();

  // The reader discovers the successor, returns the new value, and may
  // then lease under the *new* configuration.
  const TagValue tv = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_EQ(tv.tag, t2);
  EXPECT_EQ(*tv.value, *v2);
  ASSERT_GE(reader.cseq().size(), 2u);
  EXPECT_EQ(reader.cseq().back().cfg, spec.id);
  EXPECT_TRUE(reader.holds_lease(kDefaultObject));
  const std::uint64_t r0 = reader.traffic().quorum_rounds;
  const TagValue local = sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_EQ(reader.traffic().quorum_rounds - r0, 0u);
  EXPECT_EQ(local.tag, t2);

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(Leases, RebalancerMigrationUnderLeasesStaysAtomic) {
  harness::AresClusterOptions o;
  o.server_pool = 10;
  o.initial_servers = 3;
  o.initial_protocol = dap::Protocol::kAbd;
  o.num_rw_clients = 3;
  o.num_reconfigurers = 1;
  o.num_objects = 5;
  o.delta = 8;
  o.lease_ms = 2'000;
  o.lease_policy = dap::LeasePolicy::kInvalidate;
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
        return cluster.make_spec(dap::Protocol::kAbd, 6, 4, 1);
      },
      ro);
  rebalancer.start();

  harness::WorkloadOptions w;
  w.ops_per_client = 60;
  w.write_fraction = 0.4;
  w.key_distribution = harness::KeyDistribution::kZipfian;
  w.zipf_s = 1.4;
  w.think_min = 5;
  w.think_max = 30;
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

  expect_all_atomic(cluster);
}

// --- batched reads (satellite) ----------------------------------------------

TEST(Leases, BatchReadsServeLeasedMembersLocally) {
  auto o = leased_abd_options(7);
  o.num_objects = 4;
  harness::AresCluster cluster(o);
  auto& client = cluster.client(0);
  auto& other = cluster.client(1);

  for (ObjectId obj = 0; obj < 4; ++obj) {
    auto v = make_value(make_test_value(64, obj + 1));
    (void)sim::run_to_completion(cluster.sim(), client.write(obj, v));
  }
  cluster.sim().run();

  // First batch acquires leases for every member in one quorum round.
  auto b1 = sim::run_to_completion(cluster.sim(),
                                   client.read_batch({0, 1, 2}));
  for (ObjectId obj = 0; obj < 3; ++obj) {
    EXPECT_TRUE(client.holds_lease(obj));
  }

  // A fully-leased batch is served without touching the network at all.
  const auto before = client.traffic();
  auto b2 = sim::run_to_completion(cluster.sim(),
                                   client.read_batch({0, 1, 2}));
  EXPECT_EQ(client.traffic().quorum_rounds, before.quorum_rounds);
  EXPECT_EQ(client.traffic().messages_sent, before.messages_sent);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b2[i].tag, b1[i].tag);
  }

  // Member 3 goes cold (another client writes it → our client holds no
  // lease for it); a mixed batch queries ONLY the cold member — alone, so
  // as a scalar abd.query: 5 requests. A lease-blind batch would send a
  // QueryBatchReq listing all four members.
  auto v3 = make_value(make_test_value(64, 99));
  const Tag t3 = sim::run_to_completion(cluster.sim(), other.write(3, v3));
  // Drain the in-flight confirm broadcasts without draining the lease
  // reaper wakeups too (a full run() would jump virtual time past the
  // windows).
  cluster.sim().run_for(200);

  const auto mid = client.traffic();
  auto b3 = sim::run_to_completion(cluster.sim(),
                                   client.read_batch({0, 1, 2, 3}));
  EXPECT_EQ(client.traffic().quorum_rounds - mid.quorum_rounds, 1u);
  EXPECT_EQ(client.traffic().messages_sent - mid.messages_sent, 5u);
  // The fan-out's metadata cost is that of the scalar query, which is
  // smaller than even a one-member batch request (measured by the codec —
  // sizes depend only on the member counts).
  const abd::QueryReq probe;
  dap::QueryBatchReq one_member;
  one_member.objects = {3};
  one_member.confirmed_hints = {Tag{}};
  EXPECT_LT(probe.metadata_bytes(), one_member.metadata_bytes());
  EXPECT_EQ(client.traffic().metadata_bytes_sent - mid.metadata_bytes_sent,
            5u * probe.metadata_bytes());
  EXPECT_EQ(b3[3].tag, t3);
  EXPECT_EQ(*b3[3].value, *v3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b3[i].tag, b1[i].tag);  // still served from the leases
  }

  expect_all_atomic(cluster);
}

TEST(Leases, InvalidationRacingAcquisitionCannotOrphanEnforcement) {
  // Adversarial schedule for the in-flight-grant race: reader A's grants
  // land at S0/S2 at the old tag, writer W's put then invalidates A (A
  // acks with nothing installed yet), and A's read completes afterwards
  // with best = W's tag (from S1, which granted post-adopt) — a quorum of
  // grants, legitimately installable (the fence only blocks tags *below*
  // W's). The grant records at S0/S2 must survive A's invalidation acks:
  // were they erased, writer X could later assemble the ack quorum
  // {S0, S2} with no enforcing member and complete while A still serves
  // W's value locally — a stale read strictly after X's write completed.
  harness::AresClusterOptions o;
  o.server_pool = 3;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 3;
  o.num_rw_clients = 3;
  o.num_reconfigurers = 0;
  o.lease_ms = 400;
  o.lease_policy = dap::LeasePolicy::kInvalidate;
  o.min_delay = 2;
  o.max_delay = 2;
  o.seed = 12;
  harness::AresCluster cluster(o);
  auto& a = cluster.client(0);       // the lease holder, id 3
  auto& w = cluster.client(1);       // the racing writer, id 4
  auto& x = cluster.client(2);       // the later writer, id 5
  const ProcessId aid = a.id();
  const ProcessId wid = w.id();
  const ProcessId xid = x.id();

  // Warm every client with a write: all cseqs synced, no leases held.
  for (auto* c : {&a, &w, &x}) {
    auto v = make_value(make_test_value(64, c->id()));
    (void)sim::run_to_completion(cluster.sim(), c->write(v));
  }
  cluster.sim().run_for(50);

  cluster.net().set_delay_fn(
      [aid, wid, xid](const sim::Message& m, Rng&) -> SimDuration {
        const auto type = m.body->type_name();
        // A's query reaches S0/S2 immediately but S1 only after W's put
        // adopted there; A's replies from S0 arrive late and from S2
        // later still, so A completes on {S0, S1} with best = W's tag.
        if (type == "abd.query" && m.from == aid) return m.to == 1 ? 50 : 2;
        if (type == "abd.query_reply" && m.to == aid) {
          if (m.from == 0) return 40;
          if (m.from == 2) return 70;
          return 2;
        }
        // W's put reaches S1 first (pre-query), S0/S2 after A's grants.
        if (type == "abd.write" && m.from == wid) return m.to == 1 ? 2 : 10;
        // X's put quorum is {S0, S2}: S1 (the only server whose record
        // carries W's tag) is cut out of the ack quorum.
        if (type == "abd.write" && m.from == xid) return m.to == 1 ? 300 : 2;
        return 2;
      });

  sim::Future<TagValue> read_a = a.read();
  cluster.sim().run_for(4);
  auto vw = make_value(make_test_value(64, 42));
  const Tag tw = sim::run_to_completion(cluster.sim(), w.write(vw));
  const TagValue ra = sim::run_to_completion(cluster.sim(), read_a);
  EXPECT_EQ(ra.tag, tw);                       // best came from S1
  ASSERT_TRUE(a.holds_lease(kDefaultObject));  // quorum of grants, installed

  // The enforcement records at S0/S2 survived A's invalidation acks.
  for (ProcessId s : {ProcessId{0}, ProcessId{2}}) {
    const auto* dap = cluster.servers()[s]->dap_state(0);
    ASSERT_NE(dap, nullptr);
    EXPECT_GE(dap->lease_count(kDefaultObject, cluster.sim().now()), 1u);
  }

  // X's write completes through {S0, S2}: its settle there must reach A
  // and poison the lease before X finishes.
  auto vx = make_value(make_test_value(64, 43));
  const Tag tx = sim::run_to_completion(cluster.sim(), x.write(vx));
  cluster.sim().run_for(2);
  const TagValue after = sim::run_to_completion(cluster.sim(), a.read());
  EXPECT_GE(after.tag, tx);

  const auto verdict =
      checker::check_tag_atomicity(cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

// --- clock skew vs the ε guard (adversarial) --------------------------------

/// Drives a reader's clock `skew` behind real time with skew bound ε and
/// returns the atomicity verdict of the resulting history: a lease-holding
/// reader whose clock lags more than ε keeps serving locally after the
/// granting servers released a waiting writer — the classic stale read.
checker::CheckResult run_skew_schedule(std::int64_t skew,
                                       SimDuration epsilon) {
  auto o = leased_abd_options(8);
  o.lease_policy = dap::LeasePolicy::kWait;
  o.lease_ms = 500;
  o.min_delay = 2;
  o.max_delay = 2;
  harness::AresCluster cluster(o);
  auto& writer = cluster.client(0);
  auto& reader = cluster.client(1);
  reader.set_clock_skew(-skew);
  reader.set_lease_epsilon(epsilon);

  auto v1 = make_value(make_test_value(64, 1));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v1));
  cluster.sim().run();
  (void)sim::run_to_completion(cluster.sim(), reader.read());
  EXPECT_TRUE(reader.holds_lease(kDefaultObject));

  // The writer waits out the grant windows and completes shortly after
  // they end (on the servers' clocks).
  auto v2 = make_value(make_test_value(64, 2));
  (void)sim::run_to_completion(cluster.sim(), writer.write(v2));
  cluster.sim().run_for(10);

  // The reader's slow clock believes the window is still open for another
  // ~skew−ε time units. With ε < skew this read is served locally — a
  // stale value returned strictly after the write completed.
  (void)sim::run_to_completion(cluster.sim(), reader.read());

  return checker::check_tag_atomicity(cluster.history().records());
}

TEST(Leases, ClockSkewPastEpsilonIsCaughtByTheChecker) {
  // Guard disabled (ε = 0), real skew 300 > ε: the checker must flag the
  // stale read — this is the violation the ε bound exists to prevent.
  const auto verdict = run_skew_schedule(/*skew=*/300, /*epsilon=*/0);
  EXPECT_FALSE(verdict.ok);
}

TEST(Leases, EpsilonGuardAbsorbsClockSkew) {
  // Same schedule, guard enabled (ε = skew): the reader refuses its lease
  // in time, falls back to the quorum round, and the history stays atomic.
  const auto verdict = run_skew_schedule(/*skew=*/300, /*epsilon=*/300);
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

// --- churn / crash endurance ------------------------------------------------

TEST(Leases, ChurnWorkloadWithLeasesStaysAtomic) {
  auto o = leased_abd_options(9);
  o.server_pool = 10;
  o.num_rw_clients = 3;
  o.num_objects = 2;
  o.lease_ms = 700;
  harness::AresCluster cluster(o);

  bool reconfigs_done = false;
  auto reconfig_loop = [](harness::AresCluster* cluster,
                          bool* done) -> sim::Future<void> {
    for (int i = 0; i < 3; ++i) {
      co_await sim::sleep_for(cluster->sim(), 500);
      auto spec = cluster->make_spec(
          i % 2 == 0 ? dap::Protocol::kAbd : dap::Protocol::kTreas,
          static_cast<std::size_t>(1 + 2 * i), 5, i % 2 == 0 ? 1 : 3);
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
  expect_all_atomic(cluster);
}

TEST(Leases, ServerCrashesUnderLeasedWorkloadStayAtomic) {
  // Crash up to the tolerated f = 2 of the 5 grantor servers mid-workload:
  // settles still gate (quorum intersection is immune to crashes), holders
  // re-acquire from the surviving quorum, atomicity holds throughout.
  auto o = leased_abd_options(10);
  o.num_rw_clients = 3;
  o.num_objects = 2;
  o.lease_ms = 800;
  harness::AresCluster cluster(o);

  bool crashed = false;
  auto crash_loop = [](harness::AresCluster* cluster,
                       bool* done) -> sim::Future<void> {
    co_await sim::sleep_for(cluster->sim(), 600);
    cluster->net().crash(0);
    co_await sim::sleep_for(cluster->sim(), 600);
    cluster->net().crash(3);
    *done = true;
    co_return;
  };
  sim::detach(crash_loop(&cluster, &crashed));

  harness::WorkloadOptions w;
  w.ops_per_client = 25;
  w.write_fraction = 0.4;
  w.value_size = 128;
  w.think_min = 5;
  w.think_max = 40;
  w.seed = 33;
  const auto result = cluster.run_multi_object_workload(w);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_TRUE(cluster.sim().run_until([&] { return crashed; }));
  expect_all_atomic(cluster);
}

}  // namespace
}  // namespace ares
