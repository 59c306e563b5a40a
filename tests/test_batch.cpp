// Batched multi-object operations through the Store API: the round-count
// win (B objects sharing a configuration cost one get-data quorum round
// instead of B), and the adversarial schedules around it — batches
// spanning configurations, a reconfiguration completing mid-batch (the
// config-hint fallback path), and server crashes mid-batch — all
// atomicity-checked per object.
#include "api/ares_store.hpp"
#include "api/static_store.hpp"
#include "checker/atomicity.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/static_cluster.hpp"
#include "harness/workload.hpp"
#include "placement/policy.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace ares {
namespace {

harness::AresClusterOptions abd_cluster(std::size_t objects,
                                        std::size_t clients = 2) {
  harness::AresClusterOptions o;
  o.server_pool = 12;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 5;
  o.num_rw_clients = clients;
  o.num_reconfigurers = 1;
  o.num_objects = objects;
  o.seed = 9;
  return o;
}

/// Writes a distinct value to every object so the key-space is warm (every
/// client's cseq synced, every tag quorum-confirmed).
void warm_up(harness::AresCluster& cluster, std::size_t objects) {
  for (ObjectId obj = 0; obj < objects; ++obj) {
    (void)sim::run_to_completion(
        cluster.sim(),
        cluster.store(0).write(obj,
                               make_value(make_test_value(64, 100 + obj))));
  }
  // One scalar read per object on every other store syncs their caches.
  for (std::size_t c = 1; c < cluster.num_clients(); ++c) {
    for (ObjectId obj = 0; obj < objects; ++obj) {
      (void)sim::run_to_completion(cluster.sim(), cluster.store(c).read(obj));
    }
  }
}

void expect_atomic(harness::AresCluster& cluster) {
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

// --- the round-count win (acceptance criterion) -----------------------------

TEST(Batch, BatchedReadOfSharedConfigCostsAtMostTwoRounds) {
  // B = 6 objects, one shared ABD configuration, quiescent steady state:
  // the batched read must finish in <= 2 quorum rounds total (1 when every
  // tag is already confirmed), vs 2B for the unbatched A1 structure.
  constexpr std::size_t kB = 6;
  harness::AresCluster cluster(abd_cluster(kB));
  warm_up(cluster, kB);

  auto& store = cluster.store(1);
  std::vector<ObjectId> keys;
  for (ObjectId obj = 0; obj < kB; ++obj) keys.push_back(obj);

  const std::uint64_t rounds0 = store.traffic()->quorum_rounds;
  auto results =
      sim::run_to_completion(cluster.sim(), store.read_many(keys));
  const std::uint64_t rounds = store.traffic()->quorum_rounds - rounds0;

  EXPECT_LE(rounds, 2u) << "batched read must coalesce quorum rounds";
  ASSERT_EQ(results.size(), kB);
  for (ObjectId obj = 0; obj < kB; ++obj) {
    ASSERT_TRUE(results[obj].value);
    EXPECT_EQ(*results[obj].value, make_test_value(64, 100 + obj))
        << "object " << obj;
  }
  // The members' amortized metrics sum back to the batch total.
  std::uint64_t sum = 0;
  for (const auto& r : results) sum += r.metrics.rounds;
  EXPECT_EQ(sum, rounds);
  expect_atomic(cluster);
}

TEST(Batch, UnbatchedReadsCostLinearlyMoreRounds) {
  // The baseline the win is measured against: B scalar reads in the same
  // steady state cost >= B rounds (1 each on the semifast fast path).
  constexpr std::size_t kB = 6;
  harness::AresCluster cluster(abd_cluster(kB));
  warm_up(cluster, kB);

  auto& store = cluster.store(1);
  const std::uint64_t rounds0 = store.traffic()->quorum_rounds;
  for (ObjectId obj = 0; obj < kB; ++obj) {
    (void)sim::run_to_completion(cluster.sim(), store.read(obj));
  }
  const std::uint64_t rounds = store.traffic()->quorum_rounds - rounds0;
  EXPECT_GE(rounds, kB);
  expect_atomic(cluster);
}

TEST(Batch, BatchedWriteOfSharedConfigCostsTwoRounds) {
  // Batched writes: one get-tag round + one put round for the whole batch
  // vs 2B unbatched — the post-put config check is elided when every put
  // ack comes back hint-free (fenced transfer reads make that safe).
  constexpr std::size_t kB = 5;
  harness::AresCluster cluster(abd_cluster(kB));
  warm_up(cluster, kB);

  auto& store = cluster.store(1);
  std::vector<WriteOp> batch;
  for (ObjectId obj = 0; obj < kB; ++obj) {
    batch.push_back({obj, make_value(make_test_value(64, 500 + obj))});
  }
  const std::uint64_t rounds0 = store.traffic()->quorum_rounds;
  auto results =
      sim::run_to_completion(cluster.sim(), store.write_many(batch));
  const std::uint64_t rounds = store.traffic()->quorum_rounds - rounds0;

  EXPECT_EQ(rounds, 2u);
  ASSERT_EQ(results.size(), kB);
  for (const auto& r : results) {
    EXPECT_TRUE(r.is_write);
    // Tag spaces are per object: each member advanced its own object's tag
    // past the warm-up write (distinctness across members of one object is
    // covered by WriteManyWithDuplicateObjectsGetsDistinctTags).
    EXPECT_GE(r.tag.z, 2u);
  }

  // The writes are durable and visible to a fresh reader.
  for (ObjectId obj = 0; obj < kB; ++obj) {
    auto r = sim::run_to_completion(cluster.sim(), cluster.store(0).read(obj));
    EXPECT_EQ(*r.value, make_test_value(64, 500 + obj)) << "object " << obj;
  }
  expect_atomic(cluster);
}

TEST(Batch, StaticStoreBatchesAbdReads) {
  // The same coalescing through the static (A1/A2) stack's adapter.
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 5;
  o.num_clients = 2;
  o.seed = 4;
  harness::StaticCluster cluster(o);

  constexpr std::size_t kB = 4;
  std::vector<WriteOp> batch;
  for (ObjectId obj = 0; obj < kB; ++obj) {
    batch.push_back({obj, make_value(make_test_value(32, 70 + obj))});
  }
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.store(0).write_many(batch));

  std::vector<ObjectId> keys;
  for (ObjectId obj = 0; obj < kB; ++obj) keys.push_back(obj);
  auto& reader = cluster.store(1);
  const std::uint64_t rounds0 = reader.traffic()->quorum_rounds;
  auto results =
      sim::run_to_completion(cluster.sim(), reader.read_many(keys));
  EXPECT_LE(reader.traffic()->quorum_rounds - rounds0, 2u);
  for (ObjectId obj = 0; obj < kB; ++obj) {
    EXPECT_EQ(*results[obj].value, make_test_value(32, 70 + obj));
  }
  const auto verdict = checker::check_tag_atomicity(
      cluster.history().records());
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

// --- a scalar op is a batch of one ------------------------------------------

struct Cost {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;  // sent + received
  std::uint64_t bytes = 0;     // sent + received, data + metadata
  bool operator==(const Cost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Cost& c) {
  return os << "{rounds " << c.rounds << ", messages " << c.messages
            << ", bytes " << c.bytes << "}";
}

/// Traffic of one operation of `client`, late quorum replies and confirm
/// broadcasts included (the simulator is drained on both sides).
template <typename Op>
Cost cost_on(sim::Simulator& sim, const sim::Process& client, Op op) {
  sim.run();
  const sim::TrafficStats before = client.traffic();
  (void)sim::run_to_completion(sim, op());
  sim.run();
  const sim::TrafficStats& after = client.traffic();
  return Cost{after.quorum_rounds - before.quorum_rounds,
              after.messages_sent + after.messages_received -
                  before.messages_sent - before.messages_received,
              after.bytes_total() - before.bytes_total()};
}

template <typename Op>
Cost cost_of(harness::AresCluster& cluster, reconfig::AresClient& client,
             Op op) {
  return cost_on(cluster.sim(), client, op);
}

/// In steady state a one-member batch runs exactly the scalar op: the
/// same rounds, messages and bytes.
void expect_batch_of_one_costs_a_scalar_op(
    const harness::AresClusterOptions& o) {
  harness::AresCluster cluster(o);
  warm_up(cluster, 1);
  reconfig::AresClient& client = cluster.client(1);

  const Cost read = cost_of(cluster, client, [&] { return client.read(0); });
  const Cost batch_read =
      cost_of(cluster, client, [&] { return client.read_batch({0}); });
  EXPECT_GE(read.rounds, 1u);
  EXPECT_EQ(batch_read, read);

  const Cost write = cost_of(cluster, client, [&] {
    return client.write(0, make_value(make_test_value(64, 1)));
  });
  const Cost batch_write = cost_of(cluster, client, [&] {
    return client.write_batch({0}, {make_value(make_test_value(64, 2))});
  });
  EXPECT_GE(write.rounds, 2u);
  EXPECT_EQ(batch_write, write);
  expect_atomic(cluster);
}

TEST(Batch, OneMemberBatchCostsExactlyAScalarOpOnAbd) {
  expect_batch_of_one_costs_a_scalar_op(abd_cluster(1));
}

TEST(Batch, OneMemberBatchCostsExactlyAScalarOpOnTreas) {
  harness::AresClusterOptions o = abd_cluster(1);
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_k = 3;
  expect_batch_of_one_costs_a_scalar_op(o);
}

// --- the static stack's batches ---------------------------------------------

harness::StaticClusterOptions static_abd(std::size_t servers,
                                         std::uint64_t seed = 4) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = servers;
  o.num_clients = 2;
  o.seed = seed;
  return o;
}

std::vector<WriteOp> values_for(const std::vector<ObjectId>& keys,
                                std::uint64_t salt) {
  std::vector<WriteOp> batch;
  for (ObjectId obj : keys) {
    batch.push_back({obj, make_value(make_test_value(32, salt + obj))});
  }
  return batch;
}

void expect_static_atomic(harness::StaticCluster& cluster) {
  for (const auto& [obj, verdict] : checker::check_tag_atomicity_per_object(
           cluster.history().records())) {
    EXPECT_TRUE(verdict.ok) << "object " << obj << ": " << verdict.violation;
  }
}

TEST(Batch, StaticWriteManyWithDuplicateObjectsGetsDistinctTags) {
  // A repeated member needs a distinct tag, so it runs in a later wave:
  // the second write of object 0 lands over the first.
  harness::StaticCluster cluster(static_abd(5));
  const std::vector<WriteOp> batch{
      {0, make_value(make_test_value(32, 1))},
      {0, make_value(make_test_value(32, 2))},
      {1, make_value(make_test_value(32, 3))},
  };
  auto results = sim::run_to_completion(cluster.sim(),
                                        cluster.store(0).write_many(batch));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_LT(results[0].tag, results[1].tag)
      << "duplicate members must serialize to distinct tags";
  auto r = sim::run_to_completion(cluster.sim(), cluster.store(1).read(0));
  EXPECT_EQ(r.tag, results[1].tag);
  EXPECT_EQ(*r.value, make_test_value(32, 2));
  expect_static_atomic(cluster);
}

TEST(Batch, StaticReadManyWithRepeatedKeySharesOnePair) {
  harness::StaticCluster cluster(static_abd(5));
  (void)sim::run_to_completion(
      cluster.sim(), cluster.store(0).write_many(values_for({0, 1}, 40)));
  const std::vector<ObjectId> keys{0, 1, 0};
  auto& reader = cluster.store(1);
  const Cost repeated = cost_on(cluster.sim(), reader.client(), [&] {
    return reader.read_many(keys);
  });
  const std::vector<ObjectId> once{0, 1};
  const Cost distinct = cost_on(cluster.sim(), reader.client(), [&] {
    return reader.read_many(once);
  });
  EXPECT_EQ(repeated, distinct) << "a repeated read shares its object's op";

  auto results = sim::run_to_completion(cluster.sim(), reader.read_many(keys));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].tag, results[2].tag);
  EXPECT_EQ(results[0].value, results[2].value);
  EXPECT_EQ(*results[1].value, make_test_value(32, 41));
  expect_static_atomic(cluster);
}

TEST(Batch, StaticSemifastOffCostsOneWriteBackRound) {
  // Without semifast confirmation every member of an ABD read_many is
  // written back — in one shared put round.
  const std::vector<ObjectId> keys{0, 1, 2, 3};
  std::uint64_t rounds[2] = {0, 0};
  for (bool semifast : {true, false}) {
    harness::StaticClusterOptions o = static_abd(5);
    o.semifast = semifast;
    harness::StaticCluster cluster(o);
    (void)sim::run_to_completion(
        cluster.sim(), cluster.store(0).write_many(values_for(keys, 10)));
    auto& reader = cluster.store(1);
    rounds[semifast ? 0 : 1] =
        cost_on(cluster.sim(), reader.client(), [&] {
          return reader.read_many(keys);
        }).rounds;
    expect_static_atomic(cluster);
  }
  EXPECT_EQ(rounds[0], 1u);
  EXPECT_EQ(rounds[1], rounds[0] + 1);
}

TEST(Batch, StaticTreasReadManyCostsItsMembersScalarReads) {
  // TREAS declines the shared frames: read_many is the per-object loop,
  // exactly the rounds and messages of the members' scalar reads.
  const std::vector<ObjectId> keys{0, 1, 2};
  Cost costs[2];
  for (bool batched : {true, false}) {
    harness::StaticClusterOptions o;
    o.protocol = dap::Protocol::kTreas;
    o.num_servers = 5;
    o.k = 3;
    o.num_clients = 2;
    o.seed = 6;
    harness::StaticCluster cluster(o);
    (void)sim::run_to_completion(
        cluster.sim(), cluster.store(0).write_many(values_for(keys, 20)));
    auto& reader = cluster.store(1);
    Cost& c = costs[batched ? 0 : 1];
    if (batched) {
      c = cost_on(cluster.sim(), reader.client(),
                  [&] { return reader.read_many(keys); });
    } else {
      for (ObjectId obj : keys) {
        const Cost one = cost_on(cluster.sim(), reader.client(),
                                 [&] { return reader.read(obj); });
        c.rounds += one.rounds;
        c.messages += one.messages;
      }
    }
    expect_static_atomic(cluster);
  }
  EXPECT_GE(costs[0].rounds, keys.size());
  EXPECT_EQ(costs[0].rounds, costs[1].rounds);
  EXPECT_EQ(costs[0].messages, costs[1].messages);
}

TEST(Batch, StaticAndAresStacksCostTheSameBatch) {
  // Both client stacks run the same member-set rounds: on ABD[3] with the
  // same seed and delays, a 4-member read_many and write_many cost the same
  // rounds and messages on StaticStore as on a warmed, synced, lease-off
  // AresStore, and the reads the same bytes. (A synced ARES writer asks
  // for write-ack leases, so its acks carry a lease slot per member.)
  const std::vector<ObjectId> keys{0, 1, 2, 3};
  const std::vector<WriteOp> warm = values_for(keys, 60);
  const std::vector<WriteOp> batch = values_for(keys, 80);
  // Client 0 writes every key and client 1 reads each once (which syncs
  // the ARES client's cached sequences); then client 1's batches are
  // measured.
  auto measure = [&](sim::Simulator& sim, Store& writer, Store& reader,
                     const sim::Process& process) {
    (void)sim::run_to_completion(sim, writer.write_many(warm));
    for (ObjectId obj : keys) {
      (void)sim::run_to_completion(sim, reader.read(obj));
    }
    return std::pair{
        cost_on(sim, process, [&] { return reader.read_many(keys); }),
        cost_on(sim, process, [&] { return reader.write_many(batch); })};
  };
  // One cluster at a time: each owns the thread's current simulator.
  std::pair<Cost, Cost> fixed;
  {
    harness::StaticCluster cluster(static_abd(3, /*seed=*/8));
    auto& reader = cluster.store(1);
    fixed = measure(cluster.sim(), cluster.store(0), reader, reader.client());
    expect_static_atomic(cluster);
  }
  std::pair<Cost, Cost> ares;
  {
    harness::AresClusterOptions o = abd_cluster(keys.size());
    o.initial_servers = 3;
    o.seed = 8;
    harness::AresCluster cluster(o);
    auto& reader = cluster.store(1);
    ares = measure(cluster.sim(), cluster.store(0), reader, reader.client());
    expect_atomic(cluster);
  }
  EXPECT_EQ(fixed.first.rounds, 1u);
  EXPECT_EQ(fixed.first, ares.first) << "read_many";
  EXPECT_EQ(fixed.second.rounds, 2u);
  EXPECT_EQ(fixed.second.rounds, ares.second.rounds) << "write_many";
  EXPECT_EQ(fixed.second.messages, ares.second.messages) << "write_many";
}

TEST(Batch, SeededStaticBatchSweepStaysAtomic) {
  // The fuzzer drives only the ARES stack; this sweep drives the static
  // one: batched ABD[5] workloads with a server crashing mid-run, semifast
  // on and off, every history checked.
  for (bool semifast : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      harness::StaticClusterOptions o = static_abd(5, seed);
      o.num_clients = 4;
      o.semifast = semifast;
      harness::StaticCluster cluster(o);
      cluster.sim().schedule_after(
          static_cast<SimDuration>(20 + 13 * seed % 300),
          [&cluster] { cluster.crash_servers(1); });
      harness::WorkloadOptions w;
      w.ops_per_client = 16;
      w.write_fraction = 0.3;
      w.value_size = 16;
      w.num_objects = 5;
      w.batch_size = 4;
      w.seed = seed;
      const auto result =
          harness::run_workload(cluster.sim(), cluster.stores(), w);
      ASSERT_TRUE(result.completed) << "seed " << seed;
      ASSERT_EQ(result.failures, 0u) << "seed " << seed;
      ASSERT_EQ(result.ops.size(), w.ops_per_client * o.num_clients);
      const auto verdict =
          checker::check_tag_atomicity(cluster.history().records());
      ASSERT_TRUE(verdict.ok)
          << "seed " << seed << " semifast " << semifast << ": "
          << verdict.violation;
    }
  }
}

// --- batches spanning configurations ----------------------------------------

TEST(Batch, BatchSpanningTwoConfigurationsGroupsPerConfig) {
  // 6 objects sharded over two disjoint ABD[3] configurations: one
  // read_many spans both shards and must group per configuration — at
  // most 2 rounds per shard — with every member correct.
  harness::AresClusterOptions o = abd_cluster(6);
  o.server_pool = 10;
  harness::AresCluster cluster(o);
  placement::RoundRobinPlacement policy;
  (void)cluster.shard_objects(policy, /*num_shards=*/2,
                              /*servers_per_shard=*/3, dap::Protocol::kAbd,
                              /*k=*/1);
  warm_up(cluster, 6);

  auto& store = cluster.store(1);
  std::vector<ObjectId> keys{0, 1, 2, 3, 4, 5};
  const std::uint64_t rounds0 = store.traffic()->quorum_rounds;
  auto results =
      sim::run_to_completion(cluster.sim(), store.read_many(keys));
  const std::uint64_t rounds = store.traffic()->quorum_rounds - rounds0;
  EXPECT_LE(rounds, 4u) << "two shard groups, <= 2 rounds each";
  for (ObjectId obj = 0; obj < 6; ++obj) {
    EXPECT_EQ(*results[obj].value, make_test_value(64, 100 + obj));
  }
  expect_atomic(cluster);
}

TEST(Batch, NonBatchableProtocolMembersFallBackPerObject) {
  // A TREAS-coded configuration cannot serve whole-replica batch rounds:
  // read_many must fall back to per-object Alg.-7 ops and stay correct.
  harness::AresClusterOptions o = abd_cluster(3);
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_k = 3;
  harness::AresCluster cluster(o);
  warm_up(cluster, 3);

  auto& store = cluster.store(1);
  std::vector<ObjectId> keys{0, 1, 2};
  auto results =
      sim::run_to_completion(cluster.sim(), store.read_many(keys));
  for (ObjectId obj = 0; obj < 3; ++obj) {
    EXPECT_EQ(*results[obj].value, make_test_value(64, 100 + obj));
  }
  expect_atomic(cluster);

  // Each member runs alone: the batch costs exactly the rounds and
  // messages of its members' scalar reads.
  reconfig::AresClient& client = store.client();
  const Cost batch =
      cost_of(cluster, client, [&] { return store.read_many(keys); });
  Cost scalar;
  for (ObjectId obj : keys) {
    const Cost one = cost_of(cluster, client, [&] { return store.read(obj); });
    scalar.rounds += one.rounds;
    scalar.messages += one.messages;
  }
  EXPECT_GE(batch.rounds, keys.size());
  EXPECT_EQ(batch.rounds, scalar.rounds);
  EXPECT_EQ(batch.messages, scalar.messages);
}

// --- reconfiguration completing mid-batch (config-hint fallback) ------------

TEST(Batch, StaleCacheMemberFallsBackViaConfigHint) {
  // Client 1's cache says both objects live in c0. A reconfiguration then
  // moves object 1 to a fresh configuration and a writer puts a new value
  // there. Client 1's batched read still groups both members under c0 —
  // the piggybacked nextC hint in the batch reply must demote object 1 to
  // the per-object path, which traverses to the new configuration and
  // returns the new value.
  harness::AresCluster cluster(abd_cluster(2));
  warm_up(cluster, 2);

  auto spec = cluster.make_spec(dap::Protocol::kAbd, 6, 3, 1);
  (void)sim::run_to_completion(
      cluster.sim(), cluster.reconfigurer_store(0).reconfig(1, spec));
  (void)sim::run_to_completion(
      cluster.sim(),
      cluster.store(0).write(1, make_value(make_test_value(64, 999))));

  auto& store = cluster.store(1);  // cache still [⟨c0, F⟩] for object 1
  ASSERT_EQ(store.client().cseq(1).size(), 1u);
  std::vector<ObjectId> keys{0, 1};
  auto results =
      sim::run_to_completion(cluster.sim(), store.read_many(keys));
  EXPECT_EQ(*results[0].value, make_test_value(64, 100 + 0));
  EXPECT_EQ(*results[1].value, make_test_value(64, 999))
      << "stale member must chase the new configuration";
  EXPECT_GE(store.client().cseq(1).size(), 2u)
      << "the hint must have extended the cached sequence";
  expect_atomic(cluster);
}

TEST(Batch, ReconfigChurnDuringBatchedWorkloadStaysAtomic) {
  // The randomized adversarial schedule: a batched workload (reads and
  // writes, batch_size 3) races a chain of reconfigurations. Every
  // interleaving — hints arriving mid-get, mid-put, or during the post-put
  // config check — must leave every object's history atomic.
  harness::AresCluster cluster(abd_cluster(6, /*clients=*/3));

  struct Churn {
    static sim::Future<void> loop(harness::AresCluster* cluster, bool* done) {
      for (int i = 0; i < 4; ++i) {
        co_await sim::sleep_for(cluster->sim(), 900);
        auto spec = cluster->make_spec(
            dap::Protocol::kAbd, static_cast<std::size_t>(1 + 2 * i), 5, 1);
        auto op = cluster->reconfigurer_store(0).reconfig(
            static_cast<ObjectId>(i % 3), std::move(spec));
        (void)co_await op;
      }
      *done = true;
      co_return;
    }
  };
  bool churn_done = false;
  sim::detach(Churn::loop(&cluster, &churn_done));

  harness::WorkloadOptions w;
  w.ops_per_client = 60;
  w.write_fraction = 0.5;
  w.value_size = 48;
  w.batch_size = 3;
  w.seed = 31;
  const auto result = cluster.run_multi_object_workload(w);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.failures, 0u);
  ASSERT_TRUE(cluster.sim().run_until([&] { return churn_done; }));
  expect_atomic(cluster);
}

// --- server crash mid-batch -------------------------------------------------

TEST(Batch, ServerCrashMidBatchStillCompletesAndStaysAtomic) {
  // ABD[5] tolerates two crashes. One server dies between the batch's
  // quorum rounds (scheduled mid-flight): the remaining quorum finishes
  // the batch, every member returns the right value, and the history
  // stays atomic per object.
  constexpr std::size_t kB = 5;
  harness::AresCluster cluster(abd_cluster(kB));
  warm_up(cluster, kB);

  cluster.sim().schedule_after(15, [&cluster] { cluster.net().crash(0); });
  auto& store = cluster.store(1);
  std::vector<ObjectId> keys;
  for (ObjectId obj = 0; obj < kB; ++obj) keys.push_back(obj);
  auto results =
      sim::run_to_completion(cluster.sim(), store.read_many(keys));
  for (ObjectId obj = 0; obj < kB; ++obj) {
    EXPECT_EQ(*results[obj].value, make_test_value(64, 100 + obj));
  }

  // And a batched write over the wreckage (a second crash mid-write).
  cluster.sim().schedule_after(15, [&cluster] { cluster.net().crash(1); });
  std::vector<WriteOp> batch;
  for (ObjectId obj = 0; obj < kB; ++obj) {
    batch.push_back({obj, make_value(make_test_value(64, 700 + obj))});
  }
  auto wres =
      sim::run_to_completion(cluster.sim(), store.write_many(batch));
  ASSERT_EQ(wres.size(), kB);
  for (ObjectId obj = 0; obj < kB; ++obj) {
    auto r = sim::run_to_completion(cluster.sim(), cluster.store(0).read(obj));
    EXPECT_EQ(*r.value, make_test_value(64, 700 + obj)) << "object " << obj;
  }
  expect_atomic(cluster);
}

// --- semantics of the batch surface itself ----------------------------------

TEST(Batch, WriteManyWithDuplicateObjectsGetsDistinctTags) {
  harness::AresCluster cluster(abd_cluster(2));
  warm_up(cluster, 2);
  std::vector<WriteOp> batch{
      {0, make_value(make_test_value(32, 1))},
      {0, make_value(make_test_value(32, 2))},
      {1, make_value(make_test_value(32, 3))},
  };
  auto results = sim::run_to_completion(cluster.sim(),
                                        cluster.store(0).write_many(batch));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NE(results[0].tag, results[1].tag)
      << "duplicate members must serialize to distinct tags";
  expect_atomic(cluster);
}

TEST(Batch, WorkloadDriverBatchModeKeepsOpCountsAndFeedsPerMemberStats) {
  harness::AresCluster cluster(abd_cluster(8, /*clients=*/2));
  harness::WorkloadOptions w;
  w.ops_per_client = 24;
  w.write_fraction = 0.4;
  w.batch_size = 4;
  w.seed = 12;
  std::size_t observed = 0;
  std::set<ObjectId> objects_seen;
  w.on_op = [&](const harness::OpStat& s) {
    ++observed;
    objects_seen.insert(s.object);
    EXPECT_GE(s.batch, 1u);
  };
  const auto result = cluster.run_multi_object_workload(w);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.failures, 0u);
  // ops_per_client counts batch members, so totals are batch-invariant.
  EXPECT_EQ(result.ops.size(), 48u);
  EXPECT_EQ(observed, 48u);
  EXPECT_GT(objects_seen.size(), 1u);
  bool saw_batch = false;
  for (const auto& op : result.ops) saw_batch = saw_batch || op.batch > 1;
  EXPECT_TRUE(saw_batch);
  expect_atomic(cluster);
}

TEST(Batch, StoreReconfigCapabilityGate) {
  harness::StaticClusterOptions o;
  o.protocol = dap::Protocol::kAbd;
  o.num_servers = 3;
  o.num_clients = 1;
  harness::StaticCluster cluster(o);
  EXPECT_FALSE(cluster.store(0).supports_reconfig());
  // The gate reports through the returned future (a Store call never
  // throws synchronously), so awaiting it surfaces the logic_error.
  EXPECT_THROW((void)sim::run_to_completion(
                   cluster.sim(),
                   cluster.store(0).reconfig(kDefaultObject, {})),
               std::logic_error);

  harness::AresCluster ares(abd_cluster(1));
  EXPECT_TRUE(ares.store(0).supports_reconfig());
  EXPECT_TRUE(ares.reconfigurer_store(0).supports_reconfig());
}

}  // namespace
}  // namespace ares
