// Hot-key auto-spread, end to end: a sharded multi-object deployment under
// Zipfian traffic, with the placement::Rebalancer watching live per-object
// counters and migrating the hot key to a wider erasure code on idle
// servers — while readers and writers keep operating. This is the
// scenario ARES's per-configuration reconfiguration enables: only the hot
// object's lineage moves; every other key stays put.
//
// Like every example, this doubles as an end-to-end check: it exits
// non-zero if the migration doesn't happen, if any cold object's lineage
// moves, or if any object's history violates atomicity.
#include "harness/ares_cluster.hpp"
#include "placement/policy.hpp"
#include "placement/rebalancer.hpp"
#include "placement/stats.hpp"

#include <cstdio>
#include <unordered_set>

using namespace ares;

int main() {
  // 10 servers: two 3-server shards host the key-space, servers 6-9 idle.
  harness::AresClusterOptions o;
  o.server_pool = 10;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 3;
  o.num_rw_clients = 3;
  o.num_reconfigurers = 1;
  o.num_objects = 6;
  o.delta = 8;
  o.seed = 3;
  harness::AresCluster cluster(o);

  // Every server is a FIFO queue: skewed traffic shows up as latency.
  std::unordered_set<ProcessId> servers;
  for (ProcessId s = 0; s < 10; ++s) servers.insert(s);
  cluster.net().set_delay_fn(
      sim::queued_delay(10, 40, 20, std::move(servers)));

  placement::RoundRobinPlacement policy;
  const auto shards = cluster.shard_objects(policy, /*num_shards=*/2,
                                            /*servers_per_shard=*/3,
                                            dap::Protocol::kAbd, /*k=*/1);
  std::printf("placement (%s over %zu shards):\n", policy.name().data(),
              shards.size());
  for (const auto& [obj, cfg] : cluster.placement()) {
    std::printf("  object %u -> config %u\n", obj, cfg);
  }

  // The rebalancer: watch the live counters; when one key draws more than
  // 30%% of the window traffic, move it to TREAS[4,2] on the idle servers.
  placement::LoadTracker tracker;
  placement::RebalancerOptions ro;
  ro.check_interval = 1'000;
  ro.hot_share = 0.30;
  ro.min_window_ops = 24;
  ro.max_rebalances = 1;
  placement::Rebalancer rebalancer(
      cluster.sim(), cluster.reconfigurer_store(0), tracker,
      [&cluster](ObjectId) {
        return cluster.make_spec(dap::Protocol::kTreas, 6, 4, 2);
      },
      ro);
  rebalancer.start();

  harness::WorkloadOptions w;
  w.ops_per_client = 50;
  w.write_fraction = 0.4;
  w.value_size = 128;
  w.key_distribution = harness::KeyDistribution::kZipfian;
  w.zipf_s = 1.2;
  w.seed = 21;
  w.on_op = [&tracker](const harness::OpStat& s) {
    tracker.record(s.object, s.is_write);
  };
  const auto result = cluster.run_multi_object_workload(w);
  rebalancer.shutdown();

  std::printf("\nworkload: %zu ops, %zu failures, completed=%s\n",
              result.ops.size(), result.failures,
              result.completed ? "yes" : "no");
  bool ok = result.completed && result.failures == 0;

  if (rebalancer.events().empty()) {
    std::printf("no hot key detected — FAIL\n");
    return 1;
  }
  const auto& ev = rebalancer.events().front();
  std::printf(
      "hot key %u: %.2f of the window traffic at t=%llu, migrated to\n"
      "config %u (TREAS[4,2] on idle servers 6-9) by t=%llu, mid-workload\n",
      ev.object, ev.share,
      static_cast<unsigned long long>(ev.decided_at), ev.installed,
      static_cast<unsigned long long>(ev.installed_at));

  // Only the hot key's lineage moved; cold keys still sit in their shard.
  auto& store = cluster.store(0);
  for (ObjectId obj = 0; obj < 6; ++obj) {
    const auto tv = sim::run_to_completion(cluster.sim(), store.read(obj));
    const std::size_t lineage = cluster.client(0).cseq(obj).size();
    std::printf("  object %u: lineage length %zu%s\n", obj, lineage,
                obj == ev.object ? "  <- rebalanced" : "");
    if (obj == ev.object) {
      ok = ok && lineage >= 2;
    } else {
      ok = ok && lineage == 1;
    }
    (void)tv;
  }

  // The full interleaved multi-object history stays atomic, per object.
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    std::printf("atomicity of object %u: %s\n", obj,
                verdict.ok ? "PASS" : verdict.violation.c_str());
    ok = ok && verdict.ok;
  }
  return ok ? 0 : 1;
}
