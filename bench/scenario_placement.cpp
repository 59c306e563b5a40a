// Placement & hot-object rebalancing under Zipfian skew.
//
// The deployment shards its key-space across narrow configurations drawn
// from one server pool, while every server is a FIFO queue (queued_delay):
// traffic skew becomes latency. Three placements of the same workload are
// compared:
//
//   static       — every object on shard 0 (the unsharded baseline),
//   round-robin  — objects dealt evenly across shards,
//   round-robin + rebalancer — as above, plus the placement::Rebalancer
//                  watching live per-object counters; when the Zipfian hot
//                  object crosses the hotness threshold it is migrated,
//                  mid-workload, to a wider erasure code on the idle half
//                  of the pool via AresClient::reconfig(obj, spec) — the
//                  per-configuration reconfiguration ARES was built for.
//
// For the rebalanced run the hot object's mean latency is split into the
// pre-spread window (ops finished before the migration was decided) and
// the post-spread window (ops started after it installed). Gate: every
// run atomic over its full multi-object history, and the rebalancer
// triggers.
#include "scenario.hpp"

#include "harness/ares_cluster.hpp"
#include "placement/policy.hpp"
#include "placement/rebalancer.hpp"
#include "placement/stats.hpp"

#include <optional>
#include <string>
#include <unordered_set>

namespace ares::bench {
namespace {

constexpr std::size_t kPool = 12;
constexpr std::size_t kObjects = 8;
constexpr std::size_t kShards = 2;           // servers 0-2 and 3-5
constexpr std::size_t kServersPerShard = 3;  // servers 6-11 stay idle
constexpr SimDuration kMinDelay = 10, kMaxDelay = 40, kServiceTime = 30;

double mean_latency_if(const harness::WorkloadResult& r, ObjectId obj,
                       SimTime end_before, SimTime start_after) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& o : r.ops) {
    if (o.failed || o.object != obj) continue;
    if (o.end > end_before || o.start < start_after) continue;
    sum += static_cast<double>(o.latency());
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Runs one placement; folds its atomicity into `out` and returns its
/// JSON entry. Sets `rebalanced` when the rebalancer migrated an object.
harness::Json run_placement(placement::PlacementPolicy& policy,
                            bool use_rebalancer, Outcome& out,
                            bool& rebalanced) {
  harness::AresClusterOptions o;
  o.server_pool = kPool;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 3;  // c0; unused once shard_objects() rebinds
  o.num_rw_clients = 6;
  o.num_reconfigurers = 1;
  o.num_objects = kObjects;
  o.delta = 8;
  o.min_delay = kMinDelay;
  o.max_delay = kMaxDelay;
  o.seed = 42;
  harness::AresCluster cluster(o);
  std::unordered_set<ProcessId> pool_servers;
  for (ProcessId s = 0; s < kPool; ++s) pool_servers.insert(s);
  cluster.net().set_delay_fn(sim::queued_delay(
      kMinDelay, kMaxDelay, kServiceTime, std::move(pool_servers)));
  (void)cluster.shard_objects(policy, kShards, kServersPerShard,
                              dap::Protocol::kAbd, 1);

  placement::LoadTracker tracker;
  std::optional<placement::Rebalancer> rebalancer;
  if (use_rebalancer) {
    placement::RebalancerOptions ro;
    ro.check_interval = 1'000;
    ro.hot_share = 0.30;
    ro.min_window_ops = 40;
    ro.max_rebalances = 1;
    // Spread target: a wider code on the idle half of the pool — TREAS[6,4]
    // on servers 6-11, disjoint from both shards.
    rebalancer.emplace(
        cluster.sim(), cluster.reconfigurer_store(0), tracker,
        [&cluster](ObjectId) {
          return cluster.make_spec(dap::Protocol::kTreas, 6, 6, 4);
        },
        ro);
    rebalancer->start();
  }

  harness::WorkloadOptions w;
  w.ops_per_client = 80;
  w.write_fraction = 0.4;
  w.value_size = 256;
  w.key_distribution = harness::KeyDistribution::kZipfian;
  w.zipf_s = 1.2;
  w.seed = 9;
  w.on_op = [&tracker](const harness::OpStat& s) {
    tracker.record(s.object, s.is_write);
  };
  const auto result = cluster.run_multi_object_workload(w);
  if (rebalancer) rebalancer->shutdown();

  const std::string name =
      std::string(policy.name()) + (use_rebalancer ? " + reb" : "");
  ObjectId hot = kNoObject;
  std::size_t hot_ops = 0;
  for (ObjectId obj = 0; obj < kObjects; ++obj) {
    if (result.ops_on(obj) > hot_ops) {
      hot = obj;
      hot_ops = result.ops_on(obj);
    }
  }
  double overall = 0;
  {
    std::size_t n = 0;
    for (const auto& op : result.ops) {
      if (op.failed) continue;
      overall += static_cast<double>(op.latency());
      ++n;
    }
    overall = n == 0 ? 0.0 : overall / static_cast<double>(n);
  }
  bool atomic_ok = result.completed && result.failures == 0;
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    atomic_ok = atomic_ok && verdict.ok;
  }
  out.check(atomic_ok, "atomicity: " + name);

  const std::size_t rebalances = rebalancer ? rebalancer->events().size() : 0;
  harness::Json entry;
  entry.set("policy", name).set("hot_object", hot).set(
      "hot_share",
      static_cast<double>(hot_ops) / static_cast<double>(result.ops.size()));
  if (rebalances > 0) {
    const placement::RebalanceEvent& ev = rebalancer->events().front();
    entry.set("hot_mean_latency_pre",
              mean_latency_if(result, ev.object, /*end_before=*/ev.decided_at,
                              /*start_after=*/0))
        .set("hot_mean_latency_post",
             mean_latency_if(result, ev.object, /*end_before=*/~SimTime{0},
                             /*start_after=*/ev.installed_at));
    harness::Json event;
    event.set("object", ev.object)
        .set("decided_at", ev.decided_at)
        .set("share", ev.share)
        .set("window_ops", ev.window_ops)
        .set("installed_config", ev.installed)
        .set("installed_at", ev.installed_at);
    entry.set("rebalance_event", std::move(event));
    rebalanced = true;
  } else {
    entry.set("hot_mean_latency_pre",
              mean_latency_if(result, hot, ~SimTime{0}, 0))
        .set("hot_mean_latency_post", -1);  // never spread
  }
  entry.set("overall_mean_latency", overall)
      .set("rebalances", rebalances)
      .set("atomicity", atomic_ok);
  return entry;
}

}  // namespace

Outcome placement() {
  Outcome out;
  out.json.set("bench", "placement");
  auto arr = harness::Json::array();
  bool rebalanced = false;
  placement::StaticPlacement stat;
  placement::RoundRobinPlacement rr, rr_rebalanced;  // stateful: one per run
  arr.push(run_placement(stat, false, out, rebalanced));
  arr.push(run_placement(rr, false, out, rebalanced));
  arr.push(run_placement(rr_rebalanced, true, out, rebalanced));
  out.json.set("scenarios", std::move(arr));
  out.check(rebalanced, "no rebalance was triggered");
  return out;
}

}  // namespace ares::bench
