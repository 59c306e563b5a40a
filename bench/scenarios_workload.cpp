// AresCluster workload scenarios: one runner drives an ABD[5] deployment
// on a 12-server pool through a multi-object workload, optionally racing
// a reconfiguration churn sequence and a server crash, then folds the
// per-object atomicity verdicts. The scenarios differ only in what they
// compare on top of it:
//
//   batch    — multi-object batches (1, 4, 8 members) vs the per-object
//              loop; gate: batch 8 cuts uniform read-heavy read rounds/op
//              by >= 50%.
//   fastpath — piggybacked config discovery + semifast reads vs the
//              paper's exact round structure; gate: >= 25% mean read-
//              latency cut, quiescent read-heavy.
//   leases   — per-object read leases vs the fast path; gate: >= 80%
//              further mean read-latency cut on read-heavy Zipfian.
//   writes   — 2-round writes under fenced transfer reads and adaptive
//              lease windows; gates: quiescent mean write rounds <= 2.2,
//              adaptive kWait write p99 below the same run's fixed-window
//              write p99.
//
// Every gate also requires every run to be atomic and failure-free.
#include "scenario.hpp"

#include "harness/ares_cluster.hpp"
#include "harness/metrics_json.hpp"
#include "harness/workload.hpp"

#include <string>
#include <vector>

namespace ares::bench {
namespace {

/// One reconfiguration of a churn sequence (make_spec's arguments).
struct ChurnStep {
  dap::Protocol protocol;
  std::size_t first_server, n, k;
};

constexpr SimDuration kChurnInterval = 1'500;

/// One workload run. Reconfigurer 0 installs the churn steps one every
/// kChurnInterval; `crash_at` > 0 crashes server 2 (an initial-config
/// member) at that time.
struct Run {
  harness::AresClusterOptions cluster;
  harness::WorkloadOptions workload;
  std::vector<ChurnStep> churn;
  SimTime crash_at = 0;
};

struct RunResult {
  harness::WorkloadResult wl;
  std::uint64_t read_config_msgs = 0;
  double local_read_fraction = 0;  // reads served with 0 rounds, 0 messages
  bool atomic_ok = false;
};

harness::AresClusterOptions base_cluster(std::size_t objects) {
  harness::AresClusterOptions o;
  o.server_pool = 12;
  o.initial_protocol = dap::Protocol::kAbd;
  o.initial_servers = 5;
  o.num_rw_clients = 4;
  o.num_reconfigurers = 1;
  o.num_objects = objects;
  o.seed = 42;
  return o;
}

harness::WorkloadOptions base_workload(std::size_t ops_per_client,
                                       double write_fraction) {
  harness::WorkloadOptions w;
  w.ops_per_client = ops_per_client;
  w.write_fraction = write_fraction;
  w.value_size = 256;
  w.seed = 7;
  return w;
}

sim::Future<void> churn_loop(harness::AresCluster* cluster,
                             std::vector<ChurnStep> steps, bool* done) {
  for (const ChurnStep& s : steps) {
    co_await sim::sleep_for(cluster->sim(), kChurnInterval);
    auto spec = cluster->make_spec(s.protocol, s.first_server, s.n, s.k);
    (void)co_await cluster->reconfigurer(0).reconfig(spec);
  }
  *done = true;
}

sim::Future<void> crash_loop(harness::AresCluster* cluster, SimTime at,
                             bool* done) {
  co_await sim::sleep_for(cluster->sim(), at);
  cluster->net().crash(2);
  *done = true;
}

RunResult run_workload(const Run& run) {
  harness::AresCluster cluster(run.cluster);
  bool churn_done = run.churn.empty();
  bool crash_done = run.crash_at == 0;
  if (!churn_done) sim::detach(churn_loop(&cluster, run.churn, &churn_done));
  if (!crash_done) sim::detach(crash_loop(&cluster, run.crash_at, &crash_done));

  RunResult r;
  r.wl = cluster.run_multi_object_workload(run.workload);
  const auto& by_type = cluster.net().stats().messages_by_type;
  if (auto it = by_type.find("ares.read_config"); it != by_type.end()) {
    r.read_config_msgs = it->second;
  }
  std::size_t reads = 0;
  std::size_t local = 0;
  for (const auto& op : r.wl.ops) {
    if (op.is_write || op.failed) continue;
    ++reads;
    if (op.rounds == 0 && op.messages == 0) ++local;
  }
  r.local_read_fraction =
      reads == 0 ? 0.0
                 : static_cast<double>(local) / static_cast<double>(reads);
  r.atomic_ok = r.wl.completed && r.wl.failures == 0 &&
                cluster.sim().run_until(
                    [&] { return churn_done && crash_done; });
  for (const auto& [obj, verdict] : cluster.check_atomicity_per_object()) {
    r.atomic_ok = r.atomic_ok && verdict.ok;
  }
  return r;
}

harness::Json metrics_json(const RunResult& r) {
  const auto rp = r.wl.latency_percentiles(false, {50, 95, 99});
  const auto wp = r.wl.latency_percentiles(true, {50, 95, 99});
  harness::Json j;
  j.set("read_mean_latency", r.wl.mean_latency(false))
      .set("read_p50_latency", rp[0])
      .set("read_p95_latency", rp[1])
      .set("read_p99_latency", rp[2])
      .set("write_mean_latency", r.wl.mean_latency(true))
      .set("write_p50_latency", wp[0])
      .set("write_p95_latency", wp[1])
      .set("write_p99_latency", wp[2])
      .set("read_rounds_per_op", r.wl.mean_rounds(false))
      .set("write_rounds_per_op", r.wl.mean_rounds(true))
      .set("write_elided_rounds_per_op", r.wl.mean_elided_rounds(true))
      .set("read_messages_per_op", r.wl.mean_messages(false))
      .set("write_messages_per_op", r.wl.mean_messages(true))
      .set("read_bytes_per_op", r.wl.mean_bytes(false))
      .set("write_bytes_per_op", r.wl.mean_bytes(true))
      .set("read_config_messages", r.read_config_msgs)
      .set("local_read_fraction", r.local_read_fraction)
      .set("latency_by_class", harness::latency_by_class_json(r.wl))
      .set("ops", r.wl.ops.size())
      .set("atomicity", r.atomic_ok);
  return j;
}

/// 1 - after/before, or 0 when there is no baseline.
double reduction(double before, double after) {
  return before > 0 ? 1.0 - after / before : 0.0;
}

/// Lease and write scenarios race this sequence: ABD -> TREAS -> ABD.
const std::vector<ChurnStep> kLeaseChurn = {
    {dap::Protocol::kAbd, 1, 5, 1},
    {dap::Protocol::kTreas, 3, 5, 3},
    {dap::Protocol::kAbd, 5, 5, 1},
};

/// Read-heavy-by-default Zipfian (s = 1.2) workload over 8 objects, 4
/// clients x 300 ops: the lease and write scenarios' shared shape.
Run zipf_run(double write_fraction) {
  Run run{base_cluster(8), base_workload(300, write_fraction), {}, 0};
  run.workload.key_distribution = harness::KeyDistribution::kZipfian;
  run.workload.zipf_s = 1.2;
  return run;
}

}  // namespace

Outcome batch() {
  struct Mix {
    std::string name;
    harness::KeyDistribution dist;
    double write_fraction;
  };
  const Mix mixes[] = {
      {"uniform_read_heavy", harness::KeyDistribution::kUniform, 0.10},
      {"uniform_write_heavy", harness::KeyDistribution::kUniform, 0.90},
      {"zipfian_read_heavy", harness::KeyDistribution::kZipfian, 0.10},
      {"zipfian_mixed", harness::KeyDistribution::kZipfian, 0.50},
  };

  Outcome out;
  out.json.set("bench", "batch");
  auto arr = harness::Json::array();
  double uniform_read_reduction = 0;
  for (const Mix& mix : mixes) {
    double baseline_read_rounds = 0;
    for (const std::size_t b : {1, 4, 8}) {
      Run run{base_cluster(16), base_workload(160, mix.write_fraction), {}, 0};
      run.workload.key_distribution = mix.dist;
      run.workload.batch_size = b;
      const RunResult r = run_workload(run);
      out.check(r.atomic_ok,
                "atomicity: " + mix.name + " batch " + std::to_string(b));
      if (b == 1) baseline_read_rounds = r.wl.mean_rounds(false);

      harness::Json entry;
      entry.set("name", mix.name)
          .set("batch_size", b)
          .set("write_fraction", mix.write_fraction)
          .set("zipfian", mix.dist == harness::KeyDistribution::kZipfian)
          .set("metrics", metrics_json(r));
      if (b > 1 && baseline_read_rounds > 0) {
        const double cut =
            reduction(baseline_read_rounds, r.wl.mean_rounds(false));
        entry.set("read_rounds_reduction_vs_unbatched", cut);
        if (mix.name == "uniform_read_heavy" && b == 8) {
          uniform_read_reduction = cut;
        }
      }
      arr.push(std::move(entry));
    }
  }
  out.json.set("scenarios", std::move(arr));
  out.json.set("uniform_read_heavy_b8_round_reduction", uniform_read_reduction);
  out.check(uniform_read_reduction >= 0.50,
            "uniform read-heavy batch-8 read rounds/op cut below 50%");
  return out;
}

Outcome fastpath() {
  struct Mix {
    std::string name;
    double write_fraction;
    bool churn;
  };
  const Mix mixes[] = {
      {"read_heavy", 0.10, false},
      {"write_heavy", 0.90, false},
      {"reconfig_churn", 0.50, true},
  };
  // TREAS -> ABD -> TREAS -> ABD across the pool.
  const std::vector<ChurnStep> churn = {
      {dap::Protocol::kTreas, 1, 5, 3},
      {dap::Protocol::kAbd, 3, 5, 1},
      {dap::Protocol::kTreas, 5, 5, 3},
      {dap::Protocol::kAbd, 7, 5, 1},
  };

  Outcome out;
  out.json.set("bench", "fastpath");
  auto arr = harness::Json::array();
  double read_heavy_reduction = 0;
  for (const Mix& mix : mixes) {
    RunResult results[2];
    for (const bool fast : {false, true}) {
      Run run{base_cluster(4), base_workload(150, mix.write_fraction),
              mix.churn ? churn : std::vector<ChurnStep>{}, 0};
      run.cluster.fast_path = fast;
      run.cluster.semifast = fast;
      results[fast] = run_workload(run);
      out.check(results[fast].atomic_ok,
                "atomicity: " + mix.name + (fast ? " fast" : " baseline"));
    }
    const double cut = reduction(results[0].wl.mean_latency(false),
                                 results[1].wl.mean_latency(false));
    if (mix.name == "read_heavy") read_heavy_reduction = cut;

    harness::Json entry;
    entry.set("name", mix.name)
        .set("write_fraction", mix.write_fraction)
        .set("churn", mix.churn)
        .set("baseline", metrics_json(results[0]))
        .set("fastpath", metrics_json(results[1]))
        .set("read_latency_reduction", cut);
    arr.push(std::move(entry));
  }
  out.json.set("scenarios", std::move(arr));
  out.json.set("read_heavy_read_latency_reduction", read_heavy_reduction);
  out.check(read_heavy_reduction >= 0.25,
            "read-heavy mean read latency cut below 25%");
  return out;
}

Outcome leases() {
  struct Mix {
    std::string name;
    double write_fraction;
    dap::LeasePolicy policy;
    bool churn;
    bool crash;
    /// Invalidate deployments afford long windows (a write revokes in one
    /// extra RTT); wait deployments pick short ones (every write to a
    /// leased object stalls out the remaining window).
    SimDuration lease_ms;
  };
  const Mix mixes[] = {
      {"read_heavy", 0.02, dap::LeasePolicy::kInvalidate, false, false,
       200'000},
      {"writes_invalidate", 0.20, dap::LeasePolicy::kInvalidate, false,
       false, 200'000},
      {"writes_wait", 0.20, dap::LeasePolicy::kWait, false, false, 1'000},
      {"churn_crash", 0.20, dap::LeasePolicy::kInvalidate, true, true,
       200'000},
  };

  Outcome out;
  out.json.set("bench", "leases");
  auto arr = harness::Json::array();
  double read_heavy_reduction = 0;
  for (const Mix& mix : mixes) {
    RunResult results[2];
    for (const bool leased : {false, true}) {
      Run run = zipf_run(mix.write_fraction);
      run.cluster.lease_ms = leased ? mix.lease_ms : 0;
      run.cluster.lease_policy = mix.policy;
      if (mix.churn) run.churn = kLeaseChurn;
      if (mix.crash) run.crash_at = 2'000;
      results[leased] = run_workload(run);
      out.check(results[leased].atomic_ok,
                "atomicity: " + mix.name + (leased ? " leased" : " fastpath"));
    }
    const double cut = reduction(results[0].wl.mean_latency(false),
                                 results[1].wl.mean_latency(false));
    if (mix.name == "read_heavy") read_heavy_reduction = cut;

    harness::Json entry;
    entry.set("name", mix.name)
        .set("write_fraction", mix.write_fraction)
        .set("lease_policy", dap::lease_policy_name(mix.policy))
        .set("lease_ms", mix.lease_ms)
        .set("churn", mix.churn)
        .set("crash", mix.crash)
        .set("fastpath", metrics_json(results[0]))
        .set("leased", metrics_json(results[1]))
        .set("read_latency_reduction", cut);
    arr.push(std::move(entry));
  }
  out.json.set("scenarios", std::move(arr));
  out.json.set("read_heavy_read_latency_reduction", read_heavy_reduction);
  out.check(read_heavy_reduction >= 0.80,
            "read-heavy mean read latency cut below 80%");
  return out;
}

Outcome writes() {
  struct Mix {
    std::string name;
    double write_fraction;
    SimDuration lease_ms;  // 0 = leases off
    dap::LeasePolicy policy;
    bool adaptive;
    bool churn;
    /// Quiescent steady state: mean write rounds gate the 2-round claim.
    bool gate_rounds;
  };
  const Mix mixes[] = {
      {"mixed_nolease", 0.20, 0, dap::LeasePolicy::kInvalidate, false, false,
       true},
      {"write_heavy_nolease", 0.80, 0, dap::LeasePolicy::kInvalidate, false,
       false, true},
      {"writes_wait_fixed", 0.20, 1'000, dap::LeasePolicy::kWait, false,
       false, false},
      {"writes_wait_adaptive", 0.20, 1'000, dap::LeasePolicy::kWait, true,
       false, false},
      {"writes_invalidate_adaptive", 0.20, 200'000,
       dap::LeasePolicy::kInvalidate, true, false, false},
      {"churn_mixed", 0.20, 0, dap::LeasePolicy::kInvalidate, false, true,
       false},
  };

  Outcome out;
  out.json.set("bench", "writes");
  auto arr = harness::Json::array();
  double wait_fixed_p99 = 0;
  double wait_adaptive_p99 = 0;
  for (const Mix& mix : mixes) {
    Run run = zipf_run(mix.write_fraction);
    run.cluster.lease_ms = mix.lease_ms;
    run.cluster.lease_policy = mix.policy;
    run.cluster.lease_adaptive = mix.adaptive;
    if (mix.churn) run.churn = kLeaseChurn;
    const RunResult r = run_workload(run);
    out.check(r.atomic_ok, "atomicity: " + mix.name);

    const double write_p99 =
        r.wl.class_latency_percentiles(harness::OpClass::kWrite, {99})[0];
    if (mix.gate_rounds) {
      out.check(r.wl.mean_rounds(true) <= 2.2,
                mix.name + ": mean write rounds above 2.2");
    }
    if (mix.name == "writes_wait_fixed") wait_fixed_p99 = write_p99;
    if (mix.name == "writes_wait_adaptive") wait_adaptive_p99 = write_p99;

    harness::Json entry;
    entry.set("name", mix.name)
        .set("write_fraction", mix.write_fraction)
        .set("lease_ms", mix.lease_ms)
        .set("lease_policy", dap::lease_policy_name(mix.policy))
        .set("lease_adaptive", mix.adaptive)
        .set("churn", mix.churn)
        .set("metrics", metrics_json(r));
    arr.push(std::move(entry));
  }
  out.json.set("scenarios", std::move(arr));
  out.json.set("wait_fixed_write_p99", wait_fixed_p99);
  out.json.set("wait_adaptive_write_p99", wait_adaptive_p99);
  out.check(wait_adaptive_p99 < wait_fixed_p99,
            "adaptive kWait write p99 does not beat the fixed window's");
  return out;
}

}  // namespace ares::bench
