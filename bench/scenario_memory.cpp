// Durable-storage bench: config-lineage GC reclamation and WAL recovery.
//
// Part 1 — lineage GC. A deployment hosting 100k objects runs a 200-step
// reconfiguration chain concentrated on a handful of hot objects, once
// with GC off (every superseded configuration keeps its server-side copy)
// and once with GC on (finalization retires the predecessor). Reported:
// superseded bytes pinned without GC, the fraction GC frees, and the
// client-side cseq growth the retirement prefix also bounds.
//
// Part 2 — WAL recovery. A WAL-backed deployment is loaded in increments;
// after each one a server crashes and restarts from its journal, timing
// replay against journal size. Afterwards two *other* servers fail, so
// every quorum must pass through the recovered server — the final reads
// complete (and verify) only if replay genuinely restored its state.
//
// Gate: GC frees >= 90% of superseded bytes, post-recovery reads verify,
// and every history is atomic.
#include "scenario.hpp"

#include "harness/ares_cluster.hpp"

#include <chrono>
#include <vector>

namespace ares::bench {
namespace {

constexpr std::size_t kNumObjects = 100'000;
constexpr std::size_t kColdBytes = 128;   // bulk key-space value size
constexpr std::size_t kHotBytes = 4096;   // chained objects carry real weight
constexpr std::size_t kChainSteps = 200;
constexpr std::size_t kHotObjects = 8;
constexpr std::size_t kBatch = 512;

harness::AresClusterOptions gc_scenario(bool gc) {
  harness::AresClusterOptions o;
  o.server_pool = 10;
  o.initial_protocol = dap::Protocol::kTreas;
  o.initial_servers = 5;
  o.initial_k = 3;
  o.num_rw_clients = 1;
  o.num_reconfigurers = 1;
  o.num_objects = kNumObjects;
  o.config_gc = gc;
  return o;
}

/// Writes every object once (batched), hot objects with kHotBytes values.
void load_keyspace(harness::AresCluster& cluster) {
  std::vector<api::WriteOp> ops(kBatch);
  for (std::size_t base = 0; base < kNumObjects; base += kBatch) {
    const std::size_t n = std::min(kBatch, kNumObjects - base);
    ops.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto obj = static_cast<ObjectId>(base + j);
      const std::size_t bytes = obj < kHotObjects ? kHotBytes : kColdBytes;
      ops[j] = {obj, make_value(make_test_value(bytes, obj))};
    }
    (void)sim::run_to_completion(cluster.sim(),
                                 cluster.store(0).write_many(ops));
  }
  cluster.sim().run();  // let every replica land before measuring bytes
}

struct GcRun {
  std::size_t stored_before = 0;  // after load, before the chain
  std::size_t stored_after = 0;   // after the chain drained
  std::uint64_t reclaimed = 0;    // servers' own GC accounting
  std::size_t tombstones = 0;
  std::size_t max_cseq = 0;  // longest client-visible sequence (hot objects)
  double chain_seconds = 0;
  bool atomic_ok = false;
};

GcRun run_gc_scenario(bool gc) {
  harness::AresCluster cluster(gc_scenario(gc));
  load_keyspace(cluster);

  GcRun r;
  r.stored_before = cluster.total_stored_bytes();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t step = 0; step < kChainSteps; ++step) {
    const auto obj = static_cast<ObjectId>(step % kHotObjects);
    auto spec = cluster.make_spec(dap::Protocol::kTreas,
                                  (3 * step + 1) % cluster.options().server_pool,
                                  5, 3);
    (void)sim::run_to_completion(
        cluster.sim(), cluster.reconfigurer_store(0).reconfig(obj, spec));
  }
  cluster.sim().run();  // retirement broadcasts land
  r.chain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  r.stored_after = cluster.total_stored_bytes();
  for (const auto& s : cluster.servers()) {
    r.reclaimed += s->gc().bytes_reclaimed();
    r.tombstones += s->gc().retired_count();
  }
  // The chained data must still read back correctly through the final
  // configurations (stale copies gone does not mean fresh copies wrong).
  // Two rounds: the first discovers the full lineage, the second trims the
  // GC'd prefix on entry — so the cseq lengths measured afterwards show
  // the client-side eviction that rides on retirement.
  bool reads_ok = true;
  for (int round = 0; round < 2; ++round) {
    for (ObjectId obj = 0; obj < kHotObjects; ++obj) {
      const auto res =
          sim::run_to_completion(cluster.sim(), cluster.store(0).read(obj));
      reads_ok = reads_ok && res.value &&
                 *res.value == make_test_value(kHotBytes, obj);
    }
  }
  for (ObjectId obj = 0; obj < kHotObjects; ++obj) {
    r.max_cseq = std::max(r.max_cseq, cluster.client(0).cseq(obj).size());
  }
  const auto verdicts = cluster.check_atomicity_per_object();
  bool atomic = reads_ok;
  for (const auto& [obj, v] : verdicts) atomic = atomic && v.ok;
  r.atomic_ok = atomic;
  return r;
}

struct WalPoint {
  std::size_t objects = 0;
  std::size_t wal_bytes = 0;
  double recover_ms = 0;
  std::size_t restored_bytes = 0;
};

}  // namespace

Outcome memory() {
  // --- Part 1: GC reclamation ----------------------------------------------
  const GcRun off = run_gc_scenario(false);
  const GcRun on = run_gc_scenario(true);

  // Ground truth for superseded bytes: the chain is the only thing that
  // grows storage past the loaded key-space, and with equal-size
  // configurations the final live copies weigh what the initial ones did —
  // so (stored_after - stored_before) with GC off is exactly the bytes
  // pinned by retired configurations.
  const auto superseded =
      static_cast<double>(off.stored_after - off.stored_before);
  const auto freed =
      static_cast<double>(off.stored_after) - static_cast<double>(on.stored_after);
  const double freed_fraction = superseded > 0 ? freed / superseded : 0.0;

  // --- Part 2: WAL recovery -------------------------------------------------
  harness::AresClusterOptions wo;
  wo.server_pool = 10;
  wo.initial_protocol = dap::Protocol::kAbd;  // majority quorums: f = 2
  wo.initial_servers = 5;
  wo.num_rw_clients = 1;
  wo.num_reconfigurers = 1;
  wo.num_objects = 10'000;
  wo.wal = true;
  wo.config_gc = true;
  harness::AresCluster wal_cluster(wo);

  std::vector<WalPoint> points;
  std::vector<api::WriteOp> ops;
  std::size_t written = 0;
  for (const std::size_t target : {std::size_t{2000}, std::size_t{6000},
                                   std::size_t{10'000}}) {
    for (; written < target; written += ops.size()) {
      const std::size_t n = std::min(kBatch, target - written);
      ops.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        const auto obj = static_cast<ObjectId>(written + j);
        ops[j] = {obj, make_value(make_test_value(kColdBytes, obj))};
      }
      (void)sim::run_to_completion(wal_cluster.sim(),
                                   wal_cluster.store(0).write_many(ops));
    }
    wal_cluster.sim().run();

    WalPoint p;
    p.objects = written;
    p.wal_bytes = wal_cluster.wal_device(0).total_bytes();
    wal_cluster.crash_server(0);
    const auto t0 = std::chrono::steady_clock::now();
    wal_cluster.restart_server(0);  // journal replay happens inline
    p.recover_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    p.restored_bytes = wal_cluster.servers()[0]->stored_data_bytes();
    points.push_back(p);
  }

  // Post-recovery linearizable reads: kill two healthy servers so every
  // majority includes the recovered one, then read a sample back.
  wal_cluster.crash_server(1);
  wal_cluster.crash_server(2);
  bool recovery_reads_ok = true;
  for (ObjectId obj = 0; obj < 10'000; obj += 997) {
    const auto res = sim::run_to_completion(wal_cluster.sim(),
                                            wal_cluster.store(0).read(obj));
    recovery_reads_ok = recovery_reads_ok && res.value &&
                        *res.value == make_test_value(kColdBytes, obj);
  }
  bool wal_atomic = true;
  for (const auto& [obj, v] : wal_cluster.check_atomicity_per_object()) {
    wal_atomic = wal_atomic && v.ok;
  }

  // --- emit -----------------------------------------------------------------
  Outcome out;
  harness::Json& doc = out.json;
  doc.set("bench", "memory")
      .set("num_objects", kNumObjects)
      .set("chain_steps", kChainSteps)
      .set("hot_objects", kHotObjects)
      .set("cold_value_bytes", kColdBytes)
      .set("hot_value_bytes", kHotBytes);
  harness::Json gc_off;
  gc_off.set("stored_before", off.stored_before)
      .set("stored_after_chain", off.stored_after)
      .set("max_client_cseq", off.max_cseq)
      .set("chain_seconds", off.chain_seconds)
      .set("atomicity", off.atomic_ok);
  harness::Json gc_on;
  gc_on.set("stored_before", on.stored_before)
      .set("stored_after_chain", on.stored_after)
      .set("bytes_reclaimed", on.reclaimed)
      .set("tombstones", on.tombstones)
      .set("max_client_cseq", on.max_cseq)
      .set("chain_seconds", on.chain_seconds)
      .set("atomicity", on.atomic_ok);
  doc.set("gc_off", std::move(gc_off)).set("gc_on", std::move(gc_on));
  doc.set("superseded_bytes", superseded)
      .set("freed_bytes", freed)
      .set("freed_fraction", freed_fraction);
  auto wal_arr = harness::Json::array();
  for (const auto& p : points) {
    harness::Json e;
    e.set("objects", p.objects)
        .set("wal_bytes", p.wal_bytes)
        .set("recover_ms", p.recover_ms)
        .set("restored_bytes", p.restored_bytes);
    wal_arr.push(std::move(e));
  }
  doc.set("wal_recovery", std::move(wal_arr));
  doc.set("post_recovery_reads_ok", recovery_reads_ok && wal_atomic);
  out.check(off.atomic_ok && on.atomic_ok && wal_atomic,
            "atomicity violated");
  out.check(freed_fraction >= 0.90,
            "GC freed under 90% of superseded bytes");
  out.check(recovery_reads_ok, "post-recovery reads incorrect");
  return out;
}

}  // namespace ares::bench
