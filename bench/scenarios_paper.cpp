// The paper's evaluation figures, each asserted against its closed form.
// Every cluster here runs the paper's exact message pattern (no semifast
// elision, no fast path), so the measured costs are the analysed ones.
//
//   paper_costs       Theorem 3 (Lemmas 38-40): storage and per-op
//                     communication in object-size units — ABD n / n / 2n,
//                     TREAS (δ+1)n/k / n/k / (δ+2)n/k, LDR (2f+1)(δ+1) /
//                     2f+1 / at most 4 (f = 1).
//   delta             Theorem 3 + 9, the δ trade-off on TREAS[6,4]:
//                     storage (δ+1)n/k, read communication <= (δ+2)n/k.
//   latency_bounds    Lemmas 55/56/58: every DAP and traversal action in
//                     [2d, 2D], read-config over m configurations in
//                     [4d·m, 4D·m].
//   reconfig_chain    Lemma 57 / Fig. 2: k back-to-back installs take at
//                     least 4d·k(k+1)/2 + k·(T(CN) + 2d).
//   rw_under_reconfig Lemmas 59/60: an operation racing installs stays
//                     within 6D(ν-μ+2); under the Appendix-D adversary
//                     every write still terminates.
//   state_transfer    Section 5 / Fig. 3: ARES-TREAS moves 0 object bytes
//                     through the reconfiguration client.
//   ablation          The [n, k] design space: every k > n/3 point is live
//                     with f = (n-k)/2 crashes and blocked with f+1.
#include "scenario.hpp"

#include "ares/client.hpp"
#include "consensus/paxos.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/static_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace ares::bench {
namespace {

// Object-size units are compared to 0.01 units; storage to 1% (coded
// elements round up to whole bytes).
constexpr double kUnitTolerance = 0.01;
constexpr double kStorageTolerance = 0.01;
constexpr std::size_t kValueSize = 100'000;

/// |measured - expected| <= tolerance.
bool near(double measured, double expected, double tolerance) {
  return std::abs(measured - expected) <= tolerance;
}

struct Shape {
  dap::Protocol protocol;
  std::size_t n, k, delta;
};

std::string shape_name(const Shape& s) {
  return std::string(dap::protocol_name(s.protocol)) + "[" +
         std::to_string(s.n) + "," + std::to_string(s.k) +
         "] delta=" + std::to_string(s.delta);
}

/// Measured costs in object-size units.
struct Costs {
  double storage = 0;  // total stored across servers, history saturated
  double write = 0;    // object-data bytes on the wire for one write
  double read = 0;     // ... for one read, full (δ+1)-deep lists
};

Costs measure_costs(const Shape& s) {
  harness::StaticClusterOptions o;
  o.protocol = s.protocol;
  // LDR's replicas sit after its 3 directory servers.
  o.num_servers = s.protocol == dap::Protocol::kLdr ? s.n + 3 : s.n;
  o.k = s.k;
  o.delta = s.delta;
  o.num_clients = 1;
  o.semifast = false;
  harness::StaticCluster cluster(o);
  const auto units = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(kValueSize);
  };
  const auto write = [&cluster](std::size_t version) {
    auto payload = make_value(make_test_value(kValueSize, version));
    (void)sim::run_to_completion(
        cluster.sim(), cluster.store(0).write(kDefaultObject, payload));
    cluster.sim().run();  // count late replica traffic too (worst case)
  };

  // Cycle the bounded history twice so every list is (δ+1) deep.
  for (std::size_t i = 0; i < 2 * (s.delta + 2); ++i) write(i);
  Costs c;
  c.storage = units(cluster.total_stored_bytes());

  cluster.net().reset_stats();
  write(99);
  c.write = units(cluster.net().stats().data_bytes);

  cluster.net().reset_stats();
  (void)sim::run_to_completion(cluster.sim(),
                               cluster.store(0).read(kDefaultObject));
  cluster.sim().run();
  c.read = units(cluster.net().stats().data_bytes);
  return c;
}

/// Theorem 3's closed forms for `s` (LDR with f = 1: 2f+1 = 3 replicas).
Costs paper_costs_of(const Shape& s) {
  const double n = static_cast<double>(s.n);
  const double k = static_cast<double>(s.k);
  const double delta = static_cast<double>(s.delta);
  switch (s.protocol) {
    case dap::Protocol::kAbd:
      return {n, n, 2 * n};  // read: replies + the A1 write-back
    case dap::Protocol::kTreas:
      return {(delta + 1) * n / k, n / k, (delta + 2) * n / k};
    case dap::Protocol::kLdr:
      return {3 * (delta + 1), 3, 4};  // read: an upper bound
  }
  return {};
}

/// Ratio-to-closed-form check for storage: |measured/paper - 1| <= 1%.
bool storage_holds(double measured, double paper) {
  return near(measured / paper, 1.0, kStorageTolerance);
}

struct Band {
  SimDuration lo = ~SimDuration{0};
  SimDuration hi = 0;
  void add(SimDuration v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
};

/// Exposes the protected traversal actions for direct measurement.
class ProbeClient final : public reconfig::AresClient {
 public:
  using reconfig::AresClient::AresClient;
  using reconfig::AresClient::put_config;
  using reconfig::AresClient::read_next_config;
};

/// The paper's exact round structure on an ARES deployment.
harness::AresClusterOptions paper_ares(std::size_t pool, SimDuration d,
                                       SimDuration D) {
  harness::AresClusterOptions o;
  o.server_pool = pool;
  o.initial_servers = 5;
  o.min_delay = d;
  o.max_delay = D;
  o.num_rw_clients = 1;
  o.fast_path = false;
  o.semifast = false;
  return o;
}

/// Reconfigurer 0 installs `count` TREAS[5,3] configurations of
/// kDefaultObject back to back, then sets *done.
sim::Future<void> install_loop(harness::AresCluster* cluster, int count,
                               bool* done) {
  for (int i = 0; i < count; ++i) {
    auto spec = cluster->make_spec(
        dap::Protocol::kTreas,
        (static_cast<std::size_t>(i) * 3 + 5) % cluster->options().server_pool,
        5, 3);
    (void)co_await cluster->reconfigurer_store(0).reconfig(kDefaultObject,
                                                           std::move(spec));
  }
  *done = true;
}

}  // namespace

Outcome paper_costs() {
  const Shape shapes[] = {
      {dap::Protocol::kAbd, 3, 1, 0},    {dap::Protocol::kAbd, 5, 1, 0},
      {dap::Protocol::kTreas, 3, 2, 0},  {dap::Protocol::kTreas, 3, 2, 2},
      {dap::Protocol::kTreas, 5, 3, 0},  {dap::Protocol::kTreas, 5, 3, 2},
      {dap::Protocol::kTreas, 5, 3, 4},  {dap::Protocol::kTreas, 6, 4, 2},
      {dap::Protocol::kTreas, 9, 7, 2},  {dap::Protocol::kTreas, 11, 8, 2},
      {dap::Protocol::kTreas, 11, 8, 4}, {dap::Protocol::kLdr, 3, 1, 2},
      {dap::Protocol::kLdr, 3, 1, 4},    {dap::Protocol::kLdr, 5, 1, 2},
  };
  Outcome out;
  out.json.set("bench", "paper_costs").set("value_size", kValueSize);
  auto rows = harness::Json::array();
  for (const Shape& s : shapes) {
    const Costs m = measure_costs(s);
    const Costs p = paper_costs_of(s);
    const std::string name = shape_name(s);
    out.check(storage_holds(m.storage, p.storage), name + ": storage");
    out.check(near(m.write, p.write, kUnitTolerance), name + ": write comm");
    out.check(s.protocol == dap::Protocol::kLdr
                  ? m.read <= p.read + kUnitTolerance
                  : near(m.read, p.read, kUnitTolerance),
              name + ": read comm");
    harness::Json row;
    row.set("protocol", dap::protocol_name(s.protocol))
        .set("n", s.n)
        .set("k", s.k)
        .set("delta", s.delta)
        .set("storage_units", m.storage)
        .set("storage_paper", p.storage)
        .set("write_units", m.write)
        .set("write_paper", p.write)
        .set("read_units", m.read)
        .set("read_paper", p.read);
    rows.push(std::move(row));
  }
  out.json.set("rows", std::move(rows));
  return out;
}

Outcome delta() {
  Outcome out;
  out.json.set("bench", "delta").set("n", 6).set("k", 4);
  auto rows = harness::Json::array();
  for (const std::size_t delta : {0, 1, 2, 4, 8}) {
    const Shape s{dap::Protocol::kTreas, 6, 4, delta};
    const Costs m = measure_costs(s);
    const Costs p = paper_costs_of(s);
    out.check(storage_holds(m.storage, p.storage), shape_name(s) + ": storage");
    out.check(m.read <= p.read + kUnitTolerance,
              shape_name(s) + ": read comm above (delta+2)n/k");
    harness::Json row;
    row.set("delta", delta)
        .set("storage_units", m.storage)
        .set("storage_paper", p.storage)
        .set("read_units", m.read)
        .set("read_paper_max", p.read);
    rows.push(std::move(row));
  }
  out.json.set("rows", std::move(rows));
  return out;
}

Outcome latency_bounds() {
  const SimDuration d = 10, D = 40;
  Outcome out;
  out.json.set("bench", "latency_bounds").set("d", d).set("D", D);
  auto actions = harness::Json::array();
  const auto in_band = [&](const char* action, const char* protocol,
                           const Band& b) {
    out.check(b.lo >= 2 * d && b.hi <= 2 * D,
              std::string(action) + " (" + protocol + ") outside [2d, 2D]");
    harness::Json row;
    row.set("action", action)
        .set("protocol", protocol)
        .set("min", b.lo)
        .set("max", b.hi)
        .set("paper_lo", 2 * d)
        .set("paper_hi", 2 * D);
    actions.push(std::move(row));
  };

  // DAP actions on static ABD and TREAS clusters (Lemma 58).
  for (const dap::Protocol proto :
       {dap::Protocol::kAbd, dap::Protocol::kTreas}) {
    harness::StaticClusterOptions o;
    o.protocol = proto;
    o.num_servers = 5;
    o.k = 3;
    o.num_clients = 1;
    o.min_delay = d;
    o.max_delay = D;
    o.semifast = false;
    harness::StaticCluster cluster(o);
    auto& sim = cluster.sim();
    auto& c = cluster.client(0);
    Band get_tag, get_data, put_data;
    for (int trial = 0; trial < 40; ++trial) {
      SimTime t0 = sim.now();
      TagValue tv{Tag{static_cast<std::uint64_t>(trial + 1), 0},
                  make_value(make_test_value(64, 1))};
      sim::run_to_completion(sim, c.dap().put_data(tv));
      put_data.add(sim.now() - t0);

      t0 = sim.now();
      (void)sim::run_to_completion(sim, c.dap().get_tag());
      get_tag.add(sim.now() - t0);

      t0 = sim.now();
      (void)sim::run_to_completion(sim, c.dap().get_data());
      get_data.add(sim.now() - t0);
    }
    in_band("get-tag", dap::protocol_name(proto), get_tag);
    in_band("get-data", dap::protocol_name(proto), get_data);
    in_band("put-data", dap::protocol_name(proto), put_data);
  }

  // Traversal actions (Lemma 55).
  {
    harness::AresCluster cluster(paper_ares(6, d, D));
    ProbeClient probe(cluster.sim(), cluster.net(), 900, cluster.registry(),
                      cluster.initial_config(), nullptr);
    Band rnc, pc;
    for (int trial = 0; trial < 40; ++trial) {
      SimTime t0 = cluster.sim().now();
      (void)sim::run_to_completion(
          cluster.sim(),
          probe.read_next_config(kDefaultObject, cluster.initial_config()));
      rnc.add(cluster.sim().now() - t0);

      t0 = cluster.sim().now();
      reconfig::CseqEntry entry{cluster.initial_config(), false};
      sim::run_to_completion(
          cluster.sim(),
          probe.put_config(kDefaultObject, cluster.initial_config(), entry));
      pc.add(cluster.sim().now() - t0);
    }
    in_band("read-next-config", "ARES", rnc);
    in_band("put-config", "ARES", pc);
  }
  out.json.set("actions", std::move(actions));

  // read-config over a chain of m configurations (Lemma 56): a fresh
  // client has mu = 0 and must traverse all of them.
  auto chains = harness::Json::array();
  for (std::size_t m = 1; m <= 6; ++m) {
    harness::AresCluster cluster(paper_ares(8, d, D));
    for (std::size_t i = 0; i + 1 < m; ++i) {
      auto spec = cluster.make_spec(dap::Protocol::kTreas, (i + 1) % 4, 5, 3);
      (void)sim::run_to_completion(cluster.sim(),
                                   cluster.reconfigurer(0).reconfig(spec));
    }
    ProbeClient probe(cluster.sim(), cluster.net(), 901, cluster.registry(),
                      cluster.initial_config(), nullptr);
    const SimTime t0 = cluster.sim().now();
    sim::run_to_completion(cluster.sim(), probe.read_config());
    const SimDuration took = cluster.sim().now() - t0;
    out.check(took >= 4 * d * m && took <= 4 * D * m,
              "read-config over " + std::to_string(m) +
                  " configurations outside [4d*m, 4D*m]");
    harness::Json row;
    row.set("configs", m)
        .set("measured", took)
        .set("paper_lo", 4 * d * m)
        .set("paper_hi", 4 * D * m);
    chains.push(std::move(row));
  }
  out.json.set("read_config", std::move(chains));
  return out;
}

Outcome reconfig_chain() {
  // Every message takes exactly d, so the bound is tight up to the
  // update/finalize phases' constant extra rounds per install.
  const SimDuration d = 10;
  SimDuration tcn = 0;  // one bare consensus decision on c0's servers
  {
    harness::AresCluster cluster(paper_ares(5, d, d));
    consensus::PaxosProposer proposer(cluster.client(0), 0,
                                      cluster.registry().get(0).servers, 7);
    const SimTime t0 = cluster.sim().now();
    (void)sim::run_to_completion(cluster.sim(), proposer.propose(1234));
    tcn = cluster.sim().now() - t0;
  }

  Outcome out;
  out.json.set("bench", "reconfig_chain").set("d", d).set("t_cn", tcn);
  auto rows = harness::Json::array();
  for (std::size_t k = 1; k <= 8; ++k) {
    // The paper's construction: each install is performed by a fresh
    // reconfigurer that must first re-traverse the whole chain.
    auto o = paper_ares(10, d, d);
    o.num_reconfigurers = k;
    harness::AresCluster cluster(o);
    const SimTime t0 = cluster.sim().now();
    for (std::size_t i = 0; i < k; ++i) {
      auto spec = cluster.make_spec(dap::Protocol::kTreas, (i + 1) % 5, 5, 3);
      (void)sim::run_to_completion(cluster.sim(),
                                   cluster.reconfigurer(i).reconfig(spec));
    }
    const SimDuration measured = cluster.sim().now() - t0;
    const double kd = static_cast<double>(k);
    const double bound = 4.0 * static_cast<double>(d) * kd * (kd + 1) / 2.0 +
                         kd * (static_cast<double>(tcn) + 2.0 * d);
    out.check(static_cast<double>(measured) >= bound,
              "T(" + std::to_string(k) + ") below the Lemma 57 bound");
    harness::Json row;
    row.set("k", k).set("measured", measured).set("paper_lower_bound", bound);
    rows.push(std::move(row));
  }
  out.json.set("rows", std::move(rows));
  return out;
}

Outcome rw_under_reconfig() {
  const SimDuration d = 10, D = 40;
  Outcome out;
  out.json.set("bench", "rw_under_reconfig").set("d", d).set("D", D);

  // E9 (Lemma 59): a write then a read while R installs race them; each
  // is bounded by 6D(nu - mu + 2) in its own client's view (nu at its
  // end, mu at its start).
  auto e9 = harness::Json::array();
  for (const int installs : {0, 1, 2, 4, 8}) {
    auto o = paper_ares(12, d, D);
    o.num_rw_clients = 2;
    o.seed = static_cast<std::uint64_t>(installs) + 1;
    harness::AresCluster cluster(o);
    bool done = installs == 0;
    if (!done) sim::detach(install_loop(&cluster, installs, &done));

    cluster.client(0).bind_object(kDefaultObject, cluster.initial_config());
    cluster.client(1).bind_object(kDefaultObject, cluster.initial_config());
    harness::Json row;
    row.set("installs", installs);
    for (const bool is_write : {true, false}) {
      auto& client = cluster.client(is_write ? 0 : 1);
      const std::size_t mu_start = client.mu();
      const SimTime t0 = cluster.sim().now();
      if (is_write) {
        auto payload = make_value(make_test_value(512, 1));
        (void)sim::run_to_completion(
            cluster.sim(), cluster.store(0).write(kDefaultObject, payload));
      } else {
        (void)sim::run_to_completion(cluster.sim(),
                                     cluster.store(1).read(kDefaultObject));
      }
      const SimDuration latency = cluster.sim().now() - t0;
      const std::size_t span = client.nu() - mu_start;
      const SimDuration bound = 6 * D * (span + 2);
      const std::string op = is_write ? "write" : "read";
      out.check(latency <= bound, op + " with " + std::to_string(installs) +
                                      " installs above 6D(nu-mu+2)");
      row.set(op + "_latency", latency)
          .set(op + "_span", span)
          .set(op + "_paper_bound", bound);
    }
    (void)cluster.sim().run_until([&] { return done; });
    e9.push(std::move(row));
  }
  out.json.set("e9", std::move(e9));

  // E10 (Lemma 60 / Appendix D): reconfiguration traffic at d_fast,
  // client traffic at D, 6 installs racing one write.
  auto e10 = harness::Json::array();
  for (const SimDuration dfast : {1, 2, 5, 10, 20, 40}) {
    auto o = paper_ares(12, dfast, D);
    o.seed = dfast;
    harness::AresCluster cluster(o);
    cluster.net().set_delay_fn(
        sim::biased_delay({cluster.reconfigurer(0).id()}, dfast, D));
    bool done = false;
    sim::detach(install_loop(&cluster, 6, &done));

    cluster.client(0).bind_object(kDefaultObject, cluster.initial_config());
    const std::size_t mu_start = cluster.client(0).mu();
    const SimTime t0 = cluster.sim().now();
    auto wf = cluster.store(0).write(kDefaultObject,
                                     make_value(make_test_value(256, 2)));
    const bool finished =
        cluster.sim().run_until([&] { return wf.ready(); }, 4'000'000);
    const SimDuration latency = cluster.sim().now() - t0;
    const std::size_t chased = cluster.client(0).nu() - mu_start;
    (void)cluster.sim().run_until([&] { return done; });
    out.check(finished, "write did not terminate at d_fast=" +
                            std::to_string(dfast));
    harness::Json row;
    row.set("d_fast", dfast)
        .set("write_latency", latency)
        .set("configs_chased", chased)
        .set("terminated", finished);
    e10.push(std::move(row));
  }
  out.json.set("e10", std::move(e10));
  return out;
}

Outcome state_transfer() {
  Outcome out;
  out.json.set("bench", "state_transfer");
  auto rows = harness::Json::array();
  for (const std::size_t kb : {64, 256, 1024}) {
    for (const auto& [n2, k2] : {std::pair<std::size_t, std::size_t>{5, 3},
                                std::pair<std::size_t, std::size_t>{9, 7}}) {
      for (const bool direct : {false, true}) {
        harness::AresClusterOptions o;
        o.server_pool = 16;
        o.initial_servers = 5;
        o.initial_k = 3;
        o.num_rw_clients = 1;
        o.num_reconfigurers = 1;
        o.direct_transfer = direct;
        o.fast_path = false;
        o.semifast = false;
        harness::AresCluster cluster(o);
        (void)sim::run_to_completion(
            cluster.sim(),
            cluster.store(0).write(kDefaultObject,
                                   make_value(make_test_value(kb * 1024, 1))));
        cluster.sim().run();
        cluster.net().reset_stats();

        auto spec = cluster.make_spec(dap::Protocol::kTreas, 5, n2, k2);
        const SimTime t0 = cluster.sim().now();
        (void)sim::run_to_completion(
            cluster.sim(),
            cluster.reconfigurer_store(0).reconfig(kDefaultObject, spec));
        const SimDuration latency = cluster.sim().now() - t0;
        const std::uint64_t through_client =
            cluster.reconfigurer(0).update_config_bytes_through_client();
        const auto& by_type = cluster.net().stats().data_bytes_by_type;
        const auto bytes_of = [&by_type](const char* type) -> std::uint64_t {
          auto it = by_type.find(type);
          return it == by_type.end() ? 0 : it->second;
        };

        const std::string mode = direct ? "ARES-TREAS" : "ARES";
        const std::string where = mode + " " + std::to_string(kb) + " KB -> [" +
                                  std::to_string(n2) + "," +
                                  std::to_string(k2) + "]";
        // ARES must actually route the object through the client, or a
        // zero for ARES-TREAS would prove nothing about the counter.
        out.check(direct ? through_client == 0 : through_client > 0,
                  where + ": bytes through client");
        harness::Json row;
        row.set("object_kb", kb)
            .set("n", n2)
            .set("k", k2)
            .set("mode", mode)
            .set("bytes_through_client", through_client)
            .set("server_forward_bytes", bytes_of("treas.fwd_code_elem"))
            .set("list_bytes_to_client", bytes_of("treas.query_list_reply"))
            .set("reconfig_latency", latency);
        rows.push(std::move(row));
      }
    }
  }
  out.json.set("rows", std::move(rows));
  return out;
}

Outcome ablation() {
  // Whether a single write on TREAS[n, k] with `crashes` servers down
  // completes before the simulation drains.
  const auto write_completes = [](std::size_t n, std::size_t k,
                                  std::size_t crashes) {
    harness::StaticClusterOptions o;
    o.protocol = dap::Protocol::kTreas;
    o.num_servers = n;
    o.k = k;
    o.num_clients = 1;
    o.semifast = false;
    harness::StaticCluster cluster(o);
    cluster.crash_servers(crashes);
    auto f = cluster.store(0).write(kDefaultObject,
                                    make_value(make_test_value(128, 1)));
    return cluster.sim().run_until([&] { return f.ready(); });
  };

  Outcome out;
  out.json.set("bench", "ablation");
  auto rows = harness::Json::array();
  for (const std::size_t n : {9, 12}) {
    for (std::size_t k = 2; k < n; ++k) {
      const bool feasible = 3 * k > n;  // Theorem 9's liveness requirement
      const std::size_t f = (n - k) / 2;
      harness::Json row;
      row.set("n", n)
          .set("k", k)
          .set("feasible", feasible)
          .set("storage_units", static_cast<double>(n) / static_cast<double>(k))
          .set("quorum", (n + k + 1) / 2)
          .set("f", f);
      if (feasible) {
        const bool live = write_completes(n, k, f);
        const bool blocked = !write_completes(n, k, f + 1);
        const std::string where =
            "TREAS[" + std::to_string(n) + "," + std::to_string(k) + "]";
        out.check(live, where + " not live with f crashes");
        out.check(blocked, where + " live with f+1 crashes");
        row.set("live_at_f", live).set("blocked_at_f_plus_1", blocked);
      }
      rows.push(std::move(row));
    }
  }
  out.json.set("rows", std::move(rows));
  return out;
}

}  // namespace ares::bench
