#include "net/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace ares::net {

namespace {

TcpTransport::Options listen_options(const std::string& host) {
  TcpTransport::Options o;
  o.listen = true;
  o.listen_host = host;
  return o;
}

}  // namespace

/// One server process: listener, connections and timers on its node loop.
struct NetCluster::ServerNode {
  NodeRuntime rt;
  TcpTransport tcp;
  std::unique_ptr<ChaosTransport> chaos;
  std::unique_ptr<reconfig::AresServer> server;
  bool alive = true;

  ServerNode(std::uint64_t seed, ProcessId id, const dap::ConfigRegistry& reg,
             std::shared_ptr<AddressBook> book, const NetClusterOptions& o)
      : rt(seed), tcp(rt, std::move(book), listen_options(o.host)) {
    if (o.chaos) {
      tcp.set_chaos(o.chaos);
      chaos = std::make_unique<ChaosTransport>(rt, tcp, o.chaos);
    }
    sim::Transport& wire = chaos ? static_cast<sim::Transport&>(*chaos) : tcp;
    server = std::make_unique<reconfig::AresServer>(rt.simulator(), wire, id,
                                                    reg);
  }
};

/// One client process: no listener (servers answer over the dialed
/// connection), own history recorder so concurrent clients never share
/// mutable state.
struct NetCluster::ClientNode {
  NodeRuntime rt;
  TcpTransport tcp;
  std::unique_ptr<ChaosTransport> chaos;
  std::shared_ptr<FailureDetector> detector;
  checker::HistoryRecorder history;
  std::unique_ptr<reconfig::AresClient> client;
  std::unique_ptr<api::AresStore> store;

  ClientNode(std::uint64_t seed, ProcessId id, dap::ConfigRegistry& reg,
             std::shared_ptr<AddressBook> book, const NetClusterOptions& o)
      : rt(seed), tcp(rt, std::move(book)) {
    if (o.failure_detector) {
      detector = std::make_shared<FailureDetector>(o.detector);
      tcp.set_failure_detector(detector);
    }
    if (o.chaos) {
      tcp.set_chaos(o.chaos);
      chaos = std::make_unique<ChaosTransport>(rt, tcp, o.chaos);
    }
    sim::Transport& wire = chaos ? static_cast<sim::Transport&>(*chaos) : tcp;
    client = std::make_unique<reconfig::AresClient>(rt.simulator(), wire, id,
                                                    reg, /*c0=*/0, &history);
    client->set_fast_path(o.fast_path);
    client->set_lease_epsilon(o.lease_epsilon_us);
    client->set_retransmit_policy(o.retransmit);
    store = std::make_unique<api::AresStore>(*client);
    store->set_op_deadline(o.op_deadline_us);
  }

  /// Deadline hook for NodeRuntime::sync's backstop: abort whatever the
  /// client is still waiting on so the op unwinds to a typed result.
  void abort_pending() {
    client->set_abortable_waits(true);
    client->abort_pending_waits(std::make_exception_ptr(
        sim::OpAborted(sim::OpAborted::Reason::kDeadline)));
  }
};

NetCluster::NetCluster(NetClusterOptions options)
    : options_(std::move(options)), book_(std::make_shared<AddressBook>()) {
  assert(options_.servers >= 1 && options_.servers < 100 &&
         "server ids live below the client id range");

  dap::ConfigSpec c0;
  c0.id = 0;
  c0.protocol = options_.protocol;
  c0.k = options_.protocol == dap::Protocol::kTreas ? options_.k : 1;
  c0.delta = options_.delta;
  c0.treas_retry_timeout = options_.treas_retry_timeout_us;
  c0.semifast = options_.semifast;
  c0.lease_ms = options_.lease_us;
  c0.lease_policy = options_.lease_policy;
  c0.lease_adaptive = options_.lease_adaptive;
  for (std::size_t i = 0; i < options_.servers; ++i) {
    c0.servers.push_back(static_cast<ProcessId>(i));
  }
  if (options_.protocol == dap::Protocol::kLdr) {
    const std::size_t d = std::max<std::size_t>(1, options_.servers / 2);
    c0.directories.assign(c0.servers.begin(),
                          c0.servers.begin() + static_cast<std::ptrdiff_t>(d));
    c0.replicas = c0.servers;
  }
  registry_.register_config(std::move(c0));

  for (std::size_t i = 0; i < options_.servers; ++i) {
    auto node = std::make_unique<ServerNode>(options_.seed + 1 + i,
                                             static_cast<ProcessId>(i),
                                             registry_, book_, options_);
    node->tcp.start();
    book_->set(static_cast<ProcessId>(i),
               Endpoint{options_.host, node->tcp.port()});
    servers_.push_back(std::move(node));
  }
  for (std::size_t j = 0; j < options_.num_clients; ++j) {
    auto node = std::make_unique<ClientNode>(
        options_.seed + 1001 + j, static_cast<ProcessId>(100 + j), registry_,
        book_, options_);
    node->tcp.start();
    clients_.push_back(std::move(node));
  }
}

NetCluster::~NetCluster() {
  // Quiesce clients before servers so nothing dials a dying listener, and
  // stop every transport before any Process is destroyed (frames in flight
  // must never race a destructor).
  for (auto& c : clients_) c->tcp.stop();
  for (auto& s : servers_) s->tcp.stop();
}

std::size_t NetCluster::quorum_size() const {
  const std::size_t n = options_.servers;
  if (options_.protocol == dap::Protocol::kTreas) {
    return (n + options_.k + 1) / 2;  // ⌈(n+k)/2⌉
  }
  return n / 2 + 1;
}

bool NetCluster::quorum_reachable(ClientNode& n) {
  if (!n.detector) return true;
  const SimTime now = NodeRuntime::unix_now_us();
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (!n.detector->suspected(static_cast<ProcessId>(i), now)) ++reachable;
  }
  if (reachable >= quorum_size()) return true;
  // Let one op per probe interval through anyway: its (probe-gated) frames
  // are the only way a healed server can ever be re-discovered.
  return n.detector->allow_op_probe(now);
}

OpResult NetCluster::unreachable_result(ObjectId obj, bool is_write) {
  OpResult r;
  r.object = obj;
  r.is_write = is_write;
  r.status = OpStatus::kQuorumUnreachable;
  return r;
}

OpResult NetCluster::read(std::size_t c, ObjectId obj) {
  auto& n = *clients_.at(c);
  if (!quorum_reachable(n)) return unreachable_result(obj, false);
  return n.rt.sync([&] { return n.store->read(obj); }, options_.op_timeout_us,
                   [&n] { n.abort_pending(); });
}

OpResult NetCluster::write(std::size_t c, ObjectId obj, ValuePtr value) {
  auto& n = *clients_.at(c);
  if (!quorum_reachable(n)) return unreachable_result(obj, true);
  return n.rt.sync([&] { return n.store->write(obj, std::move(value)); },
                   options_.op_timeout_us, [&n] { n.abort_pending(); });
}

std::vector<OpResult> NetCluster::read_batch(std::size_t c,
                                             std::vector<ObjectId> objs) {
  auto& n = *clients_.at(c);
  if (!quorum_reachable(n)) {
    std::vector<OpResult> out;
    out.reserve(objs.size());
    for (ObjectId obj : objs) out.push_back(unreachable_result(obj, false));
    return out;
  }
  return n.rt.sync([&] { return n.store->read_many(objs); },
                   options_.op_timeout_us, [&n] { n.abort_pending(); });
}

void NetCluster::kill_server(std::size_t i) {
  auto& s = *servers_.at(i);
  if (!s.alive) return;
  s.tcp.stop();
  s.alive = false;
}

bool NetCluster::server_alive(std::size_t i) const {
  return servers_.at(i)->alive;
}

reconfig::AresClient& NetCluster::client(std::size_t c) {
  return *clients_.at(c)->client;
}

const std::shared_ptr<FailureDetector>& NetCluster::detector(
    std::size_t c) const {
  return clients_.at(c)->detector;
}

TcpTransport& NetCluster::client_transport(std::size_t c) {
  return clients_.at(c)->tcp;
}

TcpTransport& NetCluster::server_transport(std::size_t i) {
  return servers_.at(i)->tcp;
}

std::size_t NetCluster::client_inflight_marks(std::size_t c, ObjectId obj) {
  auto& n = *clients_.at(c);
  std::size_t marks = 0;
  n.rt.run([&] { marks = n.client->inflight_marks(obj); });
  return marks;
}

std::vector<checker::OpRecord> NetCluster::merged_history() const {
  std::vector<checker::OpRecord> out;
  std::uint64_t base = 0;
  for (const auto& c : clients_) {
    for (checker::OpRecord r : c->history.records()) {
      r.op_id += base;
      out.push_back(r);
    }
    base += 1'000'000;  // per-client recorders restart ids; keep them unique
  }
  return out;
}

std::map<ObjectId, checker::CheckResult> NetCluster::check_atomicity() const {
  return checker::check_tag_atomicity_per_object(merged_history());
}

std::uint64_t NetCluster::total_frames_sent() const {
  std::uint64_t sum = 0;
  for (const auto& s : servers_) sum += s->tcp.frames_sent();
  for (const auto& c : clients_) sum += c->tcp.frames_sent();
  return sum;
}

std::uint64_t NetCluster::total_frames_received() const {
  std::uint64_t sum = 0;
  for (const auto& s : servers_) sum += s->tcp.frames_received();
  for (const auto& c : clients_) sum += c->tcp.frames_received();
  return sum;
}

std::uint64_t NetCluster::total_retransmits() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) {
    c->rt.run([&] { sum += c->client->traffic().retransmits; });
  }
  return sum;
}

// --- run_net_workload --------------------------------------------------------

namespace {

ValuePtr make_payload(std::size_t size, std::size_t client, std::size_t seq) {
  auto v = std::make_shared<Value>(size, std::uint8_t{0xA5});
  for (std::size_t b = 0; b < std::min<std::size_t>(size, 8); ++b) {
    (*v)[b] = static_cast<std::uint8_t>((client * 131 + seq * 7 + b) & 0xFF);
  }
  return v;
}

/// Draw `b` distinct keys with the configured picker (b <= num_objects).
std::vector<ObjectId> draw_batch(const harness::KeyPicker& picker, Rng& rng,
                                 std::size_t b) {
  std::vector<ObjectId> keys;
  while (keys.size() < b) {
    const ObjectId k = picker.pick(rng);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

}  // namespace

harness::WorkloadResult run_net_workload(NetCluster& cluster,
                                         harness::WorkloadOptions opt) {
  opt.num_objects = std::max<std::size_t>(1, cluster.options().num_objects);
  opt.validate();

  const std::size_t n = cluster.num_clients();
  std::vector<std::vector<harness::OpStat>> per_client(n);
  std::vector<std::thread> threads;
  threads.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&cluster, &opt, &per_client, i] {
      Rng rng(opt.seed * 7919 + i * 104'729 + 1);
      const harness::KeyPicker picker(opt.num_objects, opt.key_distribution,
                                      opt.zipf_s);
      auto& stats = per_client[i];
      std::size_t done = 0;
      std::size_t seq = 0;
      while (done < opt.ops_per_client) {
        if (opt.think_max > 0) {
          const SimDuration think =
              opt.think_min == opt.think_max
                  ? opt.think_min
                  : rng.uniform(opt.think_min, opt.think_max);
          if (think > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(think));
          }
        }
        const std::size_t b =
            std::min(opt.batch_size, opt.num_objects);
        const bool is_write = rng.uniform01() < opt.write_fraction;
        const SimTime start = NodeRuntime::unix_now_us();
        std::vector<harness::OpStat> members;
        try {
          std::vector<OpResult> results;
          if (b <= 1) {
            const ObjectId obj = picker.pick(rng);
            results.push_back(is_write ? cluster.write(i, obj,
                                                       make_payload(
                                                           opt.value_size, i,
                                                           seq))
                                       : cluster.read(i, obj));
          } else if (is_write) {
            // NetCluster exposes batched reads; write batches fall back to
            // per-member writes so mixed batch workloads still run.
            const std::vector<ObjectId> keys = draw_batch(picker, rng, b);
            for (std::size_t m = 0; m < keys.size(); ++m) {
              results.push_back(cluster.write(
                  i, keys[m], make_payload(opt.value_size, i, seq + m)));
            }
          } else {
            results = cluster.read_batch(i, draw_batch(picker, rng, b));
          }
          const SimTime end = NodeRuntime::unix_now_us();
          for (const auto& r : results) {
            harness::OpStat st;
            st.is_write = r.is_write;
            st.failed = !r.ok();
            st.status = r.status;
            st.object = r.object;
            st.start = start;
            st.end = end;
            st.batch = results.size();
            st.rounds = r.metrics.rounds;
            st.messages = r.metrics.messages;
            st.bytes = r.metrics.bytes;
            st.elided = r.metrics.elided_rounds;
            members.push_back(st);
          }
        } catch (const std::exception&) {
          harness::OpStat st;
          st.is_write = is_write;
          st.failed = true;
          st.status = api::OpStatus::kTimeout;
          st.start = start;
          st.end = NodeRuntime::unix_now_us();
          st.batch = b;
          members.push_back(st);
        }
        for (const auto& st : members) {
          if (opt.on_op) opt.on_op(st);
          stats.push_back(st);
        }
        done += std::max<std::size_t>(1, members.size());
        seq += std::max<std::size_t>(1, members.size());
      }
    });
  }
  for (auto& t : threads) t.join();

  harness::WorkloadResult result;
  for (auto& stats : per_client) {
    for (auto& st : stats) {
      if (st.failed) ++result.failures;
      result.ops.push_back(st);
    }
  }
  result.completed = true;
  return result;
}

}  // namespace ares::net
