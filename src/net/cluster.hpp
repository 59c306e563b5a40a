// NetCluster: a full ARES deployment over localhost TCP — the socket-backend
// sibling of harness::AresCluster. Every server and every client gets its
// own NodeRuntime (private simulator, one epoll loop thread that owns the
// node's sockets and timers) and its own TcpTransport; the protocol objects
// are the exact classes the deterministic simulator runs. The cluster
// surface is blocking: read()/write() start the operation on the owning
// client's runtime and block the calling thread until it completes, so OS
// threads can drive concurrent clients (see run_net_workload).
//
// v1 scope (documented, enforced by the harness not the protocol): the
// configuration registry is built up front and shared immutably across all
// nodes — live reconfiguration over TCP would need the registry shipped in
// messages and is out of scope here (reconfiguration is exercised on the
// sim backend). Time unit is 1 µs (NodeRuntime), so lease windows and
// retry timeouts in the options are microseconds of wall-clock time.
#pragma once

#include "api/ares_store.hpp"
#include "ares/client.hpp"
#include "ares/server.hpp"
#include "checker/atomicity.hpp"
#include "checker/history.hpp"
#include "dap/config.hpp"
#include "harness/workload.hpp"
#include "net/chaos.hpp"
#include "net/failure_detector.hpp"
#include "net/runtime.hpp"
#include "net/tcp_transport.hpp"

#include <map>
#include <memory>
#include <vector>

namespace ares::net {

/// Quorum-round retransmission defaults for real networks: first retry at
/// 50 ms, doubling to a 1 s cap, ±20% jitter, 6 attempts — enough to ride
/// out a multi-second partition without melting a healthy cluster.
/// (Safe against duplicate delivery: every protocol message is idempotent
/// and replies are de-duplicated per rpc id — see sim::RetransmitPolicy.)
inline sim::RetransmitPolicy default_net_retransmit() {
  sim::RetransmitPolicy p;
  p.enabled = true;
  return p;
}

struct NetClusterOptions {
  /// Loopback address the deployment binds and dials. Test suites that
  /// kill servers use distinct 127/8 addresses so a freed ephemeral port
  /// re-bound by a concurrently running process can never impersonate the
  /// dead server.
  std::string host = "127.0.0.1";

  std::size_t servers = 3;
  dap::Protocol protocol = dap::Protocol::kAbd;
  std::size_t k = 1;
  std::size_t delta = 4;

  std::size_t num_clients = 2;
  std::size_t num_objects = 1;

  bool fast_path = true;
  bool semifast = true;

  /// Per-object read leases (0 = off), in microseconds of wall time.
  SimDuration lease_us = 0;
  dap::LeasePolicy lease_policy = dap::LeasePolicy::kInvalidate;
  SimDuration lease_epsilon_us = 2'000;
  bool lease_adaptive = false;

  /// TREAS read-retry timeout, microseconds (0 = wait forever).
  SimDuration treas_retry_timeout_us = 250'000;

  /// Patience of the blocking client surface before an operation is
  /// declared failed (too many servers dead). This is the outer, legacy
  /// backstop; prefer op_deadline_us for typed failures.
  SimDuration op_timeout_us = NodeRuntime::kDefaultOpTimeoutUs;

  /// Per-operation deadline (0 = none): an operation that cannot assemble
  /// its quorums by then has its waits aborted and returns a typed
  /// OpStatus (kTimeout) instead of hanging until op_timeout_us.
  SimDuration op_deadline_us = 0;

  /// Shared fault script: when set, every node's protocol traffic flows
  /// through a ChaosTransport consulting this controller, and every
  /// TcpTransport consults its socket-level script (resets, torn frames).
  std::shared_ptr<ChaosController> chaos;

  /// Per-client failure detector (suspected servers get fast-failed
  /// frames, shrunk dial budgets, and gate operations on quorum
  /// reachability — see FailureDetector).
  bool failure_detector = true;
  FailureDetector::Options detector;

  /// Client-side quorum-round retransmission (servers only ever reply).
  sim::RetransmitPolicy retransmit = default_net_retransmit();

  std::uint64_t seed = 1;
};

class NetCluster {
 public:
  explicit NetCluster(NetClusterOptions options);
  ~NetCluster();

  NetCluster(const NetCluster&) = delete;
  NetCluster& operator=(const NetCluster&) = delete;

  [[nodiscard]] const NetClusterOptions& options() const { return options_; }
  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }

  /// Blocking atomic operations on client `c` (thread-safe across distinct
  /// clients; one client must not be driven from two threads at once).
  OpResult read(std::size_t c, ObjectId obj);
  OpResult write(std::size_t c, ObjectId obj, ValuePtr value);

  /// Blocking batched read on client `c` (one multi-object quorum round
  /// per phase for members sharing a configuration).
  std::vector<OpResult> read_batch(std::size_t c, std::vector<ObjectId> objs);

  /// SIGKILL-equivalent: stop server `i`'s loop thread and close its
  /// sockets mid-run. Peers see dead connections; in-flight frames to it
  /// vanish.
  void kill_server(std::size_t i);
  [[nodiscard]] bool server_alive(std::size_t i) const;

  /// Client `c`'s protocol object / failure detector / transport (tests,
  /// diagnostics).
  [[nodiscard]] reconfig::AresClient& client(std::size_t c);
  [[nodiscard]] const std::shared_ptr<FailureDetector>& detector(
      std::size_t c) const;
  [[nodiscard]] TcpTransport& client_transport(std::size_t c);
  [[nodiscard]] TcpTransport& server_transport(std::size_t i);

  /// Open InflightGuard marks client `c` holds on `obj`, read under the
  /// node lock (must drain to 0 when an op completes or aborts).
  [[nodiscard]] std::size_t client_inflight_marks(std::size_t c, ObjectId obj);

  /// Minimum unsuspected servers an operation needs (protocol-dependent:
  /// majority, or ⌈(n+k)/2⌉ for TREAS).
  [[nodiscard]] std::size_t quorum_size() const;

  /// All clients' operation records merged into one history (op ids
  /// re-keyed to stay unique across per-client recorders).
  [[nodiscard]] std::vector<checker::OpRecord> merged_history() const;

  /// Per-object atomicity verdicts over everything recorded so far.
  [[nodiscard]] std::map<ObjectId, checker::CheckResult> check_atomicity()
      const;

  /// Total frames the cluster put on / took off the wire (diagnostics).
  [[nodiscard]] std::uint64_t total_frames_sent() const;
  [[nodiscard]] std::uint64_t total_frames_received() const;

  /// Quorum-round retransmissions across all clients.
  [[nodiscard]] std::uint64_t total_retransmits() const;

 private:
  struct ServerNode;
  struct ClientNode;

  /// Operation admission gate: false when the failure detector says too
  /// few servers are reachable for a quorum — except one probe op per
  /// detector probe interval, whose traffic re-tests (and heals) the
  /// suspicion.
  [[nodiscard]] bool quorum_reachable(ClientNode& n);

  /// A fast-failed result (no traffic, no history record).
  [[nodiscard]] static OpResult unreachable_result(ObjectId obj,
                                                  bool is_write);

  NetClusterOptions options_;
  dap::ConfigRegistry registry_;
  std::shared_ptr<AddressBook> book_;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
};

/// Drives `opt.ops_per_client` blocking operations on every cluster client
/// concurrently — one OS thread per client — and returns the merged
/// WorkloadResult. Latencies/timestamps are wall-clock microseconds.
/// (This is the socket-backend twin of harness::run_workload; batch_size,
/// think times and the on_op observer are honored, `num_objects` is taken
/// from the cluster.)
harness::WorkloadResult run_net_workload(NetCluster& cluster,
                                         harness::WorkloadOptions opt);

}  // namespace ares::net
