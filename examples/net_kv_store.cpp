// Multi-process KV store over localhost TCP: the fault-tolerance pitch of
// the paper as an actual deployment. The orchestrator forks three *real OS
// processes*, each hosting one ABD server behind a TcpTransport listener;
// two in-process clients write and read through real sockets; one server
// is then SIGKILLed mid-run and the cluster keeps serving from the
// surviving majority. Exits non-zero if any operation fails, any read
// returns a wrong value, or the merged history fails the atomicity check.
//
//   ./example_net_kv_store              # orchestrator (default)
//   ./example_net_kv_store --chaos      # + client-side fault injection
//   ./example_net_kv_store server <id>  # internal: one server process
//
// --chaos runs an extra phase before the SIGKILL: a shared ChaosController
// on the clients injects message loss, duplication, connection resets,
// torn frames and a partition window while operations keep flowing —
// quorum-round retransmission with backoff must carry every op to a
// correct completion over the degraded wire (the servers are plain
// processes; all faults are injected on the client side of the socket).
//
// Read leases stay off here: lease windows compare server-side expiries
// against client clocks, which is exact in-process but needs the ε skew
// budget across OS processes — the lease scenarios run in
// tests/test_net.cpp where all nodes share one process clock.
#include "api/ares_store.hpp"
#include "ares/client.hpp"
#include "ares/server.hpp"
#include "checker/atomicity.hpp"
#include "checker/history.hpp"
#include "dap/config.hpp"
#include "net/chaos.hpp"
#include "net/cluster.hpp"
#include "net/runtime.hpp"
#include "net/tcp_transport.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ares;

constexpr std::size_t kServers = 3;

dap::ConfigSpec initial_config() {
  dap::ConfigSpec c0;
  c0.id = 0;
  c0.protocol = dap::Protocol::kAbd;
  c0.k = 1;
  for (std::size_t i = 0; i < kServers; ++i) {
    c0.servers.push_back(static_cast<ProcessId>(i));
  }
  return c0;
}

/// Child mode: host ABD server `id`, print the bound port, serve forever
/// (the orchestrator SIGKILLs us when done).
int run_server(ProcessId id) {
  dap::ConfigRegistry registry;
  registry.register_config(initial_config());

  net::NodeRuntime rt(/*seed=*/id + 1);
  // Servers never dial in ABD — they answer over the connection each
  // client dialed in on — so the address book stays empty here.
  auto book = std::make_shared<net::AddressBook>();
  net::TcpTransport tcp(rt, book, [] {
    net::TcpTransport::Options o;
    o.listen = true;
    return o;
  }());
  reconfig::AresServer server(rt.simulator(), tcp, id, registry);
  tcp.start();
  std::printf("PORT %u\n", tcp.port());
  std::fflush(stdout);
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

struct Client {
  net::NodeRuntime rt;
  net::TcpTransport tcp;
  std::unique_ptr<net::ChaosTransport> chaos;
  checker::HistoryRecorder history;
  std::unique_ptr<reconfig::AresClient> client;
  std::unique_ptr<api::AresStore> store;

  Client(std::uint64_t seed, ProcessId id, dap::ConfigRegistry& registry,
         std::shared_ptr<net::AddressBook> book,
         std::shared_ptr<net::ChaosController> ctrl = nullptr)
      : rt(seed), tcp(rt, std::move(book)) {
    if (ctrl) {
      tcp.set_chaos(ctrl);
      chaos = std::make_unique<net::ChaosTransport>(rt, tcp, ctrl);
    }
    sim::Transport& wire = chaos ? static_cast<sim::Transport&>(*chaos) : tcp;
    client = std::make_unique<reconfig::AresClient>(rt.simulator(), wire, id,
                                                    registry, 0, &history);
    if (ctrl) {
      // A degraded wire needs the quorum-round retransmission layer for
      // liveness, and a deadline so a surprise never hangs the example.
      client->set_retransmit_policy(net::default_net_retransmit());
    }
    store = std::make_unique<api::AresStore>(*client);
    if (ctrl) store->set_op_deadline(10'000'000);
    tcp.start();
  }

  ~Client() { tcp.stop(); }

  OpResult read(ObjectId obj) {
    return rt.sync([&] { return store->read(obj); });
  }
  OpResult write(ObjectId obj, const std::string& s) {
    auto v = std::make_shared<Value>(s.begin(), s.end());
    return rt.sync([&] { return store->write(obj, std::move(v)); });
  }
};

std::string to_string(const ValuePtr& v) {
  return v ? std::string(v->begin(), v->end()) : std::string();
}

int run_orchestrator(const char* self, bool chaos_mode) {
  // Spawn the three server processes, each reporting its port on a pipe.
  std::vector<pid_t> pids;
  auto book = std::make_shared<net::AddressBook>();
  for (std::size_t i = 0; i < kServers; ++i) {
    int fds[2];
    if (pipe(fds) != 0) return perror("pipe"), 1;
    const pid_t pid = fork();
    if (pid < 0) return perror("fork"), 1;
    if (pid == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      const std::string id = std::to_string(i);
      ::execl(self, self, "server", id.c_str(), nullptr);
      std::perror("execl");
      _exit(127);
    }
    ::close(fds[1]);
    FILE* in = ::fdopen(fds[0], "r");
    unsigned port = 0;
    if (in == nullptr || std::fscanf(in, "PORT %u", &port) != 1 || port == 0) {
      std::fprintf(stderr, "server %zu failed to report its port\n", i);
      return 1;
    }
    std::fclose(in);
    book->set(static_cast<ProcessId>(i),
              net::Endpoint{"127.0.0.1", static_cast<std::uint16_t>(port)});
    pids.push_back(pid);
    std::printf("server %zu up (pid %d, port %u)\n", i, pid, port);
  }

  dap::ConfigRegistry registry;
  registry.register_config(initial_config());
  auto ctrl =
      chaos_mode ? std::make_shared<net::ChaosController>(7) : nullptr;
  Client alice(101, 100, registry, book, ctrl);
  Client bob(102, 101, registry, book, ctrl);

  bool ok = true;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAILED: %s\n", what);
      ok = false;
    }
  };

  // Phase 1: all three servers alive.
  for (int i = 0; i < 10 && ok; ++i) {
    const std::string v = "v" + std::to_string(i);
    expect(alice.write(0, v).tag.z > 0, "write completes");
    expect(to_string(bob.read(0).value) == v, "read returns latest write");
  }
  std::printf("phase 1: 20 ops against 3/3 servers ok\n");

  if (chaos_mode) {
    // Chaos phase: degrade the clients' side of every socket — message
    // loss, duplicate delivery, connection resets, torn frames — and cut
    // server 2 off behind a partition. Retransmission with backoff must
    // carry every operation to a correct completion over quorums {0,1}.
    ctrl->set_loss(0.15);
    ctrl->set_duplicate(0.2);
    ctrl->set_reset_rate(0.05);
    ctrl->set_torn_rate(0.05);
    ctrl->partition({{2}, {0, 1, 100, 101}});
    for (int i = 0; i < 10 && ok; ++i) {
      const std::string v = "c" + std::to_string(i);
      expect(alice.write(0, v).ok(), "write completes under chaos");
      const auto r = bob.read(0);
      expect(r.ok(), "read completes under chaos");
      expect(to_string(r.value) == v, "read under chaos returns latest write");
    }
    ctrl->clear_all();
    std::printf(
        "chaos phase: 20 ops under loss/dup/reset/tear + partition ok "
        "(%llu msgs dropped, %llu frames torn, %llu reset)\n",
        static_cast<unsigned long long>(ctrl->messages_dropped()),
        static_cast<unsigned long long>(ctrl->frames_torn()),
        static_cast<unsigned long long>(ctrl->frames_reset()));
  }

  // Phase 2: SIGKILL one server mid-run; a majority of 2/3 must carry on.
  ::kill(pids[2], SIGKILL);
  ::waitpid(pids[2], nullptr, 0);
  std::printf("server 2 SIGKILLed\n");
  for (int i = 0; i < 10 && ok; ++i) {
    const std::string v = "w" + std::to_string(i);
    expect(bob.write(0, v).tag.z > 0, "write survives server kill");
    expect(to_string(alice.read(0).value) == v,
           "read survives server kill and returns latest write");
  }
  std::printf("phase 2: 20 ops against 2/3 servers ok\n");

  // Machine-check atomicity across both clients' merged histories.
  std::vector<checker::OpRecord> merged = alice.history.records();
  for (checker::OpRecord r : bob.history.records()) {
    r.op_id += 1'000'000;
    merged.push_back(r);
  }
  const auto verdicts = checker::check_tag_atomicity_per_object(merged);
  for (const auto& [obj, res] : verdicts) {
    expect(res.ok, res.violation.c_str());
  }
  std::printf("atomicity: %zu object histories verified\n", verdicts.size());

  for (pid_t pid : pids) {
    if (pid != pids[2]) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  std::printf(ok ? "net_kv_store: PASS\n" : "net_kv_store: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "server") == 0) {
    return run_server(static_cast<ProcessId>(std::atoi(argv[2])));
  }
  const bool chaos_mode =
      argc >= 2 && std::strcmp(argv[1], "--chaos") == 0;
  return run_orchestrator(argv[0], chaos_mode);
}
