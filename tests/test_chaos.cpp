// Chaos hardening: the sim's fault vocabulary (partitions, loss,
// duplication, gray delays) runs as shared TYPED_TEST bodies over BOTH the
// deterministic simulator and real TCP (net::ChaosController), asserting
// the same things on each: operations either complete or fail with a
// *typed* status within their deadline, aborted operations release their
// inflight marks, and every surviving history is atomic.
//
// Faults only a real transport can express — torn frames, connection
// resets, half-open links, refused dials, sender-queue overflow — are
// TCP-only tests below, plus unit tests for the backoff/jitter schedules.
#include "net_backends.hpp"
#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dap/messages.hpp"

namespace ares {
namespace {

// Every TCP deployment in this binary lives on its own loopback address:
// tests here kill servers and assert on refused dials, and a freed
// ephemeral port re-bound by a concurrently running test binary (ctest -j)
// on 127.0.0.1 would otherwise impersonate the dead server.
constexpr const char* kChaosHost = "127.0.0.2";

DeployConfig chaos_cfg() {
  DeployConfig cfg;
  cfg.host = kChaosHost;
  return cfg;
}

template <typename Backend>
class ChaosSuite : public ::testing::Test {};

using Backends = ::testing::Types<SimBackend, TcpBackend>;
TYPED_TEST_SUITE(ChaosSuite, Backends);

// A minority partition is invisible to clients: quorums assemble from the
// majority side and every operation completes Ok.
TYPED_TEST(ChaosSuite, MinorityPartitionedOpsComplete) {
  DeployConfig cfg = chaos_cfg();
  cfg.op_deadline = 5'000'000;
  TypeParam backend(cfg);

  const auto w0 = backend.write(0, kDefaultObject, value_of("seed"));
  ASSERT_EQ(w0.status, OpStatus::kOk);

  backend.partition(
      {{2}, {0, 1, backend.client_pid(0), backend.client_pid(1)}});

  const auto w1 = backend.write(0, kDefaultObject, value_of("during"));
  EXPECT_EQ(w1.status, OpStatus::kOk);
  const auto r1 = backend.read(1, kDefaultObject);
  EXPECT_EQ(r1.status, OpStatus::kOk);
  EXPECT_EQ(to_string(r1.value), "during");

  backend.heal();

  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(r2.status, OpStatus::kOk);
  expect_atomic(backend.check());
}

// Satellite (c) of the chaos tentpole: a read whose quorum is partitioned
// away returns OpStatus::kTimeout within deadline ± slack instead of
// hanging, releases its InflightGuard marks, and after healing the same
// cluster serves operations whose merged history is atomic.
TYPED_TEST(ChaosSuite, MajorityPartitionTimesOutTypedThenHeals) {
  DeployConfig cfg = chaos_cfg();
  cfg.op_deadline = 400'000;
  cfg.retransmit = true;  // post-heal liveness on TCP comes from retries
  cfg.retransmit_attempts = 8;
  TypeParam backend(cfg);

  const auto w0 = backend.write(0, kDefaultObject, value_of("pre"));
  ASSERT_EQ(w0.status, OpStatus::kOk);

  backend.partition(
      {{0, backend.client_pid(0), backend.client_pid(1)}, {1, 2}});

  const SimTime t0 = backend.now_us();
  const auto r = backend.read(0, kDefaultObject);
  const SimTime took = backend.now_us() - t0;

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, OpStatus::kTimeout)
      << "got status " << api::to_string(r.status);
  // Within deadline ± slack: never meaningfully before the deadline, and
  // at most deadline + 2x the retransmission backoff cap + grace.
  EXPECT_GE(took + 20'000, cfg.op_deadline);
  EXPECT_LE(took, cfg.op_deadline + 2'500'000);
  // The aborted read unwound its coroutine frames: no inflight marks leak
  // (a leaked mark would pin lease/config state forever).
  EXPECT_EQ(backend.inflight_marks(0, kDefaultObject), 0u);

  backend.heal();

  const auto w1 = backend.write(1, kDefaultObject, value_of("post-heal"));
  EXPECT_EQ(w1.status, OpStatus::kOk);
  const auto r1 = backend.read(0, kDefaultObject);
  EXPECT_EQ(r1.status, OpStatus::kOk);
  EXPECT_EQ(to_string(r1.value), "post-heal");
  expect_atomic(backend.check());
}

// Message loss (dropped forever on both backends — the sim holds nothing
// for a lossy link) is survived by quorum-round retransmission: every
// operation still completes Ok, and retransmissions demonstrably happened.
TYPED_TEST(ChaosSuite, LossWindowRecoversViaRetransmission) {
  DeployConfig cfg = chaos_cfg();
  cfg.retransmit = true;
  cfg.retransmit_attempts = 12;  // 0.25 loss ^ 13 sends ~ never all lost
  cfg.seed = 21;
  TypeParam backend(cfg);

  backend.set_loss(0.25);
  for (int i = 0; i < 3; ++i) {
    const std::string v = "lossy-" + std::to_string(i);
    const auto w = backend.write(0, kDefaultObject, value_of(v));
    ASSERT_EQ(w.status, OpStatus::kOk) << "write " << i;
    const auto r = backend.read(1, kDefaultObject);
    ASSERT_EQ(r.status, OpStatus::kOk) << "read " << i;
    EXPECT_EQ(to_string(r.value), v);
  }
  EXPECT_GT(backend.retransmits(), 0u)
      << "ops under 25% loss should have needed retries";

  backend.set_loss(0);
  const auto r = backend.read(0, kDefaultObject);
  EXPECT_EQ(r.status, OpStatus::kOk);
  expect_atomic(backend.check());
}

// Duplicated delivery must be harmless: protocol messages are idempotent
// and quorum collectors de-duplicate per sender, so a 40% duplication rate
// changes nothing observable.
TYPED_TEST(ChaosSuite, DuplicationWindowStaysAtomic) {
  DeployConfig cfg = chaos_cfg();
  TypeParam backend(cfg);

  backend.set_duplicate(0.4);
  for (int i = 0; i < 4; ++i) {
    const std::string v = "dup-" + std::to_string(i);
    const auto w = backend.write(i % 2, kDefaultObject, value_of(v));
    ASSERT_EQ(w.status, OpStatus::kOk);
    const auto r = backend.read((i + 1) % 2, kDefaultObject);
    ASSERT_EQ(r.status, OpStatus::kOk);
    EXPECT_EQ(to_string(r.value), v);
  }
  expect_atomic(backend.check());
}

// Gray failure — one server slow, not dead: it still counts toward
// quorums, so operations complete (off the two healthy replicas) and the
// history stays atomic.
TYPED_TEST(ChaosSuite, GrayServerOpsComplete) {
  DeployConfig cfg = chaos_cfg();
  cfg.op_deadline = 10'000'000;
  TypeParam backend(cfg);

  backend.set_gray(2, 60'000);
  for (int i = 0; i < 3; ++i) {
    const std::string v = "gray-" + std::to_string(i);
    const auto w = backend.write(0, kDefaultObject, value_of(v));
    ASSERT_EQ(w.status, OpStatus::kOk);
    const auto r = backend.read(1, kDefaultObject);
    ASSERT_EQ(r.status, OpStatus::kOk);
    EXPECT_EQ(to_string(r.value), v);
  }
  expect_atomic(backend.check());
}

// --- TCP-only: faults the sim cannot express ---------------------------------

// Torn frames: the sender writes a truncated frame and kills the
// connection mid-stream. The receiver's framing drops the connection
// (never delivering a corrupt message), reconnects happen, and
// retransmission restores liveness — atomically.
TEST(ChaosTcpOnly, TornFramesRecover) {
  DeployConfig cfg = chaos_cfg();
  cfg.retransmit = true;
  TcpBackend backend(cfg);

  const auto w0 = backend.write(0, kDefaultObject, value_of("intact"));
  ASSERT_EQ(w0.status, OpStatus::kOk);

  backend.chaos().set_torn_rate(0.10);
  for (int i = 0; i < 4; ++i) {
    const std::string v = "torn-" + std::to_string(i);
    ASSERT_EQ(backend.write(0, kDefaultObject, value_of(v)).status,
              OpStatus::kOk);
    const auto r = backend.read(1, kDefaultObject);
    ASSERT_EQ(r.status, OpStatus::kOk);
    EXPECT_EQ(to_string(r.value), v);
  }
  EXPECT_GT(backend.chaos().frames_torn(), 0u);

  backend.chaos().set_torn_rate(0);
  expect_atomic(backend.check());
}

// Connection resets before the frame hits the wire: the frame survives via
// reconnect-and-replay (no retransmission needed for these), and the
// history stays atomic.
TEST(ChaosTcpOnly, ConnectionResetsRecover) {
  DeployConfig cfg = chaos_cfg();
  cfg.retransmit = true;  // belt and braces for CI noise
  TcpBackend backend(cfg);

  const auto w0 = backend.write(0, kDefaultObject, value_of("intact"));
  ASSERT_EQ(w0.status, OpStatus::kOk);

  backend.chaos().set_reset_rate(0.15);
  for (int i = 0; i < 4; ++i) {
    const std::string v = "reset-" + std::to_string(i);
    ASSERT_EQ(backend.write(0, kDefaultObject, value_of(v)).status,
              OpStatus::kOk);
    const auto r = backend.read(1, kDefaultObject);
    ASSERT_EQ(r.status, OpStatus::kOk);
    EXPECT_EQ(to_string(r.value), v);
  }
  EXPECT_GT(backend.chaos().frames_reset(), 0u);

  std::uint64_t replayed = 0;
  for (std::size_t c = 0; c < 2; ++c) {
    replayed += backend.cluster().client_transport(c).frames_replayed();
  }
  for (std::size_t s = 0; s < 3; ++s) {
    replayed += backend.cluster().server_transport(s).frames_replayed();
  }
  EXPECT_GT(replayed, 0u);

  backend.chaos().set_reset_rate(0);
  expect_atomic(backend.check());
}

// Half-open connections: requests reach the servers but every reply
// vanishes. Silence (not a refused dial) must drive the failure detector:
// ops first time out typed, then fast-fail kQuorumUnreachable, and after
// healing the probe traffic un-suspects the servers and ops complete.
TEST(ChaosTcpOnly, HalfOpenServerSilenceSuspectsAndHeals) {
  auto chaos = std::make_shared<net::ChaosController>(5);
  net::NetClusterOptions o;
  o.host = kChaosHost;
  o.servers = 3;
  o.num_clients = 1;
  o.seed = 5;
  o.chaos = chaos;
  o.op_deadline_us = 500'000;
  o.retransmit.enabled = false;  // keep probe accounting deterministic
  o.detector.suspect_after_us = 300'000;
  o.detector.probe_interval_us = 2'000'000;
  net::NetCluster cluster(o);

  ASSERT_EQ(cluster.write(0, kDefaultObject, value_of("pre")).status,
            OpStatus::kOk);

  // Servers' frames to the client all vanish; the reverse direction flows.
  chaos->partition_one_way({0, 1, 2}, {100});

  // Silence latches suspicion: the first read times out typed...
  const auto r1 = cluster.read(0, kDefaultObject);
  EXPECT_EQ(r1.status, OpStatus::kTimeout);
  // ...the next op is the detector's one whole-op probe (also times out)...
  const auto r2 = cluster.read(0, kDefaultObject);
  EXPECT_FALSE(r2.ok());
  // ...and further ops fast-fail without burning their deadline.
  const SimTime t0 = net::NodeRuntime::unix_now_us();
  const auto r3 = cluster.read(0, kDefaultObject);
  const SimTime took = net::NodeRuntime::unix_now_us() - t0;
  EXPECT_EQ(r3.status, OpStatus::kQuorumUnreachable);
  EXPECT_LT(took, 200'000u);

  ASSERT_TRUE(cluster.detector(0));
  EXPECT_GE(cluster.detector(0)->suspicions(), 3u);

  chaos->heal();

  // Healing is observed through probe traffic: within a few probe
  // intervals an operation completes Ok again.
  OpResult healed;
  for (int i = 0; i < 100; ++i) {
    healed = cluster.read(0, kDefaultObject);
    if (healed.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(healed.status, OpStatus::kOk);
  EXPECT_EQ(to_string(healed.value), "pre");
  EXPECT_GE(cluster.detector(0)->heals(), 2u);

  ASSERT_EQ(cluster.write(0, kDefaultObject, value_of("post")).status,
            OpStatus::kOk);
  // Let the write's last straggler reply land: every server must be
  // un-suspected again, not just a quorum of them.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GE(cluster.detector(0)->heals(), 3u);
  expect_atomic(cluster.check_atomicity());
}

// Killed servers (refused dials, not silence) latch suspicion immediately
// after the dial budget, so operations degrade from typed timeouts to
// instant kQuorumUnreachable fast-fails.
TEST(ChaosTcpOnly, DeadServersFastFailQuorumUnreachable) {
  net::NetClusterOptions o;
  o.host = kChaosHost;
  o.servers = 3;
  o.num_clients = 1;
  o.seed = 9;
  o.op_deadline_us = 500'000;
  o.retransmit.enabled = false;
  o.detector.suspect_after_us = 300'000;
  o.detector.probe_interval_us = 2'000'000;
  net::NetCluster cluster(o);

  ASSERT_EQ(cluster.write(0, kDefaultObject, value_of("pre")).status,
            OpStatus::kOk);

  cluster.kill_server(1);
  cluster.kill_server(2);

  // First op discovers the dead sockets (failed writes -> refused redials
  // -> immediate suspicion) and times out typed; the follow-up probe op
  // also fails; after that the gate fast-fails without burning deadlines.
  const auto r1 = cluster.read(0, kDefaultObject);
  EXPECT_FALSE(r1.ok());
  const auto r2 = cluster.read(0, kDefaultObject);
  EXPECT_FALSE(r2.ok());

  const SimTime t0 = net::NodeRuntime::unix_now_us();
  const auto r3 = cluster.read(0, kDefaultObject);
  const SimTime took = net::NodeRuntime::unix_now_us() - t0;
  EXPECT_EQ(r3.status, OpStatus::kQuorumUnreachable);
  EXPECT_LT(took, 200'000u);
  EXPECT_GE(cluster.detector(0)->suspicions(), 2u);
}

// The per-connection pending queue is bounded: against a peer that accepts
// but never reads, the queue truncates at max_queue_frames by dropping the
// oldest frame (counted), instead of growing without limit.
TEST(ChaosTcpOnly, BoundedSenderQueueDropsOldest) {
  // A raw listener that accepts one connection and never reads from it.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::atomic<bool> stop{false};
  std::thread acceptor([lfd, &stop] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    while (!stop.load() && cfd >= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (cfd >= 0) ::close(cfd);
  });

  net::NodeRuntime rt(1);
  auto book = std::make_shared<net::AddressBook>();
  book->set(5, net::Endpoint{"127.0.0.1", port});
  net::TcpTransport::Options topt;
  topt.max_queue_frames = 8;
  net::TcpTransport tcp(rt, book, topt);
  tcp.start();

  // 64 KiB frames: a few hundred vastly exceed queue bound + socket
  // buffers, so the enqueue-side bound must engage.
  auto body = std::make_shared<dap::PutBatchReq>();
  dap::BatchPutItem item;
  item.object = kDefaultObject;
  item.value = std::make_shared<Value>(65'536, std::uint8_t{0x5A});
  body->items.push_back(item);
  for (int i = 0; i < 300; ++i) {
    tcp.send(/*from=*/1, /*to=*/5, body);
  }

  EXPECT_LE(tcp.queue_depth(5), topt.max_queue_frames);
  EXPECT_GT(tcp.frames_dropped_overflow(), 0u);

  tcp.stop();
  stop.store(true);
  ::shutdown(lfd, SHUT_RDWR);
  ::close(lfd);
  acceptor.join();
}

// --- backoff / jitter schedules ----------------------------------------------

TEST(ChaosSchedules, RetransmitDelayGrowsAndCaps) {
  sim::RetransmitPolicy p;
  p.initial_us = 50'000;
  p.multiplier = 2.0;
  p.max_us = 1'000'000;
  p.jitter = 0;
  EXPECT_EQ(sim::retransmit_delay(p, 1, 1), 50'000u);
  EXPECT_EQ(sim::retransmit_delay(p, 1, 2), 100'000u);
  EXPECT_EQ(sim::retransmit_delay(p, 1, 3), 200'000u);
  EXPECT_EQ(sim::retransmit_delay(p, 1, 10), 1'000'000u);  // capped

  p.jitter = 0.2;
  bool varied = false;
  for (int a = 1; a <= 6; ++a) {
    const SimDuration base =
        std::min<SimDuration>(p.max_us, 50'000u << (a - 1));
    const SimDuration d1 = sim::retransmit_delay(p, 7, a);
    EXPECT_GE(d1, static_cast<SimDuration>(static_cast<double>(base) * 0.79));
    EXPECT_LE(d1, static_cast<SimDuration>(static_cast<double>(base) * 1.21));
    if (d1 != base) varied = true;
    // Deterministic in (salt, attempt):
    EXPECT_EQ(d1, sim::retransmit_delay(p, 7, a));
    // Different salts de-synchronize:
    if (sim::retransmit_delay(p, 8, a) != d1) varied = true;
  }
  EXPECT_TRUE(varied);
}

// The detector's gate contract in isolation: silence past the threshold
// latches suspicion, exactly one probe send per interval is allowed (the
// rest fast-fail), any receipt heals, and a refused dial condemns
// immediately.
TEST(ChaosSchedules, FailureDetectorProbeGate) {
  net::FailureDetector::Options o;
  o.suspect_after_us = 100'000;
  o.probe_interval_us = 1'000'000;
  net::FailureDetector fd(o);

  const SimTime t0 = 50'000'000;  // epoch-like base, as in production
  fd.note_send(7, t0);
  EXPECT_FALSE(fd.suspected(7, t0 + 50'000));
  EXPECT_TRUE(fd.suspected(7, t0 + 150'000));  // silence past the threshold
  EXPECT_EQ(fd.suspicions(), 1u);

  EXPECT_TRUE(fd.allow_send(7, t0 + 200'000));    // the probe
  EXPECT_FALSE(fd.allow_send(7, t0 + 300'000));   // inside the interval
  EXPECT_FALSE(fd.allow_send(7, t0 + 900'000));   // still inside
  EXPECT_EQ(fd.fast_fails(), 2u);
  EXPECT_TRUE(fd.allow_send(7, t0 + 1'300'000));  // next interval's probe

  fd.note_receive(7, t0 + 1'400'000);  // any frame heals
  EXPECT_FALSE(fd.suspected(7, t0 + 1'400'001));
  EXPECT_EQ(fd.heals(), 1u);
  EXPECT_TRUE(fd.allow_send(7, t0 + 1'400'002));  // healthy: no gate

  fd.note_dial_failure(9, t0);  // refused dial: affirmative, immediate
  EXPECT_TRUE(fd.suspected(9, t0 + 1));
  EXPECT_EQ(fd.suspicions(), 2u);
}

TEST(ChaosSchedules, DialJitterSpreadsWithinBounds) {
  EXPECT_EQ(net::jittered_dial_delay_ms(50, 0, 1, 1), 50);
  EXPECT_EQ(net::jittered_dial_delay_ms(0, 50, 1, 1), 0);

  bool varied = false;
  for (int a = 1; a <= 20; ++a) {
    const int d = net::jittered_dial_delay_ms(50, 50, 42, a);
    EXPECT_GE(d, 25);
    EXPECT_LE(d, 75);
    EXPECT_EQ(d, net::jittered_dial_delay_ms(50, 50, 42, a));
    if (d != 50) varied = true;
    if (net::jittered_dial_delay_ms(50, 50, 43, a) != d) varied = true;
  }
  EXPECT_TRUE(varied);
  EXPECT_GE(net::jittered_dial_delay_ms(1, 90, 3, 2), 1);
}

}  // namespace
}  // namespace ares
