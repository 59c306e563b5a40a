// The transport-portability contract: the same protocol scenarios — ABD
// read/write flow (including a server crash), TREAS erasure-coded
// round-trips, and the read-lease fast path — run unmodified over the
// deterministic simulator AND over real localhost TCP sockets. The
// backend fixtures are shared with the chaos suite (net_backends.hpp);
// any divergence between the two transports fails here by construction.
#include "net_backends.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>

namespace ares {
namespace {

template <typename Backend>
class TransportSuite : public ::testing::Test {};

using Backends = ::testing::Types<SimBackend, TcpBackend>;
TYPED_TEST_SUITE(TransportSuite, Backends);

// The full ABD read/write flow: writes become visible to every client,
// reads return the latest written value, the history is atomic.
TYPED_TEST(TransportSuite, AbdReadWriteFlow) {
  DeployConfig cfg;
  TypeParam backend(cfg);

  const auto w1 = backend.write(0, kDefaultObject, value_of("alpha"));
  EXPECT_TRUE(w1.is_write);
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(1, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), "alpha");
  EXPECT_EQ(r1.tag, w1.tag);

  const auto w2 = backend.write(1, kDefaultObject, value_of("beta"));
  EXPECT_TRUE(w1.tag < w2.tag);

  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "beta");

  expect_atomic(backend.check());
}

// A minority server crash mid-run: operations keep completing against the
// surviving majority and the history stays atomic.
TYPED_TEST(TransportSuite, AbdSurvivesServerCrash) {
  DeployConfig cfg;
  TypeParam backend(cfg);

  const auto w1 = backend.write(0, kDefaultObject, value_of("before-crash"));
  EXPECT_GT(w1.tag.z, 0u);

  backend.kill_server(2);

  const auto w2 = backend.write(1, kDefaultObject, value_of("after-crash"));
  EXPECT_TRUE(w1.tag < w2.tag);
  const auto r = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r.value), "after-crash");

  expect_atomic(backend.check());
}

// TREAS [5,3] erasure-coded round-trip, including a value big enough that
// fragments dominate framing.
TYPED_TEST(TransportSuite, TreasReadWriteFlow) {
  DeployConfig cfg;
  cfg.servers = 5;
  cfg.protocol = dap::Protocol::kTreas;
  cfg.k = 3;
  TypeParam backend(cfg);

  std::string big(8192, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 23));
  }
  const auto w1 = backend.write(0, kDefaultObject, value_of(big));
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(1, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), big);
  EXPECT_EQ(r1.tag, w1.tag);

  const auto w2 = backend.write(1, kDefaultObject, value_of("small"));
  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "small");
  EXPECT_EQ(r2.tag, w2.tag);

  expect_atomic(backend.check());
}

// The read-lease fast path: the second read under a live lease is served
// entirely locally (zero rounds, zero messages); a later write invalidates
// the lease and its value is what subsequent reads return.
TYPED_TEST(TransportSuite, LeaseServesSecondReadLocally) {
  DeployConfig cfg;
  cfg.lease = 5'000'000;  // far above both backends' op latencies
  TypeParam backend(cfg);

  // Client 1 writes; client 0 reads (its *first* contact — a write-ack
  // lease would make the writer's own reads local already).
  const auto w1 = backend.write(1, kDefaultObject, value_of("leased"));
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), "leased");
  EXPECT_GT(r1.metrics.rounds, 0u);  // first read pays the quorum round

  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "leased");
  EXPECT_TRUE(r2.metrics.local())
      << "second read under a live lease should cost zero rounds, got "
      << r2.metrics.rounds << " rounds / " << r2.metrics.messages
      << " messages";

  // A write from the other client settles the lease (kInvalidate pushes an
  // invalidation to the holder) — the holder's next read sees the new value.
  const auto w2 = backend.write(1, kDefaultObject, value_of("settled"));
  EXPECT_TRUE(w1.tag < w2.tag);
  const auto r3 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r3.value), "settled");

  expect_atomic(backend.check());
}

// --- TCP-only coverage -------------------------------------------------------

// Frames really cross sockets (no hidden same-process shortcut), and the
// threaded workload driver produces an atomic history with sane metrics.
TEST(TcpTransportOnly, WorkloadCrossesTheWireAtomically) {
  DeployConfig cfg;
  cfg.clients = 3;
  TcpBackend backend(cfg);

  harness::WorkloadOptions w;
  w.ops_per_client = 20;
  w.write_fraction = 0.4;
  w.value_size = 128;
  w.seed = 11;
  const auto result = net::run_net_workload(backend.cluster(), w);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.ops.size(), 3u * 20u);
  EXPECT_GT(result.mean_latency(false), 0.0);
  EXPECT_GT(result.mean_rounds(true), 0.0);

  EXPECT_GT(backend.cluster().total_frames_sent(), 0u);
  EXPECT_GT(backend.cluster().total_frames_received(), 0u);

  expect_atomic(backend.check());
}

// One thread per node: the socket runtime runs each node's sockets and
// timers on a single loop thread, so a loaded deployment holds one thread
// per node plus the workload's own (and the test's main thread).
TEST(TcpTransportOnly, ThreadsPerNodeAreBounded) {
  DeployConfig cfg;
  cfg.clients = 4;
  TcpBackend backend(cfg);

  harness::WorkloadOptions w;
  w.ops_per_client = 50;
  w.write_fraction = 0.3;
  w.value_size = 256;
  w.seed = 5;
  std::atomic<std::size_t> peak{0};
  w.on_op = [&peak](const harness::OpStat&) {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    std::size_t seen = peak.load();
    while (n > seen && !peak.compare_exchange_weak(seen, n)) {
    }
  };
  const auto result = net::run_net_workload(backend.cluster(), w);
  EXPECT_EQ(result.failures, 0u);

  const std::size_t nodes = cfg.servers + cfg.clients;
  EXPECT_GT(peak.load(), cfg.clients);
  EXPECT_LE(peak.load(), nodes + cfg.clients + 2)
      << "threads per node grew past one loop";
  expect_atomic(backend.check());
}

// Batched reads cross the wire as one multi-object quorum round.
TEST(TcpTransportOnly, BatchedReadsOverTcp) {
  net::NetClusterOptions o;
  o.servers = 3;
  o.num_clients = 1;
  o.num_objects = 4;
  o.seed = 3;
  net::NetCluster cluster(o);

  for (ObjectId obj = 0; obj < 4; ++obj) {
    (void)cluster.write(0, obj, value_of("obj" + std::to_string(obj)));
  }
  const auto results = cluster.read_batch(0, {0, 1, 2, 3});
  ASSERT_EQ(results.size(), 4u);
  for (ObjectId obj = 0; obj < 4; ++obj) {
    EXPECT_EQ(to_string(results[obj].value), "obj" + std::to_string(obj));
  }
  std::uint64_t batch_rounds = 0;
  for (const auto& r : results) batch_rounds += r.metrics.rounds;
  // One get-data + one put-back round shared by 4 members, not 4x.
  EXPECT_LE(batch_rounds, 4u);
  expect_atomic(cluster.check_atomicity());
}

}  // namespace
}  // namespace ares
