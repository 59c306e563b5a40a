// Unit tests for the simulation kernel: event queue ordering, simulator
// control, coroutine futures, network delay/crash/broadcast semantics.
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace ares::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_after(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, PostRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_after(50, [&] {
    sim.post([&] { EXPECT_EQ(sim.now(), 50u); });
  });
  sim.run();
}

TEST(Simulator, ScheduleAtClampsPast) {
  Simulator sim;
  sim.schedule_after(100, [&] {
    sim.schedule_at(10, [&] { EXPECT_EQ(sim.now(), 100u); });
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(static_cast<SimDuration>(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_until([&] { return count == 5; }));
  EXPECT_EQ(count, 5);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilFalseWhenDrained) {
  Simulator sim;
  sim.schedule_after(1, [] {});
  EXPECT_FALSE(sim.run_until([] { return false; }));
}

TEST(Simulator, RunForProcessesWindowOnly) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(10, [&] { ++count; });
  sim.schedule_after(20, [&] { ++count; });
  sim.schedule_after(30, [&] { ++count; });
  sim.run_for(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, CurrentPointsToNewest) {
  Simulator outer;
  EXPECT_EQ(Simulator::current(), &outer);
  {
    Simulator inner;
    EXPECT_EQ(Simulator::current(), &inner);
  }
  EXPECT_EQ(Simulator::current(), &outer);
}

// --- coroutines -------------------------------------------------------------

Future<int> make_fortytwo() { co_return 42; }

Future<int> add_one(Future<int> f) {
  const int v = co_await f;
  co_return v + 1;
}

TEST(Coro, EagerCoroutineCompletesImmediately) {
  Simulator sim;
  auto f = make_fortytwo();
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(Coro, AwaitReadyFuture) {
  Simulator sim;
  auto f = add_one(make_fortytwo());
  sim.run();
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 43);
}

TEST(Coro, PromiseFulfillsFuture) {
  Simulator sim;
  Promise<std::string> p;
  auto f = add_one([](Future<std::string> s) -> Future<int> {
    auto v = co_await s;
    co_return static_cast<int>(v.size());
  }(p.get_future()));
  EXPECT_FALSE(f.ready());
  p.set_value("hello");
  sim.run();
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 6);
}

Future<void> sleeper(Simulator* sim, SimDuration d, SimTime* woke) {
  co_await sleep_for(*sim, d);
  *woke = sim->now();
}

TEST(Coro, SleepForResumesAtRightTime) {
  Simulator sim;
  SimTime woke = 0;
  auto f = sleeper(&sim, 250, &woke);
  sim.run();
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(woke, 250u);
}

Future<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

TEST(Coro, ExceptionPropagatesThroughFuture) {
  Simulator sim;
  auto f = thrower();
  ASSERT_TRUE(f.ready());
  EXPECT_THROW(f.get(), std::runtime_error);
}

Future<int> rethrower() {
  const int v = co_await thrower();
  co_return v;
}

TEST(Coro, ExceptionPropagatesThroughAwait) {
  Simulator sim;
  auto f = rethrower();
  sim.run();
  ASSERT_TRUE(f.ready());
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Coro, ResumptionsStayOnTheSimulatorRunningTheEvent) {
  // `older` is not the most recently constructed simulator, yet the
  // resumption after its timer fires must be queued on it, not on `newer`.
  Simulator older;
  Simulator newer;
  SimTime woke = 0;
  auto f = add_one([](Simulator* sim, SimTime* w) -> Future<int> {
    co_await sleeper(sim, 40, w);
    co_return 1;
  }(&older, &woke));
  EXPECT_EQ(run_to_completion(older, std::move(f)), 2);
  EXPECT_EQ(woke, 40u);
  EXPECT_EQ(newer.pending_events(), 0u);
  EXPECT_EQ(Simulator::current(), &newer);  // restored after the run
}

TEST(Coro, RunToCompletionHelper) {
  Simulator sim;
  SimTime woke = 0;
  run_to_completion(sim, sleeper(&sim, 77, &woke));
  EXPECT_EQ(woke, 77u);
}

// --- network ----------------------------------------------------------------

/// Minimal echo server / recorder used by network tests.
class Recorder final : public Process {
 public:
  using Process::Process;
  std::vector<SimTime> arrivals;

 protected:
  void handle(const Message&) override { arrivals.push_back(simulator().now()); }
};

class Ping final : public MessageBody {
 public:
  std::size_t bytes = 0;
  [[nodiscard]] std::size_t data_bytes() const override { return bytes; }
  [[nodiscard]] std::string_view type_name() const override { return "ping"; }
};

TEST(Network, DelaysWithinBounds) {
  Simulator sim(3);
  Network net(sim, 10, 40);
  Recorder a(sim, net, 0), b(sim, net, 1);
  for (int i = 0; i < 200; ++i) net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 200u);
  for (SimTime t : b.arrivals) {
    EXPECT_GE(t, 10u);
    EXPECT_LE(t, 40u);
  }
}

TEST(Network, FixedDelayPolicy) {
  Simulator sim;
  Network net(sim, 1, 100);
  net.set_delay_fn(fixed_delay(25));
  Recorder a(sim, net, 0), b(sim, net, 1);
  net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], 25u);
}

TEST(Network, BiasedDelayPolicy) {
  Simulator sim;
  Network net(sim, 1, 100);
  net.set_delay_fn(biased_delay({/*fast=*/2}, 5, 50));
  Recorder a(sim, net, 0), b(sim, net, 1), c(sim, net, 2);
  net.send(2, 1, std::make_shared<Ping>());  // from fast process
  net.send(0, 1, std::make_shared<Ping>());  // slow
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0], 5u);
  EXPECT_EQ(b.arrivals[1], 50u);
}

TEST(Network, CrashedReceiverDropsMessages) {
  Simulator sim;
  Network net(sim, 5, 5);
  Recorder a(sim, net, 0), b(sim, net, 1);
  net.crash(1);
  net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_TRUE(b.crashed());
}

TEST(Network, CrashedSenderCannotSend) {
  Simulator sim;
  Network net(sim, 5, 5);
  Recorder a(sim, net, 0), b(sim, net, 1);
  net.crash(0);
  net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
}

TEST(Network, CrashMidFlightStillDelivers) {
  // A message already in flight when the *sender* crashes is delivered
  // (channels are reliable; the crash only stops future activity).
  Simulator sim;
  Network net(sim, 10, 10);
  Recorder a(sim, net, 0), b(sim, net, 1);
  net.send(0, 1, std::make_shared<Ping>());
  sim.schedule_after(1, [&] { net.crash(0); });
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Network, AtomicBroadcastAllOrNone) {
  // All alive destinations receive the md-primitive message at the same
  // instant; crashed ones never do.
  Simulator sim;
  Network net(sim, 7, 7);
  Recorder a(sim, net, 0), b(sim, net, 1), c(sim, net, 2), d(sim, net, 3);
  net.crash(3);
  net.atomic_broadcast(0, {1, 2, 3}, std::make_shared<Ping>());
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], c.arrivals[0]);
  EXPECT_TRUE(d.arrivals.empty());
}

TEST(Network, StatsAccountDataAndMetadata) {
  Simulator sim;
  Network net(sim, 1, 1);
  Recorder a(sim, net, 0), b(sim, net, 1);
  auto ping = std::make_shared<Ping>();
  ping->bytes = 1000;
  net.send(0, 1, ping);
  net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().data_bytes, 1000u);
  EXPECT_EQ(net.stats().messages_by_type.at("ping"), 2u);
  EXPECT_EQ(net.stats().data_bytes_by_type.at("ping"), 1000u);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(Network, DropPolicyDropsMessages) {
  Simulator sim;
  Network net(sim, 1, 1);
  net.set_delay_fn([](const Message&, Rng&) { return kDropMessage; });
  Recorder a(sim, net, 0), b(sim, net, 1);
  net.send(0, 1, std::make_shared<Ping>());
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
}

// --- process / RPC ----------------------------------------------------------

class EchoReq final : public RpcRequest {
 public:
  int payload = 0;
  [[nodiscard]] std::string_view type_name() const override { return "echo"; }
};

class EchoReply final : public RpcReply {
 public:
  int payload = 0;
  [[nodiscard]] std::string_view type_name() const override {
    return "echo_reply";
  }
};

class EchoServer final : public Process {
 public:
  using Process::Process;
  int handled = 0;

 protected:
  void handle(const Message& msg) override {
    auto req = std::dynamic_pointer_cast<const EchoReq>(msg.body);
    ASSERT_TRUE(req);
    ++handled;
    auto reply = std::make_shared<EchoReply>();
    reply->payload = req->payload * 2;
    reply_to(msg, std::move(reply));
  }
};

class EchoClient final : public Process {
 public:
  using Process::Process;

 protected:
  void handle(const Message&) override {}
};

Future<int> do_echo(EchoClient* c, ProcessId server, int v) {
  auto req = std::make_shared<EchoReq>();
  req->payload = v;
  auto reply = co_await c->call(server, std::move(req));
  co_return std::dynamic_pointer_cast<const EchoReply>(reply)->payload;
}

TEST(Rpc, CallMatchesReply) {
  Simulator sim;
  Network net(sim, 3, 9);
  EchoServer server(sim, net, 0);
  EchoClient client(sim, net, 1);
  auto f1 = do_echo(&client, 0, 21);
  auto f2 = do_echo(&client, 0, 100);
  sim.run();
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), 200);
  EXPECT_EQ(server.handled, 2);
}

Future<std::size_t> collect_quorum(EchoClient* c,
                                   std::vector<ProcessId> servers,
                                   std::size_t quorum) {
  auto qc = broadcast_collect<EchoReply>(*c, servers, [](ProcessId) {
    auto req = std::make_shared<EchoReq>();
    req->payload = 1;
    return req;
  });
  co_await qc.wait_for(quorum);
  co_return qc.arrivals().size();
}

TEST(Rpc, QuorumCollectorWaitsForCount) {
  Simulator sim;
  Network net(sim, 3, 9);
  EchoServer s0(sim, net, 0), s1(sim, net, 1), s2(sim, net, 2);
  EchoClient client(sim, net, 3);
  auto f = collect_quorum(&client, {0, 1, 2}, 2);
  const bool done = sim.run_until([&] { return f.ready(); });
  ASSERT_TRUE(done);
  EXPECT_GE(f.get(), 2u);
}

TEST(Rpc, QuorumToleratesCrashedMinority) {
  Simulator sim;
  Network net(sim, 3, 9);
  EchoServer s0(sim, net, 0), s1(sim, net, 1), s2(sim, net, 2);
  EchoClient client(sim, net, 3);
  net.crash(2);
  auto f = collect_quorum(&client, {0, 1, 2}, 2);
  ASSERT_TRUE(sim.run_until([&] { return f.ready(); }));
  EXPECT_EQ(f.get(), 2u);
}

TEST(Rpc, QuorumBlocksWithoutEnoughServers) {
  Simulator sim;
  Network net(sim, 3, 9);
  EchoServer s0(sim, net, 0), s1(sim, net, 1), s2(sim, net, 2);
  EchoClient client(sim, net, 3);
  net.crash(1);
  net.crash(2);
  auto f = collect_quorum(&client, {0, 1, 2}, 2);
  EXPECT_FALSE(sim.run_until([&] { return f.ready(); }));
}

Future<bool> timed_quorum(Simulator* sim, EchoClient* c,
                          std::vector<ProcessId> servers, std::size_t quorum,
                          SimDuration timeout) {
  auto qc = broadcast_collect<EchoReply>(*c, servers, [](ProcessId) {
    return std::make_shared<EchoReq>();
  });
  using Arr = std::vector<QuorumCollector<EchoReply>::Arrival>;
  // Hoisted per the GCC-12 note in sim/coro.hpp.
  std::function<bool(const Arr&)> pred = [quorum](const Arr& a) {
    return a.size() >= quorum;
  };
  Future<bool> wait_future = qc.wait(pred, *sim, timeout);
  const bool ok = co_await wait_future;
  co_return ok;
}

TEST(Rpc, QuorumTimeoutFires) {
  Simulator sim;
  Network net(sim, 3, 9);
  EchoServer s0(sim, net, 0), s1(sim, net, 1), s2(sim, net, 2);
  EchoClient client(sim, net, 3);
  net.crash(1);
  net.crash(2);
  auto f = timed_quorum(&sim, &client, {0, 1, 2}, 2, 100);
  ASSERT_TRUE(sim.run_until([&] { return f.ready(); }));
  EXPECT_FALSE(f.get());
}

TEST(Rpc, CrashedClientIgnoresReplies) {
  Simulator sim;
  Network net(sim, 5, 5);
  EchoServer server(sim, net, 0);
  EchoClient client(sim, net, 1);
  auto f = do_echo(&client, 0, 1);
  sim.schedule_after(1, [&] { net.crash(1); });
  sim.run();
  EXPECT_FALSE(f.ready());  // the operation never completes
}

}  // namespace
}  // namespace ares::sim
