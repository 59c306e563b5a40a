// The repository benchmark: one named closed-loop workload against a real
// net::NetCluster over localhost TCP, built in Release.
//
//   ares_perf --workload NAME --seed N --seconds S --trace 0|1
//
// A run is kRounds rounds. Each round builds a fresh cluster and writes every
// object once (timed as set-up), lets the clients run kWarmupS, then
// measures S / kRounds seconds. Each client is one thread blocked on its
// reply (a closed loop), timed with steady_clock around every blocking
// NetCluster call. Latency percentiles are nearest-rank over the samples of
// all rounds; set-up time is the median over rounds.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same shape
// with a probe client that times DAP calls from this file (an idle step
// before the load, then from client 0's loop one call every 10 ms, spaced
// so the probe takes at most 1/kProbeShare of that client's time), then the
// wire and codec microbenches, and reports the per-layer metrics.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. The line before it is {"detail": ...}: the round shape, ops/s
// and each metric's sample count, for run.py --suite. Human-readable tables
// go to stderr. The run is correct only if every round's history is atomic,
// every op returned kOk, every read returned a well-formed value of the
// workload's size, and every reported p99 rests on at least kMinTailSamples
// samples; otherwise it exits 1.
#include "abd/messages.hpp"
#include "ares/client.hpp"
#include "codec/codec.hpp"
#include "dap/factory.hpp"
#include "harness/workload.hpp"
#include "net/cluster.hpp"
#include "net/wire.hpp"
#include "treas/messages.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRounds = 5;
constexpr double kWarmupS = 1.0;
constexpr std::size_t kMinTailSamples = 1000;
constexpr std::int64_t kProbeEveryNs = 10'000'000;
constexpr std::int64_t kProbeShare = 20;  // probe <= 1/20 of client 0's time
constexpr std::size_t kIdleProbes = 200;
constexpr ObjectId kProbeObject = 1'000'000;  // outside every key-space
constexpr ProcessId kProbeId = 900;
constexpr double kOpsFloor = 50.0;  // sanity floor, not a target

struct Workload {
  const char* name;
  dap::Protocol protocol;
  std::size_t servers;
  std::size_t k;
  std::size_t clients;
  double write_fraction;
  std::size_t value_size;
  std::size_t objects;
  bool zipf;
  SimDuration lease_us;
  std::int64_t think_us;
  std::size_t read_keys;  // keys per read call: > 1 issues read_batch
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"abd_rw", dap::Protocol::kAbd, 3, 1, 4, 0.30, 256, 256, false, 0, 0, 1},
    {"abd_lease_zipf", dap::Protocol::kAbd, 3, 1, 3, 0.05, 256, 256, true,
     500'000, 200, 1},
    {"treas_ec", dap::Protocol::kTreas, 5, 3, 2, 0.50, 32 * 1024, 16, false, 0,
     0, 1},
    {"abd_batch8", dap::Protocol::kAbd, 3, 1, 2, 0.10, 256, 256, false, 0, 0,
     8},
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wall time of one blocking call, in ns.
class OpTimer {
 public:
  [[nodiscard]] std::int64_t ns() const { return now_ns() - start_; }

 private:
  std::int64_t start_ = now_ns();
};

/// Nearest-rank percentile: the ⌈p/100 · n⌉-th smallest sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())));
  const auto k = static_cast<std::ptrdiff_t>(std::min(rank, v.size()) - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[static_cast<std::size_t>(k)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// --- values: every byte derives from an id in the first 8 bytes, so a read
// can verify the whole value it got back (the RS decode path included).

std::uint8_t pattern_byte(std::uint64_t id, std::size_t i) {
  if (i < 8) return static_cast<std::uint8_t>(id >> (8 * i));
  return static_cast<std::uint8_t>(id * 0x9E3779B1u + i * 131);
}

ValuePtr make_value(std::size_t size, std::uint64_t id) {
  auto v = std::make_shared<Value>(size);
  for (std::size_t i = 0; i < size; ++i) (*v)[i] = pattern_byte(id, i);
  return v;
}

bool value_ok(const ValuePtr& v, std::size_t size) {
  if (!v || v->size() != size || size < 8) return false;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    id |= static_cast<std::uint64_t>((*v)[i]) << (8 * i);
  }
  for (std::size_t i = 8; i < size; ++i) {
    if ((*v)[i] != pattern_byte(id, i)) return false;
  }
  return true;
}

// --- probe client (traced runs) ---------------------------------------------

std::shared_ptr<net::AddressBook> book_of(net::NetCluster& cluster) {
  auto book = std::make_shared<net::AddressBook>();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    book->set(static_cast<ProcessId>(i),
              net::Endpoint{cluster.options().host,
                            cluster.server_transport(i).port()});
  }
  return book;
}

/// Mirrors every field NetCluster's constructor sets on c0.
dap::ConfigSpec c0_of(const net::NetClusterOptions& o) {
  dap::ConfigSpec c0;
  c0.id = 0;
  c0.protocol = o.protocol;
  c0.k = o.protocol == dap::Protocol::kTreas ? o.k : 1;
  c0.delta = o.delta;
  c0.treas_retry_timeout = o.treas_retry_timeout_us;
  c0.semifast = o.semifast;
  c0.lease_ms = o.lease_us;
  c0.lease_policy = o.lease_policy;
  c0.lease_adaptive = o.lease_adaptive;
  for (std::size_t i = 0; i < o.servers; ++i) {
    c0.servers.push_back(static_cast<ProcessId>(i));
  }
  return c0;
}

/// A client of its own, built from public APIs only, whose DAP primitives
/// address kProbeObject: timing them never touches the checked history.
class Probe {
 public:
  Probe(net::NetCluster& cluster, std::size_t value_size)
      : tcp_(rt_, book_of(cluster)), value_size_(value_size) {
    const dap::ConfigSpec c0 = c0_of(cluster.options());
    registry_.register_config(c0);
    client_ = std::make_unique<reconfig::AresClient>(rt_.simulator(), tcp_,
                                                     kProbeId, registry_, 0);
    dap_ = dap::make_dap(*client_, c0, kProbeObject);
    tcp_.start();
  }
  ~Probe() { tcp_.stop(); }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Idle step: get-tag on the quiet cluster, then one untimed put so the
  /// loaded get-data moves a value of the workload's size.
  void idle() {
    try {
      for (std::size_t i = 0; i < kIdleProbes; ++i) {
        const OpTimer t;
        last_tag_ = rt_.sync([&] { return dap_->get_tag(); });
        idle_ns.push_back(static_cast<double>(t.ns()));
      }
      put();
    } catch (const std::exception&) {
      ok = false;
    }
  }

  /// Loaded step: one call, rotating get-tag → get-data → put-data.
  void step() {
    try {
      const OpTimer t;
      switch (steps_++ % 3) {
        case 0:
          last_tag_ = rt_.sync([&] { return dap_->get_tag(); });
          get_tag_ns.push_back(static_cast<double>(t.ns()));
          break;
        case 1: {
          const dap::GetDataResult r =
              rt_.sync([&] { return dap_->get_data_confirmed(false); });
          get_data_ns.push_back(static_cast<double>(t.ns()));
          ok = ok && value_ok(r.tv.value, value_size_);
          break;
        }
        default:
          put();
          put_data_ns.push_back(static_cast<double>(t.ns()));
          break;
      }
    } catch (const std::exception&) {
      ok = false;
    }
  }

  std::vector<double> idle_ns, get_tag_ns, get_data_ns, put_data_ns;
  /// Every call completed and every get-data returned a well-formed value.
  bool ok = true;

 private:
  void put() {
    last_tag_ = last_tag_.next(kProbeId);
    TagValue tv{last_tag_, make_value(value_size_, last_tag_.z)};
    rt_.sync([&] { return dap_->put_data(tv); });
  }

  net::NodeRuntime rt_{kProbeId};
  net::TcpTransport tcp_;
  dap::ConfigRegistry registry_;
  std::unique_ptr<reconfig::AresClient> client_;
  std::shared_ptr<dap::Dap> dap_;
  std::size_t value_size_;
  Tag last_tag_;
  std::uint64_t steps_ = 0;
};

// --- one round ---------------------------------------------------------------

/// One Store call (a read_batch counts its members).
struct OpRec {
  std::int64_t end_ns = 0;
  std::int64_t lat_ns = 0;
  bool is_write = false;
  bool is_batch = false;  // a read_batch call
  bool ok = false;  // kOk, and every value read is well-formed
  std::uint32_t members = 1;
  OpMetrics cost;  // summed over members
};

OpRec record(const OpTimer& t, const std::vector<OpResult>& rs, bool is_write,
             bool is_batch, std::size_t value_size) {
  OpRec rec;
  rec.lat_ns = t.ns();
  rec.end_ns = now_ns();
  rec.is_write = is_write;
  rec.is_batch = is_batch;
  rec.ok = !rs.empty();
  rec.members = static_cast<std::uint32_t>(rs.size());
  for (const OpResult& r : rs) {
    rec.ok = rec.ok && r.ok() && (is_write || value_ok(r.value, value_size));
    rec.cost.rounds += r.metrics.rounds;
    rec.cost.messages += r.metrics.messages;
    rec.cost.bytes += r.metrics.bytes;
    rec.cost.elided_rounds += r.metrics.elided_rounds;
  }
  return rec;
}

std::vector<ObjectId> distinct_keys(const harness::KeyPicker& picker, Rng& rng,
                                    std::size_t n) {
  std::vector<ObjectId> keys;
  while (keys.size() < n) {
    const ObjectId k = picker.pick(rng);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  return keys;
}

void client_loop(net::NetCluster& cluster, const Workload& w, std::size_t c,
                 Rng rng, const std::atomic<bool>& stop,
                 std::vector<OpRec>& out, Probe* probe) {
  const harness::KeyPicker picker(
      w.objects,
      w.zipf ? harness::KeyDistribution::kZipfian
             : harness::KeyDistribution::kUniform,
      0.99);
  std::uint64_t seq = 0;
  std::int64_t next_probe = now_ns() + kProbeEveryNs;
  while (!stop.load(std::memory_order_relaxed)) {
    if (probe != nullptr && now_ns() >= next_probe) {
      const OpTimer t;
      probe->step();
      next_probe = std::max(next_probe + kProbeEveryNs,
                            now_ns() + (kProbeShare - 1) * t.ns());
    }
    if (w.think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(w.think_us));
    }
    const bool is_write = rng.uniform01() < w.write_fraction;
    try {
      if (is_write) {
        const ObjectId obj = picker.pick(rng);
        ValuePtr v = make_value(w.value_size, ((c + 1) << 40) | ++seq);
        const OpTimer t;
        const OpResult r = cluster.write(c, obj, std::move(v));
        out.push_back(record(t, {r}, true, false, w.value_size));
      } else if (w.read_keys > 1) {
        std::vector<ObjectId> keys = distinct_keys(picker, rng, w.read_keys);
        const OpTimer t;
        const std::vector<OpResult> rs = cluster.read_batch(c, std::move(keys));
        out.push_back(record(t, rs, false, true, w.value_size));
      } else {
        const ObjectId obj = picker.pick(rng);
        const OpTimer t;
        const OpResult r = cluster.read(c, obj);
        out.push_back(record(t, {r}, false, false, w.value_size));
      }
    } catch (const std::exception&) {
      OpRec rec;
      rec.end_ns = now_ns();
      rec.is_write = is_write;
      rec.is_batch = !is_write && w.read_keys > 1;
      rec.members = static_cast<std::uint32_t>(is_write ? 1 : w.read_keys);
      out.push_back(rec);
    }
  }
}

struct RoundResult {
  double setup_s = 0;
  double window_s = 0;
  std::vector<OpRec> ops;   // ended inside the measured window
  bool all_ok = true;       // every op of the round, warm-up included
  bool atomic = true;
  // Counted during the window.
  std::uint64_t frames = 0, retransmits = 0, frames_dropped = 0;
  // Probe samples in ns (traced runs).
  std::vector<double> idle_ns, get_tag_ns, get_data_ns, put_data_ns;
};

/// Frames every transport of the cluster dropped, any cause.
std::uint64_t frames_dropped(net::NetCluster& cluster) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    n += cluster.server_transport(i).frames_dropped();
  }
  for (std::size_t c = 0; c < cluster.num_clients(); ++c) {
    n += cluster.client_transport(c).frames_dropped();
  }
  return n;
}

void sleep_s(double s) {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9)));
}

RoundResult run_round(const Workload& w, std::uint64_t seed, std::size_t round,
                      double measure_s, bool trace) {
  net::NetClusterOptions o;
  o.servers = w.servers;
  o.protocol = w.protocol;
  o.k = w.k;
  o.num_clients = w.clients;
  o.num_objects = w.objects;
  o.lease_us = w.lease_us;
  o.seed = seed * 1000 + round;

  RoundResult res;
  const OpTimer setup;
  net::NetCluster cluster(o);
  for (std::size_t obj = 0; obj < w.objects; ++obj) {
    const OpResult r = cluster.write(0, static_cast<ObjectId>(obj),
                                     make_value(w.value_size, obj));
    res.all_ok = res.all_ok && r.ok();
  }
  res.setup_s = static_cast<double>(setup.ns()) / 1e9;

  // Declared after the cluster: its transport stops before the servers it
  // dialed go away.
  std::optional<Probe> probe;
  if (trace) {
    probe.emplace(cluster, w.value_size);
    probe->idle();
  }

  std::atomic<bool> stop{false};
  std::vector<std::vector<OpRec>> per_client(w.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) {
    Rng rng(seed * 1'000'003 + round * 1009 + c + 1);
    Probe* p = c == 0 && probe ? &*probe : nullptr;
    threads.emplace_back([&, c, rng, p] {
      client_loop(cluster, w, c, rng, stop, per_client[c], p);
    });
  }
  sleep_s(kWarmupS);
  const std::int64_t t0 = now_ns();
  const std::uint64_t frames0 = cluster.total_frames_sent();
  const std::uint64_t retransmits0 = cluster.total_retransmits();
  const std::uint64_t dropped0 = frames_dropped(cluster);
  sleep_s(measure_s);
  const std::int64_t t1 = now_ns();
  res.frames = cluster.total_frames_sent() - frames0;
  res.retransmits = cluster.total_retransmits() - retransmits0;
  res.frames_dropped = frames_dropped(cluster) - dropped0;
  stop.store(true);
  for (auto& t : threads) t.join();
  if (probe) {
    res.all_ok = res.all_ok && probe->ok;
    res.idle_ns = std::move(probe->idle_ns);
    res.get_tag_ns = std::move(probe->get_tag_ns);
    res.get_data_ns = std::move(probe->get_data_ns);
    res.put_data_ns = std::move(probe->put_data_ns);
  }

  res.window_s = static_cast<double>(t1 - t0) / 1e9;
  for (const auto& ops : per_client) {
    for (const OpRec& op : ops) {
      res.all_ok = res.all_ok && op.ok;
      if (op.end_ns >= t0 && op.end_ns < t1) res.ops.push_back(op);
    }
  }
  for (const auto& [obj, verdict] : cluster.check_atomicity()) {
    if (!verdict.ok) {
      std::fprintf(stderr, "object %u: %s\n", obj, verdict.violation.c_str());
    }
    res.atomic = res.atomic && verdict.ok;
  }
  return res;
}

// --- microbenches (traced runs) ----------------------------------------------

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// Median ns per call of `f` over 51 batches, each calibrated to >= 100 µs.
template <typename F>
double ns_per_call(F&& f) {
  std::size_t iters = 1;
  for (;;) {
    const OpTimer t;
    for (std::size_t i = 0; i < iters; ++i) g_sink = g_sink + f();
    if (t.ns() >= 100'000 || iters >= (1u << 20)) break;
    iters *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < 51; ++b) {
    const OpTimer t;
    for (std::size_t i = 0; i < iters; ++i) g_sink = g_sink + f();
    per.push_back(static_cast<double>(t.ns()) / static_cast<double>(iters));
  }
  return median(std::move(per));
}

struct WireTimes {
  double put_encode_ns = 0, put_decode_ns = 0;
  double reply_encode_ns = 0, reply_decode_ns = 0;
  bool ok = true;
};

WireTimes time_frames(const sim::MessageBody& put,
                      const sim::MessageBody& reply) {
  WireTimes out;
  const auto time_pair = [&out](const sim::MessageBody& body, double& enc,
                                double& dec) {
    const std::vector<std::uint8_t> frame = net::wire::encode_frame(100, 0, body);
    out.ok = out.ok && net::wire::decode_frame(frame.data() + 4,
                                               frame.size() - 4)
                               .body->type_name() == body.type_name();
    enc = ns_per_call([&] {
      return net::wire::encode_frame(100, 0, body).size();
    });
    dec = ns_per_call([&] {
      return static_cast<std::size_t>(
          net::wire::decode_frame(frame.data() + 4, frame.size() - 4)
              .body != nullptr);
    });
  };
  time_pair(put, out.put_encode_ns, out.put_decode_ns);
  time_pair(reply, out.reply_encode_ns, out.reply_decode_ns);
  return out;
}

/// The workload's put request and data reply at its value/fragment size:
/// abd.write / abd.query_reply, or treas.put / treas.query_list_reply with
/// the δ+1 coded elements a steady-state server List holds.
WireTimes time_wire(const Workload& w) {
  const Tag tag{123'456, 101};
  const ValuePtr value = make_value(w.value_size, 42);
  if (w.protocol == dap::Protocol::kTreas) {
    const auto codec = codec::make_codec(w.servers, w.k);
    const auto frags = codec->encode(*value);
    treas::PutReq put;
    put.config = 0;
    put.object = 7;
    put.tag = tag;
    put.fragment = frags[0];
    treas::QueryListReply reply;
    reply.confirmed = tag;
    for (std::size_t d = 0; d <= net::NetClusterOptions{}.delta; ++d) {
      reply.list.push_back({Tag{tag.z + d, 101}, frags[0]});
    }
    return time_frames(put, reply);
  }
  abd::WriteReq put;
  put.config = 0;
  put.object = 7;
  put.tag = tag;
  put.value = value;
  abd::QueryReply reply;
  reply.tag = tag;
  reply.value = value;
  reply.confirmed = tag;
  return time_frames(put, reply);
}

struct CodecTimes {
  double encode_us = 0, decode_systematic_us = 0, decode_parity_us = 0;
  bool ok = true;
};

/// RS[5,3] on a 32 KiB value, as TREAS stores it.
CodecTimes time_codec() {
  constexpr std::size_t kSize = 32 * 1024;
  const auto codec = codec::make_codec(5, 3);
  const ValuePtr value = make_value(kSize, 7);
  const auto frags = codec->encode(*value);
  const std::vector<codec::Fragment> systematic = {frags[0], frags[1], frags[2]};
  const std::vector<codec::Fragment> parity = {frags[2], frags[3], frags[4]};
  CodecTimes out;
  out.ok = codec->decode(systematic) == *value && codec->decode(parity) == *value;
  if (!out.ok) return out;
  const auto time_us = [](auto&& f) {
    std::vector<double> us;
    for (int i = 0; i < 31; ++i) {
      const OpTimer t;
      g_sink = g_sink + f();
      us.push_back(static_cast<double>(t.ns()) / 1e3);
    }
    return median(std::move(us));
  };
  out.encode_us = time_us([&] { return codec->encode(*value).size(); });
  out.decode_systematic_us =
      time_us([&] { return codec->decode(systematic)->size(); });
  out.decode_parity_us = time_us([&] { return codec->decode(parity)->size(); });
  return out;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value
};

std::vector<double> latencies_us(const std::vector<OpRec>& ops, bool writes) {
  std::vector<double> out;
  for (const OpRec& op : ops) {
    if (op.ok && op.is_write == writes) out.push_back(op.lat_ns / 1e3);
  }
  return out;
}

/// Mean of `get` over the Ok calls `pick` selects, with the call count; 0
/// when there are none.
template <typename Pick, typename Get>
Metric mean_cost(const std::vector<OpRec>& ops, Pick pick, std::string name,
                 std::string unit, Get get) {
  double sum = 0;
  std::size_t n = 0;
  for (const OpRec& op : ops) {
    if (op.ok && pick(op)) {
      sum += get(op);
      ++n;
    }
  }
  return {std::move(name), n == 0 ? 0.0 : sum / static_cast<double>(n),
          std::move(unit), n};
}

Metric p50_us(std::string name, const std::vector<double>& ns) {
  return {std::move(name), median(ns) / 1e3, "us", ns.size()};
}

/// The two last stdout lines: {"detail": ...} with the round shape, ops/s
/// and each metric's sample count, then the result.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  double ops_per_s, const std::vector<Metric>& metrics) {
  std::printf("{\"detail\": {\"rounds\": %zu, \"warmup_s\": %g, "
              "\"ops_per_s\": %.17g, \"samples\": {",
              kRounds, kWarmupS, ops_per_s);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %zu", i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].n);
  }
  std::printf("}}}\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload abd_rw|abd_lease_zipf|treas_ec|abd_batch8"
               " --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr || argc % 2 == 0 || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  std::fprintf(stderr, "%s seed=%llu trace=%d: %zu rounds x (%.1fs warm-up + "
               "%.2fs measured)\n",
               w->name, static_cast<unsigned long long>(seed), trace, kRounds,
               kWarmupS, seconds / kRounds);
  std::fprintf(stderr, "%6s %9s %11s %9s %9s %9s %9s\n", "round", "setup_s",
               "ops/s", "r_p50_us", "r_p99_us", "w_p50_us", "w_p99_us");
  std::vector<RoundResult> rounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    rounds.push_back(run_round(*w, seed, r, seconds / kRounds, trace == 1));
    const RoundResult& rr = rounds.back();
    std::uint64_t members = 0;
    for (const OpRec& op : rr.ops) members += op.ok ? op.members : 0;
    const std::vector<double> rd = latencies_us(rr.ops, false);
    const std::vector<double> wr = latencies_us(rr.ops, true);
    std::fprintf(stderr, "%6zu %9.4f %11.1f %9.1f %9.1f %9.1f %9.1f%s\n", r,
                 rr.setup_s, static_cast<double>(members) / rr.window_s,
                 percentile(rd, 50), percentile(rd, 99), percentile(wr, 50),
                 percentile(wr, 99), rr.all_ok && rr.atomic ? "" : "  [FAIL]");
  }

  // Pool the rounds.
  std::vector<OpRec> ops;
  std::vector<double> setups, idle_ns, get_tag_ns, get_data_ns, put_data_ns;
  double window_s = 0;
  std::uint64_t frames = 0, retransmits = 0, dropped = 0;
  bool correct = true;
  for (RoundResult& rr : rounds) {
    ops.insert(ops.end(), rr.ops.begin(), rr.ops.end());
    setups.push_back(rr.setup_s);
    window_s += rr.window_s;
    frames += rr.frames;
    retransmits += rr.retransmits;
    dropped += rr.frames_dropped;
    correct = correct && rr.all_ok && rr.atomic;
    idle_ns.insert(idle_ns.end(), rr.idle_ns.begin(), rr.idle_ns.end());
    get_tag_ns.insert(get_tag_ns.end(), rr.get_tag_ns.begin(),
                      rr.get_tag_ns.end());
    get_data_ns.insert(get_data_ns.end(), rr.get_data_ns.begin(),
                       rr.get_data_ns.end());
    put_data_ns.insert(put_data_ns.end(), rr.put_data_ns.begin(),
                       rr.put_data_ns.end());
  }
  std::uint64_t attempted = 0, failed = 0, ok_members = 0;
  for (const OpRec& op : ops) {
    attempted += op.members;
    (op.ok ? ok_members : failed) += op.members;
  }
  const std::vector<double> reads = latencies_us(ops, false);
  const std::vector<double> writes = latencies_us(ops, true);
  const double ops_per_s = static_cast<double>(ok_members) / window_s;
  correct = correct && failed == 0 && ops_per_s > kOpsFloor &&
            reads.size() >= kMinTailSamples && writes.size() >= kMinTailSamples;

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"ops_per_s", ops_per_s, "1/s", ok_members},
        {"read_p50_us", percentile(reads, 50), "us", reads.size()},
        {"read_p99_us", percentile(reads, 99), "us", reads.size()},
        {"write_p50_us", percentile(writes, 50), "us", writes.size()},
        {"write_p99_us", percentile(writes, 99), "us", writes.size()},
        {"setup_s", median(setups), "s", setups.size()},
    };
  } else {
    const CodecTimes ct = time_codec();
    const WireTimes wt = time_wire(*w);
    correct = correct && ct.ok && wt.ok && !idle_ns.empty() &&
              !get_tag_ns.empty() && !get_data_ns.empty() &&
              !put_data_ns.empty();
    const auto is_read = [](const OpRec& op) { return !op.is_write; };
    const auto is_write = [](const OpRec& op) { return op.is_write; };
    const auto rounds_of = [](const OpRec& op) { return op.cost.rounds; };
    const auto msgs_of = [](const OpRec& op) { return op.cost.messages; };
    const auto kib_of = [](const OpRec& op) { return op.cost.bytes / 1024.0; };
    metrics = {
        {"codec.encode_us", ct.encode_us, "us", 31},
        {"codec.decode_systematic_us", ct.decode_systematic_us, "us", 31},
        {"codec.decode_parity_us", ct.decode_parity_us, "us", 31},
        {"net.frames_per_op", static_cast<double>(frames) / ok_members,
         "frames/op", ok_members},
        {"net.retransmits", static_cast<double>(retransmits), "count",
         ok_members},
        {"net.frames_dropped", static_cast<double>(dropped), "count",
         ok_members},
        {"net.put_frame_encode_ns", wt.put_encode_ns, "ns", 51},
        {"net.put_frame_decode_ns", wt.put_decode_ns, "ns", 51},
        {"net.data_reply_encode_ns", wt.reply_encode_ns, "ns", 51},
        {"net.data_reply_decode_ns", wt.reply_decode_ns, "ns", 51},
        p50_us("dap.idle_round_p50_us", idle_ns),
        p50_us("dap.get_tag_p50_us", get_tag_ns),
        p50_us("dap.get_data_p50_us", get_data_ns),
        p50_us("dap.put_data_p50_us", put_data_ns),
        mean_cost(ops, is_read, "ares.read_rounds", "rounds/op", rounds_of),
        mean_cost(ops, is_write, "ares.write_rounds", "rounds/op", rounds_of),
        mean_cost(ops, is_write, "ares.write_elided_rounds", "rounds/op",
                  [](const OpRec& op) { return op.cost.elided_rounds; }),
        mean_cost(ops, [](const OpRec& op) { return op.is_batch; },
                  "ares.batch_rounds", "rounds/op", rounds_of),
        mean_cost(ops, is_read, "ares.read_msgs", "msgs/op", msgs_of),
        mean_cost(ops, is_write, "ares.write_msgs", "msgs/op", msgs_of),
        mean_cost(ops, is_read, "ares.read_kib", "KiB/op", kib_of),
        mean_cost(ops, is_write, "ares.write_kib", "KiB/op", kib_of),
        mean_cost(ops, is_read, "ares.lease_hit_ratio", "ratio",
                  [](const OpRec& op) { return op.cost.local() ? 1.0 : 0.0; }),
    };
  }

  std::fprintf(stderr, "%-28s %14s %-10s %9s\n", "metric", "value", "unit",
               "samples");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-28s %14.3f %-10s %9zu\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.n);
  }
  std::fprintf(stderr, "ops/s %.1f over %.2fs measured, attempted %llu, "
               "failed %llu, correct=%d\n",
               ops_per_s, window_s, static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), correct);
  print_result(correct, attempted, failed, ops_per_s, metrics);
  return correct ? 0 : 1;
}
