// Codec micro-bench: Reed-Solomon [5, 3] as TREAS stores it, on 4 KiB and
// 32 KiB values (perfbench's treas_ec writes 32 KiB). Times a full encode,
// a decode from the three systematic fragments (a copy) and one from
// fragments {2, 3, 4} (two parity rows to invert). Each figure is the
// median of 201 wall-clock runs, reported in us and MB/s; being wall-clock,
// the point is host-dependent and stays out of the pinned sim diff.
//
// Gate: every decode returns the encoded value, and the 32 KiB encode
// median is at most 150 us. On a 4-vCPU x86 host (RelWithDebInfo) per-byte
// log/exp field arithmetic takes ~570 us there and the product-table kernel
// ~16 us, so the gate catches a fall back to the former with room to spare.
#include "scenario.hpp"

#include "codec/codec.hpp"
#include "common/types.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace ares::bench {
namespace {

constexpr int kRuns = 201;
constexpr double kEncodeGateUs = 150;

template <typename Op>
double median_us(const Op& op) {
  std::vector<double> us(kRuns);
  for (double& u : us) {
    const auto start = std::chrono::steady_clock::now();
    op();
    u = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
  std::nth_element(us.begin(), us.begin() + kRuns / 2, us.end());
  return us[kRuns / 2];
}

}  // namespace

Outcome codec() {
  Outcome out;
  const codec::ReedSolomonCodec rs(5, 3);
  harness::Json rows = harness::Json::array();
  for (const std::size_t bytes : {std::size_t{4096}, std::size_t{32768}}) {
    const Value v = make_test_value(bytes, bytes);
    const auto frags = rs.encode(v);
    const std::vector<codec::Fragment> systematic(frags.begin(),
                                                  frags.begin() + 3);
    const std::vector<codec::Fragment> parity(frags.begin() + 2, frags.end());
    out.check(rs.decode(systematic) == v && rs.decode(parity) == v,
              "RS[5,3] round trip of " + std::to_string(bytes) + " B");

    harness::Json row;
    row.set("bytes", bytes);
    const auto time = [&](const std::string& name, const auto& op) {
      const double us = median_us(op);
      row.set(name + "_us", us);
      row.set(name + "_mb_per_s", static_cast<double>(bytes) / us);
      return us;
    };
    const double encode_us = time("encode", [&] { (void)rs.encode(v); });
    time("decode_systematic", [&] { (void)rs.decode(systematic); });
    time("decode_parity", [&] { (void)rs.decode(parity); });
    if (bytes == 32768) {
      out.check(encode_us <= kEncodeGateUs,
                "32 KiB encode median " + std::to_string(encode_us) +
                    " us > " + std::to_string(kEncodeGateUs) + " us");
    }
    rows.push(std::move(row));
  }
  out.json.set("code", "RS[5,3]")
      .set("runs_per_median", kRuns)
      .set("encode_gate_us", kEncodeGateUs)
      .set("sizes", std::move(rows));
  return out;
}

}  // namespace ares::bench
