// The bench_ares scenario contract: a scenario runs to completion and
// returns its BENCH_<name>.json document together with its gate — whether
// every condition it asserts (atomicity, a paper closed form, a measured
// win) held. Each failed condition prints one line saying which.
#pragma once

#include "harness/json.hpp"

#include <cstdio>
#include <string>

namespace ares::bench {

struct Outcome {
  harness::Json json;
  bool pass = true;

  /// Folds one gate condition into `pass`; a failed one prints `what`.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::printf("  gate failed: %s\n", what.c_str());
    pass = false;
  }
};

// AresCluster workloads (scenarios_workload.cpp).
Outcome batch();
Outcome fastpath();
Outcome leases();
Outcome writes();

// Paper figures asserted against their closed forms (scenarios_paper.cpp).
Outcome paper_costs();
Outcome delta();
Outcome latency_bounds();
Outcome reconfig_chain();
Outcome rw_under_reconfig();
Outcome state_transfer();
Outcome ablation();

// Durable storage, placement, chaos over TCP, and the Reed-Solomon
// kernel's wall-clock cost (one file each).
Outcome memory();
Outcome placement();
Outcome net_chaos();
Outcome codec();

}  // namespace ares::bench
