// The one bench driver: runs the named scenarios (all of them when none
// are named), writes each one's BENCH_<name>.json to the working
// directory, prints one PASS/FAIL line per scenario, and exits non-zero if
// any gate failed.
#include "scenario.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace ares;

struct Scenario {
  const char* name;
  bench::Outcome (*fn)();
};

constexpr Scenario kScenarios[] = {
    {"batch", bench::batch},
    {"fastpath", bench::fastpath},
    {"leases", bench::leases},
    {"writes", bench::writes},
    {"memory", bench::memory},
    {"placement", bench::placement},
    {"paper_costs", bench::paper_costs},
    {"delta", bench::delta},
    {"latency_bounds", bench::latency_bounds},
    {"reconfig_chain", bench::reconfig_chain},
    {"rw_under_reconfig", bench::rw_under_reconfig},
    {"state_transfer", bench::state_transfer},
    {"ablation", bench::ablation},
    {"net_chaos", bench::net_chaos},
    {"codec", bench::codec},
};

const Scenario* find(const std::string& name) {
  for (const Scenario& s : kScenarios) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Scenario*> selected;
  for (int i = 1; i < argc; ++i) {
    const Scenario* s = find(argv[i]);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s'; usage: %s [scenario...]\n",
                   argv[i], argv[0]);
      for (const Scenario& known : kScenarios) {
        std::fprintf(stderr, "  %s\n", known.name);
      }
      return 2;
    }
    selected.push_back(s);
  }
  if (selected.empty()) {
    for (const Scenario& s : kScenarios) selected.push_back(&s);
  }

  bool all_pass = true;
  for (const Scenario* s : selected) {
    bench::Outcome out = s->fn();
    out.json.set("pass", out.pass);
    const bool written = harness::write_json_file(
        std::string("BENCH_") + s->name + ".json", out.json);
    std::printf("%s %s\n", out.pass ? "PASS" : "FAIL", s->name);
    all_pass = all_pass && out.pass && written;
  }
  return all_pass ? 0 : 1;
}
