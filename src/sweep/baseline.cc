#include "sweep/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sweep/serialize.h"

namespace titan::sweep {

std::string Regression::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s/%s %s: baseline %.6g, current %.6g (allowed +/- %.3g)",
                scenario.c_str(), metric.c_str(), stat.c_str(), baseline, current, allowed);
  return buf;
}

std::vector<Regression> compare_to_baseline(const SweepResult& current,
                                            const SweepResult& baseline) {
  if (!(current.spec == baseline.spec))
    throw std::invalid_argument(
        "sweep/baseline spec mismatch: the baseline was generated with different sweep "
        "parameters; regenerate it instead of comparing");

  const auto& table = metric_table();
  std::vector<Regression> regressions;
  for (std::size_t sc = 0; sc < current.spec.scenarios.size(); ++sc) {
    const std::vector<MetricStats> cur = scenario_stats(current, sc);
    const std::vector<MetricStats> base = scenario_stats(baseline, sc);
    for (std::size_t m = 0; m < table.size(); ++m) {
      if (table[m].wall_clock) continue;
      const Band& band = table[m].band;
      const auto check = [&](const char* stat, double cur_v, double base_v) {
        const double allowed =
            std::max(band.rel * std::max(std::fabs(cur_v), std::fabs(base_v)), band.abs);
        if (std::fabs(cur_v - base_v) <= allowed) return;
        Regression r;
        r.scenario = current.spec.scenarios[sc];
        r.metric = table[m].name;
        r.stat = stat;
        r.baseline = base_v;
        r.current = cur_v;
        r.allowed = allowed;
        regressions.push_back(std::move(r));
      };
      check("mean", cur[m].mean, base[m].mean);
      check("p95", cur[m].p95, base[m].p95);
    }
  }
  return regressions;
}

SweepResult read_baseline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json_text(buf.str());
}

int check_against_baseline(const SweepResult& current, const SweepResult& baseline,
                           const std::string& path) {
  std::vector<Regression> regressions;
  try {
    regressions = compare_to_baseline(current, baseline);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s (%s)\n", e.what(), path.c_str());
    return 2;
  }
  if (!regressions.empty()) {
    std::fprintf(stderr, "\n%zu metric regression(s) vs %s:\n", regressions.size(),
                 path.c_str());
    for (const auto& r : regressions) std::fprintf(stderr, "  %s\n", r.describe().c_str());
    std::fprintf(stderr,
                 "If the change is intentional, refresh the baseline (see README, "
                 "\"Sweep workflow\").\n");
    return 1;
  }
  std::printf("\nbaseline check PASSED against %s\n", path.c_str());
  return 0;
}

}  // namespace titan::sweep
