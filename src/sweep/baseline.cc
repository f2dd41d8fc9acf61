#include "sweep/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace titan::sweep {

double Tolerances::rel_for(const std::string& metric) const {
  const auto it = rel.find(metric);
  return it != rel.end() ? it->second : default_rel;
}

double Tolerances::abs_for(const std::string& metric) const {
  const auto it = abs.find(metric);
  return it != abs.end() ? it->second : default_abs;
}

Tolerances default_tolerances() {
  Tolerances tol;
  tol.default_rel = 0.05;
  // Any leaked call is an engine bug; no slack of either kind.
  tol.rel["leaked_calls"] = 0.0;
  tol.abs["leaked_calls"] = 0.0;
  // Event counters with small per-seed populations: a couple of events of
  // absolute slack so cross-platform floating-point drift in the decisions
  // feeding them cannot flip a near-zero mean into an "infinite" relative
  // regression.
  for (const char* metric :
       {"dc_migrations", "route_changes", "forced_migrations", "transit_failovers",
        "out_of_plan", "fallback_assignments"})
    tol.abs[metric] = 2.0;
  // Wall-clock metrics: machine-dependent by nature, carried for
  // observability only — never a regression gate. (A huge finite relative
  // band, not infinity: inf * 0 is NaN and would poison the allowed-slack
  // arithmetic when both sides are zero.)
  for (const MetricDef& m : metric_table())
    if (m.wall_clock) tol.rel[m.name] = tol.abs[m.name] = 1e18;
  // Simplex pivot counts are deterministic per platform but sensitive to
  // floating-point library differences across compilers; give them a loose
  // relative band instead of the default 5%.
  tol.rel["replan_iterations"] = 0.25;
  tol.rel["replan_phase1_iterations"] = 0.25;
  tol.abs["warm_replans"] = 2.0;
  // Admission outcomes: the shed coin is a pure per-call hash, but the
  // load ratio feeding it is a float merge, so threshold-adjacent calls
  // can flip across compilers. The counts are large where nonzero (5%
  // relative covers them); the compound-catastrophe shed fractions sit
  // near zero, so mirror the small-population absolute slack above.
  tol.abs["rejected_calls"] = 5.0;
  tol.abs["degraded_calls"] = 5.0;
  for (const char* metric : {"shed_fraction_na", "shed_fraction_eu", "shed_fraction_asia"})
    tol.abs[metric] = 0.01;
  return tol;
}

std::string Regression::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s/%s %s: baseline %.6g, current %.6g (allowed +/- %.3g)",
                scenario.c_str(), metric.c_str(), stat.c_str(), baseline, current, allowed);
  return buf;
}

std::vector<Regression> compare_to_baseline(const SweepResult& current,
                                            const SweepResult& baseline,
                                            const Tolerances& tol) {
  if (!(current.spec == baseline.spec))
    throw std::invalid_argument(
        "sweep/baseline spec mismatch: the baseline was generated with different sweep "
        "parameters; regenerate it instead of comparing");
  if (current.aggregates.size() != baseline.aggregates.size())
    throw std::invalid_argument("sweep/baseline scenario count mismatch");

  const auto& names = metric_names();
  std::vector<Regression> regressions;
  for (std::size_t sc = 0; sc < current.aggregates.size(); ++sc) {
    const ScenarioAggregate& cur = current.aggregates[sc];
    const ScenarioAggregate& base = baseline.aggregates[sc];
    if (cur.scenario != base.scenario)
      throw std::invalid_argument("sweep/baseline scenario order mismatch: " + cur.scenario +
                                  " vs " + base.scenario);
    if (cur.stats.size() != names.size() || base.stats.size() != names.size())
      throw std::invalid_argument("sweep/baseline metric count mismatch");

    for (std::size_t m = 0; m < names.size(); ++m) {
      const auto check = [&](const char* stat, double cur_v, double base_v) {
        const double allowed =
            std::max(tol.rel_for(names[m]) * std::max(std::fabs(cur_v), std::fabs(base_v)),
                     tol.abs_for(names[m]));
        if (std::fabs(cur_v - base_v) <= allowed) return;
        Regression r;
        r.scenario = cur.scenario;
        r.metric = names[m];
        r.stat = stat;
        r.baseline = base_v;
        r.current = cur_v;
        r.allowed = allowed;
        regressions.push_back(std::move(r));
      };
      check("mean", cur.stats[m].mean, base.stats[m].mean);
      check("p95", cur.stats[m].p95, base.stats[m].p95);
    }
  }
  return regressions;
}

}  // namespace titan::sweep
