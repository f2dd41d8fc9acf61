// Walkthrough: judging a controller change against distributions, not a
// single run.
//
// A single (seed, scenario) simulation is one sample from a distribution;
// the paper's evaluation reports weeks of traffic. This example sweeps two
// disturbance scenarios across several seeds with the sweep harness, prints
// the per-metric distributions, and shows the regression verdict machinery
// `bench_sim_sweep --check` applies to the committed baseline.
#include <cstdio>

#include "sweep/baseline.h"
#include "sweep/serialize.h"
#include "sweep/sweep.h"

int main() {
  using namespace titan;

  std::printf("== Seed x scenario sweep: distributions over seeds ==\n\n");

  sweep::SweepSpec spec;
  // Both scenarios disturb day 1 (Tuesday), inside the shrunk two-day
  // window below — a walkthrough window that truncated the disturbance
  // away would just re-measure steady-week twice.
  spec.scenarios = {"flash-crowd", "transit-degrade-failover"};
  spec.num_seeds = 4;
  spec.sim_threads = {1, 2};  // every run is also a determinism audit
  // Shrink to walkthrough cost; bench_sim_sweep runs paper-shaped volume.
  spec.peak_slot_calls = 40.0;
  spec.training_weeks = 1;
  spec.eval_days = 2;
  spec.replan_interval_slots = 12;
  spec.shards = 8;
  spec.max_reduced_configs = 20;
  spec.oracle_counts = true;

  const sweep::SweepRunner runner(spec);
  const sweep::SweepResult result = runner.run();

  std::printf("%zu runs (%zu scenarios x %d seeds x %zu thread counts), "
              "determinism violations: %zu\n",
              result.runs.size(), spec.scenarios.size(), spec.num_seeds,
              spec.sim_threads.size(), result.determinism_violations.size());

  const auto& names = sweep::metric_names();
  for (std::size_t sc = 0; sc < spec.scenarios.size(); ++sc) {
    std::printf("\n-- %s, across %d seeds\n", spec.scenarios[sc].c_str(), spec.num_seeds);
    std::printf("   %-22s %10s %10s %10s %10s\n", "metric", "mean", "p50", "p95", "stddev");
    const std::vector<sweep::MetricStats> stats = sweep::scenario_stats(result, sc);
    for (std::size_t m = 0; m < names.size(); ++m) {
      const auto& s = stats[m];
      std::printf("   %-22s %10.3f %10.3f %10.3f %10.3f\n", names[m].c_str(), s.mean,
                  s.p50, s.p95, s.stddev);
    }
  }

  // The regression check: a sweep against itself is green; nudge one
  // metric past its row's band and the diff names the exact regression.
  std::printf("\nself-check regressions: %zu\n",
              sweep::compare_to_baseline(result, result).size());

  sweep::SweepResult drifted = result;
  for (std::size_t m = 0; m < names.size(); ++m)
    if (names[m] == "internet_share")
      for (std::size_t r = 0; r < result.runs.size() / spec.scenarios.size(); ++r)
        drifted.runs[r].values[m] *= 1.25;  // every run of the first scenario
  std::printf("after +25%% internet_share drift:\n");
  for (const auto& r : sweep::compare_to_baseline(drifted, result))
    std::printf("  REGRESSION %s\n", r.describe().c_str());

  // The sweep JSON is what bench_sim_sweep commits as a baseline.
  std::printf("\nserialized sweep: %zu bytes of JSON (spec + run records)\n",
              sweep::to_json_text(result).size());
  return 0;
}
