// Seed x scenario sweep with distribution stats and baseline regression
// checking.
//
// One (seed, scenario) simulation is a single sample; this bench sweeps
// every requested scenario across --seeds consecutive seeds (in parallel
// across --workers), reduces each SimResult metric to mean / p50 / p95 /
// min / max / stddev across seeds, and reports the distributions — the
// regression-grade comparison surface the paper's week-scale evaluation
// implies. Modes:
//
//   generate:  bench_sim_sweep --seeds 8 --out sweep.json
//   refresh:   bench_sim_sweep --seeds 5 --weeks 1 --peak 200
//                --out bench/baselines/sweep_baseline.json
//   check:     bench_sim_sweep --seeds 5 --weeks 1 --peak 200
//                --baseline bench/baselines/sweep_baseline.json --check
//
// --check re-runs the sweep with the baseline's spec expected to match the
// CLI-derived spec, diffs each scenario's mean and p95 across seeds within
// each metric row's band, and exits 1 on any regression (2 on an
// incomparable baseline; sweep::check_against_baseline, shared with
// bench_sim_scenarios).
// Determinism is audited on every run: each (seed, scenario) simulates at
// every --sim-threads count and any divergence fails the run.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench/common.h"
#include "core/table.h"
#include "sweep/baseline.h"
#include "sweep/serialize.h"
#include "sweep/sweep.h"

namespace {

using namespace titan;

void print_stats(const sweep::SweepResult& result) {
  // One table per scenario: every metric's distribution across seeds.
  const auto& names = sweep::metric_names();
  for (std::size_t sc = 0; sc < result.spec.scenarios.size(); ++sc) {
    std::printf("\n-- %s (%d seeds)\n", result.spec.scenarios[sc].c_str(),
                result.spec.num_seeds);
    core::TextTable t({"metric", "mean", "p50", "p95", "min", "max", "stddev"});
    const std::vector<sweep::MetricStats> stats = sweep::scenario_stats(result, sc);
    for (std::size_t m = 0; m < names.size(); ++m) {
      const auto& s = stats[m];
      t.add_row({names[m], core::TextTable::num(s.mean, 3), core::TextTable::num(s.p50, 3),
                 core::TextTable::num(s.p95, 3), core::TextTable::num(s.min, 3),
                 core::TextTable::num(s.max, 3), core::TextTable::num(s.stddev, 3)});
    }
    std::printf("%s", t.render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli = bench::parse_cli(argc, argv, sim::scenario_names());
  bench::print_header("Seed x scenario sweep: metric distributions + regression check",
                      "§8 evaluated as distributions, not single runs");

  sweep::SweepSpec spec;
  // No --scenario (or "all") sweeps the whole library.
  if (!cli.scenario.empty() && cli.scenario != "all")
    spec.scenarios = bench::split_csv(cli.scenario);
  spec.base_seed = cli.seed;
  spec.num_seeds = cli.seeds;
  if (!cli.sim_threads.empty()) {
    spec.sim_threads.clear();
    for (const auto& token : bench::split_csv(cli.sim_threads))
      spec.sim_threads.push_back(std::atoi(token.c_str()));
  } else {
    // The shared --threads flag means "sim worker threads" everywhere
    // else; honor it here as the single per-sim thread count.
    spec.sim_threads = {std::max(1, cli.threads)};
  }
  spec.peak_slot_calls = cli.peak_or(200.0);
  spec.training_weeks = cli.training_weeks();
  spec.workers = cli.workers;
  // Distribution sweeps trade single-run LP fidelity for seed coverage:
  // a reduced LP keeps the full forecast -> plan -> controller loop while
  // making seeds x scenarios x replans tractable in CI. The value is part
  // of the spec, so a baseline pins it.
  spec.max_reduced_configs = 30;

  try {
    const sweep::SweepRunner runner(spec);

    // Read the baseline before burning minutes of sweeping: an unreadable
    // or malformed file is a CLI error, not something a simulation can
    // fix. (Spec comparison happens after the run, on the result.)
    const sweep::SweepResult baseline =
        cli.check ? sweep::read_baseline(cli.baseline_path) : sweep::SweepResult{};
    const sweep::SweepSpec& resolved = runner.spec();
    std::string sim_threads;
    for (const int t : resolved.sim_threads) {
      if (!sim_threads.empty()) sim_threads += ',';
      sim_threads += std::to_string(t);
    }
    std::printf("\nsweeping %zu scenarios x %d seeds (base seed %llu), "
                "sim threads {%s}, peak %.0f, %d training week(s)\n",
                resolved.scenarios.size(), resolved.num_seeds,
                static_cast<unsigned long long>(resolved.base_seed), sim_threads.c_str(),
                resolved.peak_slot_calls, resolved.training_weeks);

    const sweep::SweepResult result = runner.run();
    print_stats(result);

    // Per-task wall time (canonical order: scenario-major, seed-minor) —
    // the sweep's share of the observability surface. Reporting only;
    // never serialized into the sweep JSON.
    if (!result.task_seconds.empty()) {
      double total = 0.0, slowest = 0.0;
      for (const double s : result.task_seconds) {
        total += s;
        slowest = std::max(slowest, s);
      }
      std::printf("\ntask timing: %zu tasks, %.2f s total, %.2f s mean, %.2f s slowest\n",
                  result.task_seconds.size(),
                  total, total / static_cast<double>(result.task_seconds.size()), slowest);
    }

    // Write the JSON before any failure exit: on a red run it is exactly
    // the artifact that diagnoses the failure (CI uploads it regardless).
    if (!cli.out_path.empty()) {
      std::ofstream out(cli.out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", cli.out_path.c_str());
        return 1;
      }
      out << sweep::to_json_text(result);
      std::printf("\nwrote %s\n", cli.out_path.c_str());
    }

    if (!result.determinism_violations.empty()) {
      std::fprintf(stderr, "\nDETERMINISM VIOLATIONS (engine bug):\n");
      for (const auto& v : result.determinism_violations)
        std::fprintf(stderr, "  %s\n", v.c_str());
      return 1;
    }

    // Leaked calls mean corrupted usage streams (same contract as
    // bench_sim_scenarios): fail before a leak can be compared — or worse,
    // baked into a refreshed baseline and green-lit by --check forever.
    const auto& names = sweep::metric_names();
    const std::size_t leaked_index = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "leaked_calls") - names.begin());
    for (const auto& run : result.runs) {
      if (run.values[leaked_index] != 0.0) {
        std::fprintf(stderr, "\nLEAKED CALLS: %s seed %llu leaked %.0f calls (engine bug)\n",
                     run.scenario.c_str(), static_cast<unsigned long long>(run.seed),
                     run.values[leaked_index]);
        return 1;
      }
    }

    if (cli.check) return sweep::check_against_baseline(result, baseline, cli.baseline_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
