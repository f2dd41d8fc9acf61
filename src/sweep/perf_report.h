// Performance-trajectory report: the JSON schema behind
// `bench_sim_scenarios --perf-json` and the committed
// bench/baselines/BENCH_sim_throughput.json baseline.
//
// The report captures, per scenario, the run's throughput (calls/sec,
// events/sec over the wall clock), the controller's per-call
// assignment-latency distribution (p50/p90/p99/max from the
// obs::Histogram), the engine's phase-timing totals, and a small block of
// *deterministic* companions (calls, events, replans, simplex iterations,
// LU refactorizations) that anchor cross-machine comparisons: when the
// deterministic block differs, the workload changed and throughput deltas
// are not comparable.
//
// The diff against a committed baseline is informational by design — wall
// clock varies across machines and CI hosts — so perf_diff_text never
// influences an exit code; it exists to make the performance trajectory
// *visible* in every CI run, not to gate merges (docs/observability.md).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sweep/json.h"

namespace titan::sweep {

// Bumped when the report layout changes shape (field renames/removals);
// additive fields do not bump it.
inline constexpr int kPerfSchemaVersion = 1;

// One scenario entry of the "scenarios" array: throughput, latency
// quantiles, phase totals, and the deterministic anchors.
[[nodiscard]] Json perf_scenario_json(const sim::SimResult& r);

// The full report: {"schema_version", "config": {...}, "scenarios": [...]}.
// `config` echoes the workload knobs the runs used (peak, weeks, threads,
// seed) so a baseline diff can refuse apples-to-oranges comparisons.
[[nodiscard]] Json perf_report_json(const std::vector<sim::SimResult>& results,
                                    double peak_slot_calls, int weeks, int threads,
                                    std::uint64_t seed);

// Generic registry export: {"counters": {...}, "gauges": {...},
// "histograms": {name: {count, sum, mean, min, max, p50, p90, p99,
// buckets: [[lower, upper, count], ...nonzero only]}}}. Deterministic in
// the registry contents (maps iterate name-sorted).
[[nodiscard]] Json registry_json(const obs::Registry& registry);

// Human-readable, informational comparison of two perf reports (current vs
// baseline): per-scenario throughput ratios, latency-quantile movement,
// and a loud note naming every deterministic anchor whose value differs,
// old and new (the workload changed; timing deltas are then expected). An
// anchor present on one side only is named as "not in baseline" / "not in
// current" — a report schema change, not a workload change. Tolerant of
// missing scenarios or fields — reports them instead of throwing.
[[nodiscard]] std::string perf_diff_text(const Json& baseline, const Json& current);

// Assignment-latency budget gate behind `bench_assign_latency --check`
// (docs/observability.md, "Assignment-latency budget"). `budget` is the
// committed bench/baselines/assign_latency_budget.json:
//
//   {"schema_version": 1,
//    "config": {"rate_per_sec": ..., "warmup_seconds": ...,
//               "measure_seconds": ..., "cooldown_seconds": ...},
//    "budget": {"p99_us": ..., "min_samples": ...}}
//
// and `report` is the harness's perf-report-schema output. Unlike
// perf_diff_text this check IS enforcing — CI fails on violation — so the
// failure modes are strict: a missing/NaN p99, fewer measured samples than
// `min_samples` (an empty window passes no budget vacuously), any
// config key pinned by the budget differing in the report (a p99 is only
// meaningful at its pinned offered load and window layout), or a
// schema-version mismatch all fail, they are not notes.
struct LatencyBudgetCheck {
  bool ok = false;
  std::string text;  // human-readable verdict, pass or fail
};
[[nodiscard]] LatencyBudgetCheck latency_budget_check(const Json& budget, const Json& report);

}  // namespace titan::sweep
