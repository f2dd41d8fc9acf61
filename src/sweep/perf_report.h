// Per-scenario report: the JSON schema behind `bench_sim_scenarios --json`
// and the committed bench/baselines/BENCH_sim_throughput.json baseline.
//
// Every number in a scenario entry is a row of sweep::metric_table(),
// under the row's name, in the block its kind names:
//
//   * `deterministic` — bit-stable per platform (calls, events, replans,
//     the LP work counters, every sweep metric). When this block differs,
//     the workload changed and timing deltas are not comparable.
//   * `wall_clock` — throughput (calls/sec, events/sec) and the phase
//     timings, engine and LP.
//
// Besides the rows, an entry carries the run's `checksum` and the
// controller's assignment and admission latency histograms, summarized by
// latency_json. A metric added to the table therefore appears here, in
// the sweep schema and in the baseline check at once.
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
// v2: the `throughput` and `phases_seconds` blocks became the `wall_clock`
// block of metric_table() rows, the `deterministic` block holds every
// deterministic row (lp_* anchors renamed to their replan_* rows),
// `checksum` moved to the entry's top level, and the `registry` block is
// gone.
inline constexpr int kPerfSchemaVersion = 2;

// {count, mean, p50, p90, p99, max} of a latency histogram: the summary
// every perf-schema report (this one and bench_assign_latency's) uses.
[[nodiscard]] Json latency_json(const obs::Histogram& h);

// One scenario entry of the "scenarios" array: {scenario, checksum,
// deterministic: {...}, wall_clock: {...}, assign_latency_us,
// admission_latency_us}.
[[nodiscard]] Json perf_scenario_json(const sim::SimResult& r);

// The full report: {"schema_version", "config": {...}, "scenarios": [...]}.
// `config` echoes the workload knobs the runs used (peak, weeks, threads,
// seed) so a baseline diff can refuse apples-to-oranges comparisons.
[[nodiscard]] Json perf_report_json(const std::vector<sim::SimResult>& results,
                                    double peak_slot_calls, int weeks, int threads,
                                    std::uint64_t seed);

// Human-readable, informational comparison of two perf reports (current vs
// baseline): per-scenario throughput ratios, latency-quantile movement,
// and a loud note naming the checksum and every deterministic row whose
// value differs, old and new (the workload changed; timing deltas are then
// expected). A row present on one side only is named as "not in baseline"
// / "not in current" — a report schema change, not a workload change.
// Tolerant of missing scenarios or fields — reports them instead of
// throwing.
[[nodiscard]] std::string perf_diff_text(const Json& baseline, const Json& current);

// Assignment-latency budget gate behind `bench_assign_latency --check`
// (docs/observability.md, "Assignment-latency budget"). `budget` is the
// committed bench/baselines/assign_latency_budget.json:
//
//   {"schema_version": 2,
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
