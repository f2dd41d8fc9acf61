// SweepResult <-> JSON.
//
// The sweep JSON is the contract between the sim benches (`bench_sim_sweep`
// and `bench_sim_scenarios`' one-seed scenario report), the committed
// baselines under bench/baselines/, and CI artifacts, so the mapping is
// versioned (`schema`) and loss-free: serialize -> parse -> re-serialize is
// byte-identical (doubles go through %.17g, checksums through fixed-width
// hex, seeds — full uint64 values a JSON double would corrupt past 2^53 —
// through decimal strings, object keys keep insertion order). Execution
// knobs (worker count, task shuffle seed) are intentionally NOT part of the
// document — two sweeps that differ only in how they were scheduled
// serialize to the same bytes. The reader ignores unknown keys, so additive
// fields never break an older baseline.
#pragma once

#include <string>

#include "sweep/json.h"
#include "sweep/sweep.h"

namespace titan::sweep {

// v2: per-region metric slices (calls_na/eu/asia, wan_gb_na/eu/asia) joined
// the metric schema when PlanScope grew multi-region support; v1 baselines
// must be regenerated, not compared.
// v3: replan-latency metrics of the warm-start loop (replan_iterations,
// replan_phase1_iterations, warm_replans) plus the LP solve wall time
// `Solution::solve_seconds` always measured but the sweep never surfaced. Earlier baselines must be regenerated, not compared.
// v4: LP scale-out counters (dual-simplex pivots, replan_blocks_solved,
// pruned candidate columns) from the dual-simplex warm path and the
// region-block decomposition. Earlier baselines must be regenerated, not
// compared.
// v5: overload-regime metrics (rejected_calls, degraded_calls,
// shed_fraction_na/eu/asia) from admission control, plus the three overload
// scenarios joining the scenario library. Earlier baselines must be
// regenerated, not compared.
// v6: the dual-simplex pivot and pruned-column counters dropped with the
// dual-simplex warm path and candidate-column pruning they counted.
// Earlier baselines must be regenerated, not compared.
// v7: every number the scenario report printed outside the table became a
// row — deterministic events, eval_slots, replan_refactorizations and
// replan_fallback_pivots; wall-clock wall_seconds, calls_per_sec,
// events_per_sec, forecast_seconds, replan_seconds, event_apply_seconds,
// metric_aggregation_seconds, shard_work_seconds, lp_build_seconds,
// lp_phase1_seconds, lp_phase2_seconds and lp_refactor_seconds. Earlier
// baselines must be regenerated, not compared.
// v8: the controller's latency summaries became wall-clock rows
// (assign_p50_us, assign_p99_us, admission_p50_us, admission_p99_us), and
// bench_sim_scenarios' scenario report became a one-seed sweep document,
// replacing its own report schema. Earlier baselines must be regenerated,
// not compared.
// v9: the run records became the whole document: the stored per-scenario
// aggregates were dropped, since scenario_stats derives them when read,
// and the reader rejects runs outside their canonical slots. The dual-phase
// rows were renamed (replan_phase1_iterations -> replan_dual_pivots,
// lp_phase1_seconds -> lp_dual_seconds), and the wall-clock
// lp_fallback_seconds row joined. Earlier baselines must be regenerated,
// not compared.
inline constexpr int kSweepSchemaVersion = 9;

// Checksums travel as 16-digit lowercase hex strings.
[[nodiscard]] std::string hex64(std::uint64_t v);

[[nodiscard]] Json to_json(const SweepResult& result);
[[nodiscard]] std::string to_json_text(const SweepResult& result);

// Throws std::invalid_argument on malformed documents, unknown schema
// versions, metric schemas that do not match this binary's, or runs that
// do not fill exactly the spec's canonical slots.
[[nodiscard]] SweepResult from_json(const Json& doc);
[[nodiscard]] SweepResult from_json_text(const std::string& text);

}  // namespace titan::sweep
