// The perf-report schema of `bench_assign_latency`: its open-loop latency
// report (`--out`) and the committed latency budget it is checked against
// (bench/baselines/assign_latency_budget.json). Closed-loop runs report
// through the sweep JSON (sweep/serialize.h).
#pragma once

#include <string>

#include "obs/metrics.h"
#include "sweep/json.h"

namespace titan::sweep {

// The report's `schema_version`, which the budget file must match. Bumped
// when the report layout changes shape (field renames/removals); additive
// fields do not bump it.
inline constexpr int kPerfSchemaVersion = 2;

// {count, mean, p50, p90, p99, max} of a latency histogram.
[[nodiscard]] Json latency_json(const obs::Histogram& h);

// Assignment-latency budget gate behind `bench_assign_latency --check`
// (docs/observability.md, "Assignment-latency budget"). `budget` is the
// committed bench/baselines/assign_latency_budget.json:
//
//   {"schema_version": 2,
//    "config": {"rate_per_sec": ..., "warmup_seconds": ...,
//               "measure_seconds": ..., "cooldown_seconds": ...},
//    "budget": {"p99_us": ..., "min_samples": ...}}
//
// and `report` is the harness's perf-report-schema output. The check is
// enforcing — CI fails on violation — so the failure modes are strict: a
// missing/NaN p99, fewer measured samples than `min_samples` (an empty
// window passes no budget vacuously), any config key pinned by the budget
// differing in the report (a p99 is only meaningful at its pinned offered
// load and window layout), or a schema-version mismatch all fail, they are
// not notes.
struct LatencyBudgetCheck {
  bool ok = false;
  std::string text;  // human-readable verdict, pass or fail
};
[[nodiscard]] LatencyBudgetCheck latency_budget_check(const Json& budget, const Json& report);

}  // namespace titan::sweep
