// Seed x scenario sweep harness.
//
// A single (seed, scenario) simulation is one sample; the paper's
// evaluation (§8) reports *distributions* over weeks of traffic. The sweep
// layer turns the closed-loop engine into a distribution instrument: a
// `SweepRunner` fans every (scenario, seed) pair — optionally at several
// sim thread counts — across a worker pool, extracts a fixed schema of
// metrics from each `SimResult`, verifies the engine's determinism promise
// (bit-identical results across thread counts) on every task, and reduces
// each metric across seeds into mean / p50 / p95 / min / max / stddev.
//
// Determinism contract: every metric except the wall-clock entries of the
// metric table (timing_metric_indices()) is a pure function of the spec.
// Worker-pool size and task execution order never change a byte of those —
// records land in canonical (scenario, seed, threads) slots and
// aggregation runs after the pool drains — so a sweep JSON is comparable
// across machines and committable as a regression baseline (see
// sweep/baseline.h; the baseline check skips the timing metrics, and
// mask_timing_metrics puts two sweeps into fully byte-comparable form).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace titan::sweep {

// What to sweep and how to shrink the scenarios to sweepable cost. A value
// < 0 (or the scenario default) leaves the named scenario's own setting
// untouched, so the same struct drives both full-size benches and the tiny
// configurations tests use.
struct SweepSpec {
  std::vector<std::string> scenarios;  // empty = the whole named library
  std::uint64_t base_seed = 2024;
  int num_seeds = 8;                  // seeds base_seed .. base_seed + n - 1
  std::vector<int> sim_threads = {1};  // thread counts each sim runs at

  // Scenario overrides (applied to every scenario in the sweep).
  double peak_slot_calls = -1.0;
  int training_weeks = -1;
  int eval_days = -1;
  int replan_interval_slots = -1;
  int shards = -1;
  // Cap (not replacement) on the scenario's reduced-config budget: a
  // scenario whose own default is tighter keeps it.
  int max_reduced_configs = -1;
  bool oracle_counts = false;  // true: plan on ground truth, skip forecasts

  // Execution knobs — deliberately excluded from serialization: they must
  // not (and do not) affect the result.
  int workers = 0;                   // <= 0: one worker per hardware thread
  std::uint64_t task_order_seed = 0;  // != 0: shuffle task execution order

  bool operator==(const SweepSpec&) const = default;
};

// Baseline band of a deterministic metric: a comparison passes when
//   |current - baseline| <= max(rel * max(|current|, |baseline|), abs).
// On one platform the engine is bit-deterministic and every delta is zero;
// the band absorbs cross-compiler floating-point drift.
struct Band {
  double rel = 0.05;
  double abs = 1e-9;
};

// One per-run metric: its name, how it reads off a SimResult, and its kind.
// A deterministic row is a pure function of the spec and carries the band
// the baseline check grants it. A wall-clock row is machine-dependent:
// comparison surfaces (the determinism audits, byte-equality of
// differently-scheduled sweeps) mask it, and the baseline check skips it.
struct MetricDef {
  const char* name = "";
  double (*value)(const sim::SimResult&) = nullptr;
  Band band = {};  // deterministic rows only
  bool wall_clock = false;
};

// The metric table, in report order: the one list every surface derives
// from — the sweep schema, masking, baseline bands, and the per-scenario
// report of bench_sim_scenarios --json (sweep/perf_report.h).
[[nodiscard]] const std::vector<MetricDef>& metric_table();

// Views of metric_table(): the names, one value per name, and the indices
// of the wall-clock entries.
[[nodiscard]] const std::vector<std::string>& metric_names();
[[nodiscard]] std::vector<double> metric_values(const sim::SimResult& r);
[[nodiscard]] const std::vector<std::size_t>& timing_metric_indices();

// One completed simulation, reduced to the metric schema.
struct RunRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  int threads = 1;
  std::uint64_t checksum = 0;
  std::vector<double> values;  // parallel to metric_names()

  bool operator==(const RunRecord&) const = default;
};

// Distribution of one metric across seeds.
struct MetricStats {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;

  bool operator==(const MetricStats&) const = default;
};

// Requires a non-empty sample; the sweep never aggregates zero runs.
[[nodiscard]] MetricStats compute_stats(const std::vector<double>& samples);

struct ScenarioAggregate {
  std::string scenario;
  int seeds = 0;
  std::vector<MetricStats> stats;  // parallel to metric_names()

  bool operator==(const ScenarioAggregate&) const = default;
};

struct SweepResult {
  SweepSpec spec;
  // Sorted canonically: spec scenario order, then seed, then thread count.
  std::vector<RunRecord> runs;
  // One entry per scenario, in spec order. Aggregated across seeds from the
  // first sim_threads entry's runs (the rest are determinism replicas).
  std::vector<ScenarioAggregate> aggregates;
  // Human-readable descriptions of any (scenario, seed) whose results were
  // NOT bit-identical across sim thread counts. Always empty unless the
  // engine's core guarantee broke.
  std::vector<std::string> determinism_violations;

  // Wall seconds each (scenario, seed) task took (engine construction plus
  // every thread-count variant), in canonical task order: scenario-major,
  // seed-minor. Observability only — deliberately NOT part of the sweep
  // JSON schema (kSweepSchemaVersion, sweep/serialize.h), zeroed by
  // mask_timing_metrics alongside the timing metrics, and excluded from
  // operator== so the lossless round-trip contract
  // parse(serialize(x)) == x holds.
  std::vector<double> task_seconds;

  bool operator==(const SweepResult& other) const {
    return spec == other.spec && runs == other.runs && aggregates == other.aggregates &&
           determinism_violations == other.determinism_violations;
  }
};

// Zeroes the timing metrics of every run record and aggregate in place,
// putting two differently-scheduled sweeps into byte-comparable form.
void mask_timing_metrics(SweepResult& result);

class SweepRunner {
 public:
  // Resolves and validates the spec up front: an empty scenario list
  // becomes the whole named library; unknown scenario names, a
  // non-positive seed count, or a bad sim_threads list throw
  // std::invalid_argument before any simulation starts.
  explicit SweepRunner(SweepSpec spec);

  [[nodiscard]] const SweepSpec& spec() const { return spec_; }

  // Runs the whole sweep: one task per (scenario, seed) on a pool of
  // `workers` threads, each record written into its canonical slot, then
  // one aggregation after the pool drains. Blocking; thread-safe against
  // nothing (use one runner per sweep). The result is identical for any
  // `workers` and any `task_order_seed`; the first task exception is
  // rethrown.
  [[nodiscard]] SweepResult run() const;

 private:
  SweepSpec spec_;
};

// The scenario with the spec's overrides and seed applied — exposed so
// benches/tests can reproduce exactly what the sweep simulated.
[[nodiscard]] sim::Scenario sweep_scenario(const SweepSpec& spec, const std::string& name,
                                           std::uint64_t seed);

}  // namespace titan::sweep
