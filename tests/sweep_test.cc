// Tests for the seed x scenario sweep harness: the determinism property
// (bit-identical SimResults across thread counts for every named scenario,
// and sweep output invariant under task-order shuffling and worker count),
// distribution statistics, lossless JSON round-trips of per-run and
// aggregate results, baseline regression comparison (passing on self,
// failing on perturbation beyond a row's band), the one-seed scenario
// report of bench_sim_scenarios, and the assignment-latency budget gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sweep/baseline.h"
#include "sweep/json.h"
#include "sweep/perf_report.h"
#include "sweep/serialize.h"
#include "sweep/sweep.h"

namespace titan::sweep {
namespace {

// Sweep-wide overrides that shrink every scenario to ctest cost while still
// replanning several times (mirrors sim_test's golden configuration).
SweepSpec small_spec() {
  SweepSpec spec;
  spec.num_seeds = 2;
  spec.peak_slot_calls = 25.0;
  spec.training_weeks = 1;
  spec.shards = 8;
  spec.replan_interval_slots = 12;
  spec.max_reduced_configs = 20;
  spec.oracle_counts = true;  // skip Holt-Winters: cheap and platform-stable
  return spec;
}

// --- stats ---------------------------------------------------------------

TEST(SweepStatsTest, ComputeStatsMatchesHandValues) {
  const auto s = compute_stats({4.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);       // type-7 interpolation
  EXPECT_DOUBLE_EQ(s.p95, 3.85);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_THROW((void)compute_stats({}), std::invalid_argument);
}

TEST(SweepStatsTest, MetricSchemaIsConsistent) {
  sim::SimResult r;
  r.calls = 10;
  r.dc_migrations = 2;
  const auto values = metric_values(r);
  ASSERT_EQ(values.size(), metric_names().size());
  // Spot-check the name -> value pairing for the rate metrics.
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (metric_names()[i] == "migration_rate") {
      EXPECT_DOUBLE_EQ(values[i], 0.2);
    }
    if (metric_names()[i] == "calls") {
      EXPECT_DOUBLE_EQ(values[i], 10.0);
    }
  }
}

// --- spec validation -----------------------------------------------------

TEST(SweepRunnerTest, RejectsBadSpecsUpFront) {
  {
    SweepSpec spec = small_spec();
    spec.scenarios = {"no-such-scenario"};
    EXPECT_THROW(SweepRunner runner(spec), std::invalid_argument);
  }
  {
    SweepSpec spec = small_spec();
    spec.num_seeds = 0;
    EXPECT_THROW(SweepRunner runner(spec), std::invalid_argument);
  }
  {
    SweepSpec spec = small_spec();
    spec.sim_threads = {};
    EXPECT_THROW(SweepRunner runner(spec), std::invalid_argument);
  }
  {
    SweepSpec spec = small_spec();
    spec.sim_threads = {1, 0};
    EXPECT_THROW(SweepRunner runner(spec), std::invalid_argument);
  }
}

TEST(SweepRunnerTest, EmptyScenarioListResolvesToWholeLibrary) {
  const SweepRunner runner(small_spec());
  EXPECT_EQ(runner.spec().scenarios, sim::scenario_names());
}

// --- the determinism property, engine level ------------------------------

// For every named scenario, the full SimResult — counters, WAN usage, and
// every per-slot stream — is bit-identical at 1, 2, and 8 worker threads.
// Stronger than the golden-checksum test: the checksum only fingerprints
// assignment decisions; this compares everything the engine reports.
TEST(SweepDeterminismTest, SimResultBitIdenticalAcrossThreadCountsForEveryScenario) {
  const SweepSpec spec = small_spec();
  for (const auto& name : sim::scenario_names()) {
    sim::SimEngine engine(sweep_scenario(spec, name, spec.base_seed));
    sim::SimResult r1 = engine.run(1);
    sim::SimResult r2 = engine.run(2);
    sim::SimResult r8 = engine.run(8);
    ASSERT_GT(r1.calls, 0) << name;
    for (sim::SimResult* r : {&r1, &r2, &r8}) {
      // Mask the only legitimately varying fields before the bitwise compare.
      r->zero_wallclock();
    }
    EXPECT_TRUE(r1 == r2) << name << ": threads 1 vs 2 diverged";
    EXPECT_TRUE(r1 == r8) << name << ": threads 1 vs 8 diverged";
  }
}

// --- the determinism property, sweep level -------------------------------

// One sweep over the whole library at sim_threads {1, 2, 8}: the runner's
// internal audit must find no divergence, and the thread-count replicas of
// each (scenario, seed) must carry identical metrics and checksums —
// identical up to the schema's declared timing metrics, which are wall
// clock and masked before the compare.
TEST(SweepDeterminismTest, SweepAuditsThreadInvarianceForEveryScenario) {
  SweepSpec spec = small_spec();
  spec.num_seeds = 1;
  spec.sim_threads = {1, 2, 8};
  SweepResult result = SweepRunner(spec).run();

  EXPECT_TRUE(result.determinism_violations.empty());
  ASSERT_EQ(result.runs.size(), sim::scenario_names().size() * 3);
  mask_timing_metrics(result);
  for (std::size_t i = 0; i < result.runs.size(); i += 3) {
    for (std::size_t v = 1; v < 3; ++v) {
      EXPECT_EQ(result.runs[i].checksum, result.runs[i + v].checksum)
          << result.runs[i].scenario;
      EXPECT_EQ(result.runs[i].values, result.runs[i + v].values) << result.runs[i].scenario;
    }
  }
}

// The timing mask is surgical: every row that is not wall clock is already
// bit-identical across two thread-count replicas, unmasked, and every
// wall-clock row is among the masked indices.
TEST(SweepDeterminismTest, OnlyDeclaredTimingMetricsAreNondeterministic) {
  const auto& table = metric_table();
  const auto& timing = timing_metric_indices();
  for (std::size_t m = 0; m < table.size(); ++m)
    EXPECT_EQ(table[m].wall_clock, std::find(timing.begin(), timing.end(), m) != timing.end())
        << table[m].name;

  SweepSpec spec = small_spec();
  spec.num_seeds = 1;
  spec.scenarios = {"steady-week"};
  spec.sim_threads = {1, 2};
  const SweepResult result = SweepRunner(spec).run();
  ASSERT_EQ(result.runs.size(), 2u);
  for (std::size_t m = 0; m < table.size(); ++m) {
    if (table[m].wall_clock) continue;
    EXPECT_EQ(result.runs[0].values[m], result.runs[1].values[m]) << table[m].name;
  }
}

// Two invocations with shuffled task order and different worker-pool sizes
// must serialize to the exact same bytes once the declared timing metrics
// are masked: execution schedule is not data.
TEST(SweepDeterminismTest, ShuffledTaskOrderAndWorkerCountProduceIdenticalResults) {
  SweepSpec canonical = small_spec();
  canonical.scenarios = {"steady-week", "dc-drain", "flash-crowd"};
  canonical.workers = 1;
  canonical.task_order_seed = 0;

  SweepSpec shuffled = canonical;
  shuffled.workers = 4;
  shuffled.task_order_seed = 0xC0FFEE;

  SweepResult a = SweepRunner(canonical).run();
  SweepResult b = SweepRunner(shuffled).run();
  // The unmasked results still pass the baseline check against each other
  // (it skips the wall-clock rows)...
  EXPECT_TRUE(compare_to_baseline(a, b).empty());
  // ...and masked, they are the same result down to the byte.
  mask_timing_metrics(a);
  mask_timing_metrics(b);
  EXPECT_TRUE(a.runs == b.runs);
  EXPECT_TRUE(a.aggregates == b.aggregates);
  EXPECT_EQ(to_json_text(a), to_json_text(b));
  // Whole-struct equality: the result's spec echo normalizes the
  // execution knobs, so differently-scheduled sweeps compare equal — and
  // in particular compare_to_baseline never sees a spec mismatch from a
  // worker-count difference (the CI check passes --workers).
  EXPECT_TRUE(a == b);
}

// --- observability -------------------------------------------------------

// The sweep's per-task wall times are reporting-only state: populated for
// every task in canonical (scenario-major, seed-minor) order, zeroed by
// the same mask that hides the timing metrics, and absent from the JSON so
// the schema (and every committed baseline) is unaffected.
TEST(SweepObsTest, TaskSecondsArePopulatedMaskedAndNeverSerialized) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week", "dc-drain"};
  spec.num_seeds = 2;
  SweepResult result = SweepRunner(spec).run();

  ASSERT_EQ(result.task_seconds.size(), 4u);  // 2 scenarios x 2 seeds
  for (const double s : result.task_seconds) EXPECT_GT(s, 0.0);
  EXPECT_EQ(to_json_text(result).find("task_seconds"), std::string::npos);

  mask_timing_metrics(result);
  for (const double s : result.task_seconds) EXPECT_EQ(s, 0.0);
}

// Satellite of the obs:: histogram contract at sweep scale: for every
// scenario in the library, the deterministic call-duration histogram the
// engine merges out of its shards is bit-identical at 1, 2, and 8 sim
// threads — bucket counts, sum, and recorded extremes included. (The
// pure-histogram merge-order property lives in obs_test; this drives it
// through the real sharded executor for every workload shape we ship.)
TEST(SweepObsTest, MergedHistogramsBitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = small_spec();
  for (const auto& name : sim::scenario_names()) {
    sim::SimEngine engine(sweep_scenario(spec, name, spec.base_seed));
    const sim::SimResult r1 = engine.run(1);
    const sim::SimResult r2 = engine.run(2);
    const sim::SimResult r8 = engine.run(8);
    ASSERT_GT(r1.perf.call_duration_slots.total_count(), 0u) << name;
    EXPECT_TRUE(r1.perf.call_duration_slots == r2.perf.call_duration_slots) << name;
    EXPECT_TRUE(r1.perf.call_duration_slots == r8.perf.call_duration_slots) << name;
    EXPECT_EQ(r1.perf.events_processed, r8.perf.events_processed) << name;
  }
}

// --- aggregation over seeds ----------------------------------------------

TEST(SweepRunnerTest, AggregatesReduceAcrossSeeds) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  spec.num_seeds = 3;
  const SweepResult result = SweepRunner(spec).run();

  ASSERT_EQ(result.runs.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(result.runs[static_cast<std::size_t>(i)].seed,
              spec.base_seed + static_cast<std::uint64_t>(i));
  // Different seeds, different workloads: call counts must actually vary.
  EXPECT_NE(result.runs[0].checksum, result.runs[1].checksum);

  ASSERT_EQ(result.aggregates.size(), 1u);
  const auto& agg = result.aggregates[0];
  EXPECT_EQ(agg.scenario, "steady-week");
  EXPECT_EQ(agg.seeds, 3);
  ASSERT_EQ(agg.stats.size(), metric_names().size());
  for (std::size_t m = 0; m < metric_names().size(); ++m) {
    const auto& s = agg.stats[m];
    EXPECT_EQ(s.count, 3u) << metric_names()[m];
    EXPECT_LE(s.min, s.p50) << metric_names()[m];
    EXPECT_LE(s.p50, s.p95) << metric_names()[m];
    EXPECT_LE(s.p95, s.max) << metric_names()[m];
    EXPECT_GE(s.mean, s.min) << metric_names()[m];
    EXPECT_LE(s.mean, s.max) << metric_names()[m];
    // Re-derive the stats from the runs: must agree exactly.
    std::vector<double> samples;
    for (const auto& run : result.runs) samples.push_back(run.values[m]);
    EXPECT_TRUE(s == compute_stats(samples)) << metric_names()[m];
  }
}

// --- JSON round-trips (guards the baseline file format) ------------------

TEST(SweepJsonTest, ValueRoundTripIsLossless) {
  const std::string text =
      "{\"a\": [1, 2.5, -3e-2, true, false, null], \"s\": \"q\\\"\\\\\\n\\u0007end\","
      " \"nested\": {\"k\": 0.1234567890123456789}}";
  const Json parsed = Json::parse(text);
  // parse -> dump -> parse -> dump stabilizes after the first dump.
  const std::string once = parsed.dump();
  const std::string twice = Json::parse(once).dump();
  EXPECT_EQ(once, twice);
  EXPECT_TRUE(parsed == Json::parse(once));
  // 0.1 is not representable; 17 significant digits must reconstruct it.
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(0.1).dump()).as_number(), 0.1);

  EXPECT_THROW((void)Json::parse("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("[1, 2] trailing"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{\"a\": 1,}"), std::invalid_argument);
  // Surrogate escapes would decode to invalid UTF-8; the parser fails loud.
  EXPECT_THROW((void)Json::parse("\"\\ud83d\\ude00\""), std::invalid_argument);
}

TEST(SweepJsonTest, SweepResultRoundTripIsLossless) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week", "weekend-transition"};
  spec.sim_threads = {1, 2};
  const SweepResult result = SweepRunner(spec).run();

  // Struct-level: parse(serialize(x)) == x, spec and violations included.
  const std::string text = to_json_text(result);
  const SweepResult parsed = from_json_text(text);
  EXPECT_TRUE(parsed == result);

  // Byte-level: serialize -> parse -> re-serialize is the identity.
  EXPECT_EQ(to_json_text(parsed), text);
}

// Seeds are full uint64 values; JSON numbers would corrupt them past 2^53,
// so they travel as decimal strings and survive exactly.
TEST(SweepJsonTest, FullRangeSeedsRoundTripExactly) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  spec.num_seeds = 1;
  spec.base_seed = 18446744073709551615ULL;  // 2^64 - 1
  const SweepResult result = SweepRunner(spec).run();
  const SweepResult parsed = from_json_text(to_json_text(result));
  EXPECT_EQ(parsed.spec.base_seed, spec.base_seed);
  ASSERT_EQ(parsed.runs.size(), 1u);
  EXPECT_EQ(parsed.runs[0].seed, spec.base_seed);
  EXPECT_TRUE(parsed == result);
}

TEST(SweepJsonTest, SchemaAndMetricMismatchesAreRejected) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  const SweepResult result = SweepRunner(spec).run();
  Json doc = to_json(result);

  Json bad_schema = doc;
  bad_schema.set("schema", Json::number(99));
  EXPECT_THROW((void)from_json(bad_schema), std::invalid_argument);

  Json bad_metrics = doc;
  Json metrics = Json::array();
  metrics.push_back(Json::string("not-a-metric"));
  bad_metrics.set("metrics", std::move(metrics));
  EXPECT_THROW((void)from_json(bad_metrics), std::invalid_argument);
}

// --- baseline comparison -------------------------------------------------

TEST(SweepBaselineTest, SelfComparePassesAndPerturbationFails) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week", "dc-drain"};
  const SweepResult result = SweepRunner(spec).run();

  // A sweep compared against itself can never regress.
  EXPECT_TRUE(compare_to_baseline(result, result).empty());

  // Perturb one metric's mean past its band: exactly that (scenario,
  // metric, stat) must be flagged.
  const auto& names = metric_names();
  const std::size_t mos =
      static_cast<std::size_t>(std::find(names.begin(), names.end(), "mean_mos") -
                               names.begin());
  ASSERT_LT(mos, names.size());
  SweepResult perturbed = result;
  perturbed.aggregates[1].stats[mos].mean *= 1.10;  // +10% vs its 5% band
  const auto regressions = compare_to_baseline(perturbed, result);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].scenario, "dc-drain");
  EXPECT_EQ(regressions[0].metric, "mean_mos");
  EXPECT_EQ(regressions[0].stat, "mean");
  EXPECT_FALSE(regressions[0].describe().empty());

  // A perturbation inside the band stays green.
  SweepResult nudged = result;
  nudged.aggregates[1].stats[mos].mean *= 1.01;  // +1%, within 5%
  EXPECT_TRUE(compare_to_baseline(nudged, result).empty());
}

TEST(SweepBaselineTest, LeakedCallsHaveZeroSlack) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  const SweepResult result = SweepRunner(spec).run();
  const auto& names = metric_names();
  const std::size_t leaked =
      static_cast<std::size_t>(std::find(names.begin(), names.end(), "leaked_calls") -
                               names.begin());
  ASSERT_LT(leaked, names.size());
  EXPECT_DOUBLE_EQ(result.aggregates[0].stats[leaked].mean, 0.0);

  SweepResult leaky = result;
  leaky.aggregates[0].stats[leaked].mean = 0.5;  // even a fractional mean leak
  const auto regressions = compare_to_baseline(leaky, result);
  ASSERT_FALSE(regressions.empty());
  EXPECT_EQ(regressions[0].metric, "leaked_calls");
}

// Bands live on the rows: a deterministic LP work counter added in schema
// v7 is gated at its simplex-work band, and a wall-clock row is skipped
// however far it moves.
TEST(SweepBaselineTest, DeterministicRowsAreGatedAndWallClockRowsSkipped) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  const SweepResult result = SweepRunner(spec).run();
  const auto index = [](const char* name) {
    const auto& names = metric_names();
    return static_cast<std::size_t>(std::find(names.begin(), names.end(), name) -
                                    names.begin());
  };
  const std::size_t refactors = index("replan_refactorizations");
  const std::size_t wall = index("wall_seconds");
  ASSERT_LT(refactors, metric_names().size());
  ASSERT_LT(wall, metric_names().size());
  ASSERT_GT(result.aggregates[0].stats[refactors].mean, 0.0);

  SweepResult perturbed = result;
  perturbed.aggregates[0].stats[refactors].mean *= 1.5;  // +50% vs a 25% band
  perturbed.aggregates[0].stats[wall].mean = 1e9;
  perturbed.aggregates[0].stats[wall].p95 = 1e9;
  const auto regressions = compare_to_baseline(perturbed, result);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].metric, "replan_refactorizations");
  EXPECT_EQ(regressions[0].stat, "mean");
}

TEST(SweepBaselineTest, IncomparableSpecsThrow) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  const SweepResult result = SweepRunner(spec).run();

  SweepResult other = result;
  other.spec.num_seeds = result.spec.num_seeds + 1;
  EXPECT_THROW((void)compare_to_baseline(result, other), std::invalid_argument);

  SweepResult different_peak = result;
  different_peak.spec.peak_slot_calls = 999.0;
  EXPECT_THROW((void)compare_to_baseline(result, different_peak), std::invalid_argument);
}

// --- scenario report (bench_sim_scenarios --out / --check) ---------------

// The scenario report as bench_sim_scenarios assembles it: a one-seed spec
// echo, one record per simulated scenario, and the sweep's own
// aggregation. One steady-week run serves every case.
SweepSpec report_spec() {
  SweepSpec spec = small_spec();
  spec.scenarios = {"steady-week"};
  spec.num_seeds = 1;
  return spec;
}

const sim::SimResult& report_run() {
  static const sim::SimResult r =
      sim::SimEngine(sweep_scenario(report_spec(), "steady-week", report_spec().base_seed))
          .run(1);
  return r;
}

SweepResult scenario_report(std::vector<RunRecord> runs) {
  return assemble_sweep_result(report_spec(), std::move(runs), {}, {});
}

RunRecord report_record() { return make_run_record(report_run(), report_spec().base_seed); }

TEST(ScenarioReportTest, OneSeedReportRoundTripsByteIdentically) {
  const std::string text = to_json_text(scenario_report({report_record()}));
  const SweepResult parsed = from_json_text(text);
  EXPECT_EQ(to_json_text(parsed), text);
  ASSERT_EQ(parsed.aggregates.size(), 1u);
  EXPECT_EQ(parsed.aggregates[0].seeds, 1);
}

// The record is exactly the run's checksum and metric_table() values, and
// each one-seed aggregate is that value.
TEST(ScenarioReportTest, RecordIsTheMetricValuesAndChecksum) {
  const SweepResult r = scenario_report({report_record()});
  ASSERT_EQ(r.runs.size(), 1u);
  const RunRecord& run = r.runs[0];
  EXPECT_EQ(run.scenario, "steady-week");
  EXPECT_EQ(run.seed, report_spec().base_seed);
  EXPECT_EQ(run.threads, 1);
  EXPECT_EQ(run.checksum, report_run().checksum);
  EXPECT_EQ(run.values, metric_values(report_run()));
  for (std::size_t m = 0; m < metric_names().size(); ++m)
    EXPECT_EQ(r.aggregates[0].stats[m].mean, run.values[m]) << metric_names()[m];
}

// A run whose pivot count doubles fails the check on replan_iterations,
// the work counter it moved.
TEST(ScenarioReportTest, ChangedPivotsRegressReplanIterations) {
  const RunRecord record = report_record();
  const auto& names = metric_names();
  const std::size_t pivots = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "replan_iterations") - names.begin());
  ASSERT_LT(pivots, names.size());
  ASSERT_GT(record.values[pivots], 0.0);

  RunRecord doubled = record;
  doubled.values[pivots] *= 2.0;
  const SweepResult baseline = scenario_report({record});
  EXPECT_TRUE(compare_to_baseline(baseline, baseline).empty());
  const auto regressions = compare_to_baseline(scenario_report({doubled}), baseline);
  ASSERT_EQ(regressions.size(), 2u);  // its mean and its p95
  for (const auto& regression : regressions) {
    EXPECT_EQ(regression.scenario, "steady-week");
    EXPECT_EQ(regression.metric, "replan_iterations");
  }
}

// --- assignment-latency budget gate (bench_assign_latency --check) ------

// A minimal budget / report pair in the shapes latency_budget_check
// documents; each case perturbs one aspect and states the verdict.
class LatencyBudgetTest : public ::testing::Test {
 protected:
  static Json budget_json() {
    return Json::parse(R"({
      "schema_version": 1,
      "config": {"rate_per_sec": 50000, "measure_seconds": 2},
      "budget": {"p99_us": 40.0, "min_samples": 1000}
    })");
  }
  static Json report_json(double p99, double count = 100000.0) {
    char buf[512];
    std::snprintf(buf, sizeof buf, R"({
      "schema_version": 1,
      "config": {"rate_per_sec": 50000, "measure_seconds": 2, "seed": 2024},
      "scenarios": [{"scenario": "assign-open-loop",
                     "assign_latency_us": {"count": %.1f, "p99": %.4f}}]
    })",
                  count, p99);
    return Json::parse(buf);
  }
};

TEST_F(LatencyBudgetTest, PassesWithinBudgetFailsAbove) {
  const auto ok = latency_budget_check(budget_json(), report_json(12.5));
  EXPECT_TRUE(ok.ok) << ok.text;
  EXPECT_NE(ok.text.find("OK"), std::string::npos);

  const auto over = latency_budget_check(budget_json(), report_json(41.0));
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.text.find("exceeds"), std::string::npos) << over.text;
  // Exactly at the budget is within it (<= semantics).
  EXPECT_TRUE(latency_budget_check(budget_json(), report_json(40.0)).ok);
}

TEST_F(LatencyBudgetTest, PinnedConfigKeysMustMatch) {
  // The report may carry EXTRA config (seed above): only pinned keys bind.
  EXPECT_TRUE(latency_budget_check(budget_json(), report_json(1.0)).ok);

  Json report = report_json(1.0);
  Json wrong_rate = Json::object();
  wrong_rate.set("rate_per_sec", Json::number(10000));
  wrong_rate.set("measure_seconds", Json::number(2));
  report.set("config", std::move(wrong_rate));
  const auto mismatch = latency_budget_check(budget_json(), report);
  EXPECT_FALSE(mismatch.ok);
  EXPECT_NE(mismatch.text.find("rate_per_sec"), std::string::npos) << mismatch.text;

  Json missing = report_json(1.0);
  Json cfg = Json::object();
  cfg.set("rate_per_sec", Json::number(50000));  // measure_seconds absent
  missing.set("config", std::move(cfg));
  EXPECT_FALSE(latency_budget_check(budget_json(), missing).ok);
}

TEST_F(LatencyBudgetTest, EnforcingFailureModesAreStrict) {
  // Too few measured samples cannot vacuously pass the budget.
  EXPECT_FALSE(latency_budget_check(budget_json(), report_json(1.0, 10.0)).ok);
  // A budget without budget.p99_us enforces nothing -> refuse loudly.
  EXPECT_FALSE(latency_budget_check(Json::parse(R"({"budget": {}})"), report_json(1.0)).ok);
  // Schema drift between budget and report is a failure, not a note.
  Json old_schema = report_json(1.0);
  old_schema.set("schema_version", Json::number(0));
  EXPECT_FALSE(latency_budget_check(budget_json(), old_schema).ok);
  // A report with no scenarios or no p99 fails.
  Json empty = report_json(1.0);
  empty.set("scenarios", Json::array());
  EXPECT_FALSE(latency_budget_check(budget_json(), empty).ok);
}

}  // namespace
}  // namespace titan::sweep
