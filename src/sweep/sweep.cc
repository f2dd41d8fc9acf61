#include "sweep/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/rng.h"
#include "core/stats.h"

namespace titan::sweep {

namespace {

using sim::SimResult;

double count(std::int64_t v) { return static_cast<double>(v); }

// One planning region's entry of a per-continent slice.
template <typename T>
double in(const std::array<T, geo::kNumContinents>& slices, geo::Continent region) {
  return static_cast<double>(slices[static_cast<std::size_t>(region)]);
}

// A per-replan field summed over the run in replan order (a bool counts
// the replans it holds for). Counts sum exactly in a double.
template <typename M, typename C>
double replan_total(const SimResult& r, M C::*field) {
  double sum = 0.0;
  for (const auto& stat : r.replan_stats) sum += static_cast<double>(stat.*field);
  return sum;
}

double worst_day(const SimResult& r) {
  double worst = 0.0;
  for (const double d : r.wan.per_day_sum_of_peaks_mbps) worst = std::max(worst, d);
  return worst;
}

constexpr auto kNa = geo::Continent::kNorthAmerica;
constexpr auto kEu = geo::Continent::kEurope;
constexpr auto kAsia = geo::Continent::kAsia;

// Baseline bands beyond the default 5% (Band{}).
// Any leaked call is an engine bug: no slack of either kind.
constexpr Band kExact{0.0, 0.0};
// Event counters with small per-seed populations: a couple of events of
// absolute slack so cross-platform floating-point drift in the decisions
// feeding them cannot flip a near-zero mean into an "infinite" relative
// regression.
constexpr Band kFewEvents{0.05, 2.0};
// Simplex work is deterministic per platform but sensitive to
// floating-point library differences across compilers: a loose relative
// band instead of the default 5%.
constexpr Band kSimplexWork{0.25, 1e-9};
// Admission outcomes: the shed coin is a pure per-call hash, but the load
// ratio feeding it is a float merge, so threshold-adjacent calls can flip
// across compilers. The counts are large where nonzero (5% relative covers
// them); the compound-catastrophe shed fractions sit near zero.
constexpr Band kAdmission{0.05, 5.0};
constexpr Band kShedFraction{0.05, 0.01};

// A wall-clock row: no band, masked before every compare.
MetricDef wall_clock(const char* name, double (*value)(const SimResult&)) {
  return {name, value, {}, true};
}

}  // namespace

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      {"calls", [](const SimResult& r) { return count(r.calls); }},
      {"replans", [](const SimResult& r) { return count(r.replans); }},
      {"dc_migrations", [](const SimResult& r) { return count(r.dc_migrations); }, kFewEvents},
      {"migration_rate", [](const SimResult& r) { return r.migration_rate(); }},
      {"route_changes", [](const SimResult& r) { return count(r.route_changes); }, kFewEvents},
      {"forced_migrations", [](const SimResult& r) { return count(r.forced_migrations); },
       kFewEvents},
      {"transit_failovers", [](const SimResult& r) { return count(r.transit_failovers); },
       kFewEvents},
      {"out_of_plan", [](const SimResult& r) { return count(r.out_of_plan); }, kFewEvents},
      {"out_of_plan_rate", [](const SimResult& r) { return r.out_of_plan_rate(); }},
      {"fallback_assignments", [](const SimResult& r) { return count(r.fallback_assignments); },
       kFewEvents},
      {"leaked_calls", [](const SimResult& r) { return count(r.leaked_calls); }, kExact},
      {"internet_share", [](const SimResult& r) { return r.internet_share; }},
      {"mean_mos", [](const SimResult& r) { return r.mean_mos; }},
      {"wan_sum_of_peaks_mbps", [](const SimResult& r) { return r.wan.sum_of_peaks_mbps; }},
      {"wan_worst_day_mbps", worst_day},
      {"wan_total_traffic_gb", [](const SimResult& r) { return r.wan.total_traffic_gb; }},
      // Per-region slices for the three planning regions (schema v2):
      // arrivals by the first joiner's continent, WAN GB by the serving
      // DC's continent. Out-of-scope regions report 0.
      {"calls_na", [](const SimResult& r) { return in(r.calls_by_region, kNa); }},
      {"calls_eu", [](const SimResult& r) { return in(r.calls_by_region, kEu); }},
      {"calls_asia", [](const SimResult& r) { return in(r.calls_by_region, kAsia); }},
      {"wan_gb_na", [](const SimResult& r) { return in(r.wan_gb_by_region, kNa); }},
      {"wan_gb_eu", [](const SimResult& r) { return in(r.wan_gb_by_region, kEu); }},
      {"wan_gb_asia", [](const SimResult& r) { return in(r.wan_gb_by_region, kAsia); }},
      // Replan-latency surface of the warm-start loop (schema v3).
      {"replan_iterations",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::iterations); },
       kSimplexWork},
      {"replan_dual_pivots",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::phase1_iterations); },
       kSimplexWork},
      {"warm_replans",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::warm_started); },
       kFewEvents},
      wall_clock("plan_solve_seconds", [](const SimResult& r) { return r.plan_seconds; }),
      // Region blocks solved by the decomposed path across all replans
      // (schema v4).
      {"replan_blocks_solved",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::blocks_solved); }},
      // Overload regime (schema v5): admission-control sheds and media
      // step-downs, plus the realized per-region shed fraction (rejected /
      // offered arrivals) for the three planning regions. All zero outside
      // the overload scenarios.
      {"rejected_calls", [](const SimResult& r) { return count(r.rejected_calls); }, kAdmission},
      {"degraded_calls", [](const SimResult& r) { return count(r.degraded_calls); }, kAdmission},
      {"shed_fraction_na", [](const SimResult& r) { return r.shed_fraction(kNa); }, kShedFraction},
      {"shed_fraction_eu", [](const SimResult& r) { return r.shed_fraction(kEu); }, kShedFraction},
      {"shed_fraction_asia", [](const SimResult& r) { return r.shed_fraction(kAsia); },
       kShedFraction},
      // Engine work and the rest of the LP work record (schema v7).
      {"events", [](const SimResult& r) { return count(r.perf.events_processed); }},
      {"eval_slots", [](const SimResult& r) { return static_cast<double>(r.eval_slots); }},
      {"replan_refactorizations",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::refactorizations); },
       kSimplexWork},
      {"replan_fallback_pivots",
       [](const SimResult& r) { return replan_total(r, &sim::ReplanStat::fallback_pivots); },
       kSimplexWork},
      // Throughput and phase timings (schema v7), all wall clock. The LP
      // phases sum each replan's record in replan order; the dual-phase
      // rows took their names in schema v9.
      wall_clock("wall_seconds", [](const SimResult& r) { return r.wall_seconds; }),
      wall_clock("calls_per_sec", [](const SimResult& r) { return r.calls_per_sec(); }),
      wall_clock("events_per_sec", [](const SimResult& r) { return r.events_per_sec(); }),
      wall_clock("forecast_seconds", [](const SimResult& r) { return r.forecast_seconds; }),
      wall_clock("replan_seconds", [](const SimResult& r) { return r.perf.replan_seconds; }),
      wall_clock("event_apply_seconds",
                 [](const SimResult& r) { return r.perf.event_apply_seconds; }),
      wall_clock("metric_aggregation_seconds",
                 [](const SimResult& r) { return r.perf.metric_aggregation_seconds; }),
      wall_clock("shard_work_seconds",
                 [](const SimResult& r) { return r.perf.shard_work_seconds; }),
      wall_clock("lp_build_seconds", [](const SimResult& r) {
        return replan_total(r, &sim::ReplanStat::build_seconds);
      }),
      wall_clock("lp_dual_seconds", [](const SimResult& r) {
        return replan_total(r, &sim::ReplanStat::phase1_seconds);
      }),
      wall_clock("lp_phase2_seconds", [](const SimResult& r) {
        return replan_total(r, &sim::ReplanStat::phase2_seconds);
      }),
      wall_clock("lp_refactor_seconds", [](const SimResult& r) {
        return replan_total(r, &sim::ReplanStat::refactor_seconds);
      }),
      // Discarded attempts' time, which no phase row holds (schema v9).
      wall_clock("lp_fallback_seconds", [](const SimResult& r) {
        return replan_total(r, &sim::ReplanStat::fallback_seconds);
      }),
      // Controller and admission latency summaries (schema v8), wall clock.
      // The admission histogram is empty (0) outside the overload scenarios.
      wall_clock("assign_p50_us",
                 [](const SimResult& r) { return r.perf.assign_latency_us.quantile(0.50); }),
      wall_clock("assign_p99_us",
                 [](const SimResult& r) { return r.perf.assign_latency_us.quantile(0.99); }),
      wall_clock("admission_p50_us",
                 [](const SimResult& r) { return r.perf.admission_latency_us.quantile(0.50); }),
      wall_clock("admission_p99_us",
                 [](const SimResult& r) { return r.perf.admission_latency_us.quantile(0.99); }),
  };
  return table;
}

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const MetricDef& m : metric_table()) out.emplace_back(m.name);
    return out;
  }();
  return names;
}

RunRecord make_run_record(const sim::SimResult& r, std::uint64_t seed) {
  RunRecord record;
  record.scenario = r.scenario;
  record.seed = seed;
  record.threads = r.threads;
  record.checksum = r.checksum;
  record.values = metric_values(r);
  return record;
}

std::vector<double> metric_values(const sim::SimResult& r) {
  std::vector<double> out;
  out.reserve(metric_table().size());
  for (const MetricDef& m : metric_table()) out.push_back(m.value(r));
  return out;
}

const std::vector<std::size_t>& timing_metric_indices() {
  static const std::vector<std::size_t> indices = [] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < metric_table().size(); ++i)
      if (metric_table()[i].wall_clock) out.push_back(i);
    return out;
  }();
  return indices;
}

void mask_timing_metrics(SweepResult& result) {
  for (auto& run : result.runs)
    for (const std::size_t m : timing_metric_indices())
      if (m < run.values.size()) run.values[m] = 0.0;
  std::fill(result.task_seconds.begin(), result.task_seconds.end(), 0.0);
}

MetricStats compute_stats(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("compute_stats: empty sample");
  MetricStats s;
  s.count = samples.size();
  s.mean = core::mean(samples);
  const auto qs = core::quantiles(samples, {0.5, 0.95});
  s.p50 = qs[0];
  s.p95 = qs[1];
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  s.stddev = core::stddev(samples);
  return s;
}

std::vector<MetricStats> scenario_stats(const SweepResult& result, std::size_t scenario) {
  const std::size_t seeds = static_cast<std::size_t>(result.spec.num_seeds);
  const std::size_t variants = result.spec.sim_threads.size();
  std::vector<MetricStats> stats;
  stats.reserve(metric_table().size());
  std::vector<double> samples(seeds);
  for (std::size_t m = 0; m < metric_table().size(); ++m) {
    for (std::size_t sd = 0; sd < seeds; ++sd)
      samples[sd] = result.runs.at((scenario * seeds + sd) * variants).values.at(m);
    stats.push_back(compute_stats(samples));
  }
  return stats;
}

sim::Scenario sweep_scenario(const SweepSpec& spec, const std::string& name,
                             std::uint64_t seed) {
  sim::Scenario s = sim::make_scenario(name);
  s.seed = seed;
  if (spec.peak_slot_calls > 0.0) s.peak_slot_calls = spec.peak_slot_calls;
  if (spec.training_weeks > 0) s.training_weeks = spec.training_weeks;
  if (spec.eval_days > 0) s.eval_days = spec.eval_days;
  if (spec.replan_interval_slots > 0) {
    s.replan_interval_slots = spec.replan_interval_slots;
    s.pipeline.scope.timeslots = spec.replan_interval_slots;
  }
  if (spec.shards > 0) s.shards = spec.shards;
  // A cap, not a replacement: scenarios whose own default is already
  // tighter (the multi-region scopes trade LP size for DC count) keep it.
  if (spec.max_reduced_configs > 0)
    s.pipeline.scope.max_reduced_configs =
        std::min(s.pipeline.scope.max_reduced_configs, spec.max_reduced_configs);
  if (spec.oracle_counts) s.oracle_counts = true;
  return s;
}

namespace {

// Resolves an empty scenario list to the whole named library and rejects
// what no simulation can run.
SweepSpec validate_sweep_spec(SweepSpec spec) {
  if (spec.scenarios.empty()) spec.scenarios = sim::scenario_names();
  const auto& known = sim::scenario_names();
  for (const auto& name : spec.scenarios)
    if (std::find(known.begin(), known.end(), name) == known.end())
      throw std::invalid_argument("unknown scenario: " + name);
  if (spec.num_seeds < 1) throw std::invalid_argument("sweep needs num_seeds >= 1");
  if (spec.sim_threads.empty()) throw std::invalid_argument("sweep needs sim_threads");
  for (const int t : spec.sim_threads)
    if (t < 1) throw std::invalid_argument("sim_threads entries must be >= 1");
  return spec;
}

// One (scenario, seed) task: builds the engine once, runs it at every
// spec.sim_threads count, audits the engine's thread-count determinism
// promise on the full SimResult, and reduces each run to its RunRecord
// (records[v] corresponds to spec.sim_threads[v]).
struct SweepTaskResult {
  std::vector<RunRecord> records;
  std::vector<std::string> determinism_violations;
  double seconds = 0.0;  // wall time for the whole task (observability only)
};

SweepTaskResult run_sweep_task(const SweepSpec& spec, const std::string& scenario,
                               std::uint64_t seed) {
  const auto task_start = std::chrono::steady_clock::now();
  sim::SimEngine engine(sweep_scenario(spec, scenario, seed));

  SweepTaskResult task;
  const std::size_t variants = spec.sim_threads.size();
  task.records.resize(variants);
  std::vector<sim::SimResult> sims;
  sims.reserve(variants);
  for (std::size_t v = 0; v < variants; ++v) {
    sims.push_back(engine.run(spec.sim_threads[v]));
    task.records[v] = make_run_record(sims.back(), seed);
    // Mask the wall-clock fields in place (the record has already captured
    // everything it needs): what remains must be bit-identical across
    // thread counts.
    sims.back().zero_wallclock();
  }
  // The engine's core promise: thread count changes nothing. Compare the
  // full SimResult (streams included) bit-for-bit.
  for (std::size_t v = 1; v < variants; ++v) {
    if (!(sims[0] == sims[v])) {
      task.determinism_violations.push_back(
          scenario + " seed " + std::to_string(seed) + ": threads " +
          std::to_string(spec.sim_threads[0]) + " vs " +
          std::to_string(spec.sim_threads[v]) + " diverged");
    }
  }
  task.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - task_start).count();
  return task;
}

}  // namespace

SweepResult assemble_sweep_result(const SweepSpec& spec, std::vector<RunRecord> runs,
                                  std::vector<std::string> determinism_violations,
                                  std::vector<double> task_seconds) {
  SweepResult result;
  result.spec = spec;
  // The result's spec echo describes *what* was swept, never how it was
  // scheduled: normalize the execution knobs so equality (and baseline
  // comparison) across differently-scheduled sweeps holds, matching the
  // serialized form, which omits them.
  result.spec.workers = 0;
  result.spec.task_order_seed = 0;
  result.runs = std::move(runs);
  result.task_seconds = std::move(task_seconds);
  // Violations arrive in completion order; canonicalize.
  std::sort(determinism_violations.begin(), determinism_violations.end());
  result.determinism_violations = std::move(determinism_violations);
  return result;
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(validate_sweep_spec(std::move(spec))) {}

SweepResult SweepRunner::run() const {
  const std::size_t num_scenarios = spec_.scenarios.size();
  const std::size_t seeds = static_cast<std::size_t>(spec_.num_seeds);
  const std::size_t variants = spec_.sim_threads.size();

  // One task per (scenario, seed): the task builds the engine once and runs
  // it at every requested thread count, writing each record into its
  // canonical slot — execution order can never reorder the output.
  struct Task {
    std::size_t scenario_index;
    std::size_t seed_index;
  };
  std::vector<Task> tasks;
  tasks.reserve(num_scenarios * seeds);
  for (std::size_t sc = 0; sc < num_scenarios; ++sc)
    for (std::size_t sd = 0; sd < seeds; ++sd) tasks.push_back({sc, sd});
  if (spec_.task_order_seed != 0) {
    core::Rng rng(spec_.task_order_seed);
    for (std::size_t i = tasks.size(); i > 1; --i)
      std::swap(tasks[i - 1],
                tasks[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  std::vector<RunRecord> runs(tasks.size() * variants);
  std::vector<double> task_seconds(tasks.size(), 0.0);
  std::vector<std::string> violations;
  std::mutex violations_mu;

  std::exception_ptr first_error;
  std::mutex error_mu;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
      try {
        const Task& task = tasks[i];
        const std::string& name = spec_.scenarios[task.scenario_index];
        const std::uint64_t seed = spec_.base_seed + task.seed_index;
        SweepTaskResult done = run_sweep_task(spec_, name, seed);

        // Canonical slots: workers never race here because each task index
        // is claimed by exactly one worker.
        const std::size_t base =
            (task.scenario_index * seeds + task.seed_index) * variants;
        for (std::size_t v = 0; v < variants; ++v)
          runs[base + v] = std::move(done.records[v]);
        task_seconds[task.scenario_index * seeds + task.seed_index] = done.seconds;
        if (!done.determinism_violations.empty()) {
          std::lock_guard<std::mutex> lock(violations_mu);
          for (auto& violation : done.determinism_violations)
            violations.push_back(std::move(violation));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  int workers = spec_.workers;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::max(1, std::min<int>(workers, static_cast<int>(tasks.size())));
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  return assemble_sweep_result(spec_, std::move(runs), std::move(violations),
                               std::move(task_seconds));
}

}  // namespace titan::sweep
