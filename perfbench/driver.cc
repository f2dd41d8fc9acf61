// Closed-loop benchmark driver: WAN cost, MOS and replan latency of the
// Titan-Next loop (forecast -> plan LP -> online controller) over three
// traffic regimes.
//
//   perfbench_driver --workload steady|cold|overload --seed N
//                    --seconds S --trace 0|1 [--trace-out PATH]
//
// One run derives a fixed number of one-day closed-loop episodes from the
// seed, then replays them round-robin until S seconds have passed and every
// episode has run at least once. Each replay first builds its engine from
// scratch: that is the set-up being timed. Every replay of an episode must
// reproduce its first run bit for bit, and first runs are checked against
// the engine's invariants, so a fast wrong answer is caught. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Drift tolerance. The host's speed drifts by tens of percent, over seconds
// and over minutes, when neighbouring tenants contend for it. A fixed
// reference kernel, owned by this file and untouched by any change to the
// library, runs between consecutive replays. Every timing of a replay is
// scaled by kReferenceMs over the geometric mean of the kernel times just
// before and just after it, so times read as on a host where the kernel
// takes exactly kReferenceMs: a slower host slows both and cancels, a
// slower library does not. Each timing is then the median across the
// episode's replays. On a contended host raw times spread up to 0.33
// (IQR/median) between runs, past the 0.25 bounds of BENCHMARK.json;
// perfbench/README.md gives raw and normalized spreads side by side. The
// kernel's median time and the unnormalized end-to-end times go to stderr,
// as context for a run.
// WAN cost is reported per 1000 simulated calls, so a seed whose trace
// carries more calls does not read as a costlier plan.
//
// --trace 0 prints the end-to-end metrics with tracing off. --trace 1
// attaches span recorders and prints the per-layer metrics instead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace {

using namespace titan;
using Clock = std::chrono::steady_clock;

// Episode shape: the rolling-horizon replan drill of bench_sim_scenarios
// (run_replan_drill), which is the repository's own replan-latency
// workload. One training week, one evaluation day, half the CI sweep's
// peak of 200 calls per slot, the plan horizon capped at 24 slots (12
// hours) and the reduced call configs at 20. The one difference: the drill
// plans on oracle counts, while here the forecast stays in the loop.
// Every workload replans every horizon/8 slots, the drill's
// production-style rolling cadence (~88% window overlap), sixteen replans
// per episode.
constexpr double kPeakSlotCalls = 100.0;
constexpr int kHorizonCapSlots = core::kSlotsPerDay / 2;
constexpr int kMaxReducedConfigs = 20;

// Nominal time of the reference kernel: the unit every reported time is
// normalized to (see the header comment).
constexpr double kReferenceMs = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload steady|cold|overload --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "steady" && a.workload != "cold" && a.workload != "overload")
    usage("--workload must be steady, cold or overload");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be a positive number");
  if (!have_trace) usage("--trace must be 0 or 1");
  return a;
}

// The three traffic regimes, each a library scenario on the drill's
// one-day episode shape:
//  * steady    — undisturbed diurnal traffic (steady-week): the LP and
//                controller at their plain cost, no forced replans;
//  * cold      — steady with warm starts off, the drill's cold twin: every
//                replan solves from scratch, so a change to the warm-start
//                path should leave it unmoved;
//  * overload  — five times the trained volume against anchored capacity
//                (overload-sustained): admission control degrades and sheds.
sim::Scenario episode_scenario(const std::string& workload, std::uint64_t seed) {
  sim::Scenario s;
  if (workload == "steady" || workload == "cold") {
    s = sim::steady_week();
    s.warm_replans = workload == "steady";
  } else {
    s = sim::overload_sustained();
    for (auto& d : s.disturbances)
      if (d.kind == sim::NetworkEventKind::kForecastBias) d.duration_slots = core::kSlotsPerDay;
  }
  s.seed = seed;
  s.training_weeks = 1;
  s.eval_days = 1;
  s.eval_offset_days = 0;
  s.peak_slot_calls = kPeakSlotCalls;
  s.pipeline.scope.timeslots = std::min(s.pipeline.scope.timeslots, kHorizonCapSlots);
  s.pipeline.scope.max_reduced_configs =
      std::min(s.pipeline.scope.max_reduced_configs, kMaxReducedConfigs);
  s.replan_interval_slots = std::max(1, s.pipeline.scope.timeslots / 8);
  return s;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The host-speed reference: repeated sparse matrix-vector products over a
// fixed random matrix (16k rows, 12 nonzeros each, ~2.4 MB) — indexed
// loads and floating-point accumulation over a working set the size of
// the plan LP's, so cache or memory contention slows it as it slows a
// replan.
class ReferenceKernel {
 public:
  ReferenceKernel() {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    row_.push_back(0);
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kPerRow; ++j) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        col_.push_back(static_cast<int>(x % kRows));
        val_.push_back(1.0 / (1.0 + static_cast<double>(x % 97)));
      }
      row_.push_back(static_cast<int>(col_.size()));
    }
  }

  // Times kPasses passes and returns the median in seconds: one pass lasts
  // a few milliseconds, short enough that a single burst of contention
  // would set the scale of a whole replay.
  double time_median() {
    std::vector<double> passes;
    for (int p = 0; p < kPasses; ++p) passes.push_back(time_once());
    return median(std::move(passes));
  }

 private:
  // One pass, in seconds. The result is checked, so the work cannot be
  // optimized away.
  double time_once() {
    std::vector<double> a(kRows, 1.0), b(kRows, 0.0);
    const auto t0 = Clock::now();
    for (int it = 0; it < kIterations; ++it) {
      double total = 0.0;
      for (int i = 0; i < kRows; ++i) {
        double acc = 0.0;
        for (int k = row_[i]; k < row_[i + 1]; ++k) acc += val_[k] * a[col_[k]];
        b[i] = acc;
        total += acc;
      }
      for (int i = 0; i < kRows; ++i) a[i] = b[i] * (kRows / total);
    }
    const double seconds = seconds_since(t0);
    if (!std::isfinite(a[0])) throw std::runtime_error("reference kernel diverged");
    return seconds;
  }

  static constexpr int kRows = 16384;
  static constexpr int kPerRow = 12;
  static constexpr int kIterations = 40;
  static constexpr int kPasses = 5;
  std::vector<int> row_, col_;
  std::vector<double> val_;
};

// Invariants every episode result must satisfy, whatever the regime, plus
// the regime's own signature. Appends one line per violation.
void check_result(const std::string& workload, const sim::SimEngine& engine,
                  const sim::SimResult& r, std::vector<std::string>& errors) {
  const sim::Scenario& scenario = engine.scenario();
  const auto fail = [&](const std::string& what) {
    errors.push_back(r.scenario + " seed " + std::to_string(scenario.seed) + ": " + what);
  };
  if (r.leaked_calls != 0) fail("leaked calls");
  if (r.calls <= 0) fail("no calls simulated");
  if (r.replans < 1 || static_cast<std::size_t>(r.replans) != r.replan_stats.size())
    fail("replan count disagrees with replan stats");
  std::int64_t regional = 0;
  for (const auto n : r.calls_by_region) regional += n;
  if (regional != r.calls) fail("per-region arrivals do not sum to the call count");
  if (!(r.internet_share > 0.0 && r.internet_share < 1.0)) fail("internet share outside (0, 1)");
  if (!(r.mean_mos >= 1.0 && r.mean_mos <= 5.0)) fail("mean MOS outside [1, 5]");

  // The day-peak WAN cost, recomputed from the per-slot link streams.
  double sum_of_peaks = 0.0;
  const auto links = static_cast<int>(engine.network().topology().link_count());
  for (int l = 0; l < links; ++l) {
    double peak = 0.0;
    for (int s = 0; s < r.eval_slots; ++s)
      peak = std::max(peak, r.streams.link_mbps_at(s, core::LinkId(l)));
    sum_of_peaks += peak;
  }
  if (!(r.wan.sum_of_peaks_mbps > 0.0)) fail("no WAN traffic");
  if (std::abs(sum_of_peaks - r.wan.sum_of_peaks_mbps) > 1e-9 * r.wan.sum_of_peaks_mbps)
    fail("WAN sum of peaks disagrees with the per-slot link streams");

  const bool any_forced = std::any_of(r.replan_stats.begin(), r.replan_stats.end(),
                                      [](const sim::ReplanStat& s) { return s.forced; });
  if (workload == "overload") {
    if (r.rejected_calls <= 0 || r.degraded_calls <= 0)
      fail("overload neither degraded nor shed calls");
    for (int c = 0; c < geo::kNumContinents; ++c)
      if (r.shed_fraction(static_cast<geo::Continent>(c)) > scenario.admission_max_shed + 1e-12)
        fail("a region shed more than the admission cap");
  } else if (r.rejected_calls != 0 || r.degraded_calls != 0) {
    fail("calls shed or degraded without admission control");
  }
  if (r.forced_migrations != 0 || any_forced)
    fail("forced replans or evacuations without a disturbance");
  const bool any_warm = std::any_of(r.replan_stats.begin(), r.replan_stats.end(),
                                    [](const sim::ReplanStat& s) { return s.warm_started; });
  if (workload == "cold") {
    if (any_warm) fail("a replan warm-started with warm starts off");
  } else if (!any_warm) {
    fail("no replan warm-started at the rolling cadence");
  }
}

// Timings of one replay of an episode, with the host-speed scale measured
// around it.
struct Replay {
  double scale = 1.0;  // kReferenceMs / reference kernel time around the replay
  double setup = 0.0, wall = 0.0;
  sim::SimResult result;
};

// Median across an episode's replays of a timing, in seconds: normalized,
// or as measured when `normalize` is false.
template <typename Seconds>
double replay_median(const std::vector<Replay>& replays, Seconds seconds, bool normalize = true) {
  std::vector<double> v;
  for (const auto& r : replays) v.push_back((normalize ? r.scale : 1.0) * seconds(r));
  return median(std::move(v));
}

struct Episode {
  sim::Scenario scenario;
  sim::SimResult reference;  // first run, wall clock masked
  std::vector<Replay> replays;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

// Episodes per run. Episodes differ in LP work by their traces, so every
// pooled figure varies between seeds with the episode count alone:
// resampling 40 episodes per workload put the IQR/median of the median
// replan latency at 0.08-0.11 for 8 episodes and 0.03-0.05 for 24. One pass
// over 24 episodes fits a run, and 384 replans put 38 beyond the p90.
constexpr std::size_t kEpisodes = 24;

// The end-to-end metrics, pooled over the episodes: deterministic totals
// from the reference results, each timing as its median across an
// episode's replays, normalized or as measured. setup_s is the time to
// build the engines of the whole episode set.
std::vector<Metric> end_to_end(const std::vector<Episode>& episodes, bool normalize) {
  double peaks = 0.0, mos_weighted = 0.0, calls = 0.0, wall = 0.0, setup = 0.0;
  std::vector<double> replan_ms;
  for (const auto& ep : episodes) {
    const auto& r = ep.reference;
    peaks += r.wan.sum_of_peaks_mbps;
    mos_weighted += r.mean_mos * static_cast<double>(r.calls);
    calls += static_cast<double>(r.calls);
    wall += replay_median(ep.replays, [](const Replay& p) { return p.wall; }, normalize);
    setup += replay_median(ep.replays, [](const Replay& p) { return p.setup; }, normalize);
    for (std::size_t j = 0; j < r.replan_stats.size(); ++j)
      replan_ms.push_back(1e3 * replay_median(
                                    ep.replays,
                                    [&](const Replay& p) {
                                      return p.result.replan_stats[j].solve_seconds;
                                    },
                                    normalize));
  }
  return {
      {"wan_cost", 1e3 * peaks / calls, "Mbps/kcall"},
      {"mos", mos_weighted / calls, "MOS"},
      {"replan_ms", median(replan_ms), "ms"},
      {"replan_p90_ms", quantile(replan_ms, 0.9), "ms"},
      {"sim_us_per_call", 1e6 * wall / calls, "us"},
      {"setup_s", setup, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<std::string> errors;
  long long runs = 0, failed_runs = 0;

  std::vector<Episode> episodes(kEpisodes);
  for (std::size_t k = 0; k < episodes.size(); ++k)
    episodes[k].scenario = episode_scenario(args.workload, core::hash_key(args.seed, 0x9E7F, k));

  // The reference kernel runs between consecutive replays; each replay is
  // normalized by the geometric mean of the kernel times just before and
  // just after it.
  ReferenceKernel kernel;
  std::vector<double> kernel_ms;
  double kernel_before = kernel.time_median();
  const auto scale_since_last_kernel = [&] {
    const double after = kernel.time_median();
    kernel_ms.push_back(1e3 * after);
    const double scale = kReferenceMs / (1e3 * std::sqrt(kernel_before * after));
    kernel_before = after;
    return scale;
  };

  // Round-robin replays until the budget is spent and every episode has a
  // first run. A rebuilt engine must reproduce the episode's first result,
  // so set-up is checked as well as timed. Per-layer mode records each
  // pass over the episodes into a fresh recorder (memory stays bounded) and
  // writes out the last one.
  std::unique_ptr<obs::TraceRecorder> trace;
  obs::Histogram assign_us{sim::SimPerf{}.assign_latency_us};
  const auto start = Clock::now();
  for (std::size_t i = 0; i < episodes.size() || seconds_since(start) < args.seconds; ++i) {
    Episode& ep = episodes[i % episodes.size()];
    if (args.trace && i % episodes.size() == 0) trace = std::make_unique<obs::TraceRecorder>();
    Replay replay;
    const auto setup_start = Clock::now();
    sim::SimEngine engine(ep.scenario);
    replay.setup = seconds_since(setup_start);
    engine.set_trace(trace.get());
    {
      obs::Span span(trace.get(), "episode", "perfbench", 0);
      const auto t0 = Clock::now();
      replay.result = engine.run(1);
      replay.wall = seconds_since(t0);
    }
    replay.scale = scale_since_last_kernel();
    ++runs;
    const sim::SimResult& r = replay.result;
    assign_us.merge(r.perf.assign_latency_us);

    const std::size_t errors_before = errors.size();
    sim::SimResult masked = r;
    masked.zero_wallclock();
    if (ep.reference.calls == 0) {
      check_result(args.workload, engine, r, errors);
      ep.reference = std::move(masked);
    } else if (!(masked == ep.reference)) {
      errors.push_back(r.scenario + " seed " + std::to_string(ep.scenario.seed) +
                       ": a replay differs from the episode's first run");
    }
    if (errors.size() != errors_before) {
      ++failed_runs;
    } else {
      replay.result.streams = {};  // only the timings are kept
      ep.replays.push_back(std::move(replay));
    }
  }

  // Sharding must not change the answer: the first episode at two worker
  // threads reproduces its single-threaded result bit for bit.
  {
    const auto& ep = episodes.front();
    sim::SimResult r = sim::SimEngine(ep.scenario).run(2);
    r.zero_wallclock();
    ++runs;
    if (!(r == ep.reference)) {
      errors.push_back(ep.reference.scenario + " seed " + std::to_string(ep.scenario.seed) +
                       ": the 2-thread run differs from the 1-thread run");
      ++failed_runs;
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  if (std::any_of(episodes.begin(), episodes.end(),
                  [](const Episode& ep) { return ep.replays.empty(); })) {
    std::fprintf(stderr, "perfbench: an episode has no clean replay to time\n");
    return 1;
  }

  // Run context on stderr: the host's speed and the times as measured.
  std::fprintf(stderr, "perfbench: reference kernel median %.4f ms; unnormalized %s\n",
               median(kernel_ms), metrics_json(end_to_end(episodes, false)).c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(episodes, true);
  } else {
    // Per-layer totals: LP counters from the reference results, each timing
    // as its median across an episode's normalized replays.
    double replans = 0.0, pivots = 0.0, phase1_pivots = 0.0, refactorizations = 0.0;
    double cold = 0.0, attempts = 0.0, pivot_seconds = 0.0, forecast = 0.0, glue = 0.0;
    std::vector<double> build_ms, phase1_ms, phase2_ms, refactor_ms, event_apply_ms,
        aggregation_ms;
    for (const auto& ep : episodes) {
      const auto& r = ep.reference;
      const auto& rs = ep.replays;
      replans += r.replans;
      forecast += replay_median(rs, [](const Replay& p) { return p.result.forecast_seconds; });
      glue += replay_median(rs, [](const Replay& p) {
        return p.result.perf.replan_seconds - p.result.plan_seconds - p.result.forecast_seconds;
      });
      event_apply_ms.push_back(1e3 * replay_median(rs, [](const Replay& p) {
                                 return p.result.perf.event_apply_seconds;
                               }));
      aggregation_ms.push_back(1e3 * replay_median(rs, [](const Replay& p) {
                                 return p.result.perf.metric_aggregation_seconds;
                               }));
      for (std::size_t j = 0; j < r.replan_stats.size(); ++j) {
        const auto& s = r.replan_stats[j];
        pivots += s.iterations;
        phase1_pivots += s.phase1_iterations;
        refactorizations += s.refactorizations;
        cold += s.warm_started ? 0 : 1;
        attempts += s.attempts;
        const auto stat_ms = [&](double sim::ReplanStat::*field) {
          return 1e3 * replay_median(
                           rs, [&](const Replay& p) { return p.result.replan_stats[j].*field; });
        };
        build_ms.push_back(stat_ms(&sim::ReplanStat::build_seconds));
        phase1_ms.push_back(stat_ms(&sim::ReplanStat::phase1_seconds));
        phase2_ms.push_back(stat_ms(&sim::ReplanStat::phase2_seconds));
        refactor_ms.push_back(stat_ms(&sim::ReplanStat::refactor_seconds));
        pivot_seconds += 1e-3 * (phase1_ms.back() + phase2_ms.back());
      }
    }
    const double kernel_scale = kReferenceMs / median(kernel_ms);
    metrics = {
        {"lp_pivots_per_replan", pivots / replans, "count"},
        {"lp_phase1_pivots_per_replan", phase1_pivots / replans, "count"},
        {"lp_refactorizations_per_replan", refactorizations / replans, "count"},
        {"lp_cold_share", cold / replans, "ratio"},
        {"lp_attempts_per_replan", attempts / replans, "count"},
        {"lp_build_ms", median(build_ms), "ms"},
        {"lp_phase1_ms", median(phase1_ms), "ms"},
        {"lp_phase2_ms", median(phase2_ms), "ms"},
        {"lp_refactor_ms", median(refactor_ms), "ms"},
        {"lp_us_per_pivot", 1e6 * pivot_seconds / pivots, "us"},
        {"forecast_ms", 1e3 * forecast / replans, "ms"},
        {"replan_glue_ms", 1e3 * glue / replans, "ms"},
        {"event_apply_ms", median(event_apply_ms), "ms"},
        {"aggregation_ms", median(aggregation_ms), "ms"},
        {"assign_p50_us", kernel_scale * assign_us.quantile(0.5), "us"},
        {"assign_p99_us", kernel_scale * assign_us.quantile(0.99), "us"},
    };
    if (!args.trace_out.empty()) std::ofstream(args.trace_out) << trace->chrome_json();
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              errors.empty() ? "true" : "false", runs, failed_runs,
              metrics_json(metrics).c_str());
  return 0;
}
