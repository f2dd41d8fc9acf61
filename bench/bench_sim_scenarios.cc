// Closed-loop scenario simulation (§8 end-to-end).
//
// Drives the full Titan-Next stack through the discrete-event engine: the
// online controller assigns every call in real time while the offline LP
// re-plans on fresh Holt-Winters forecasts, under the scenario's
// disturbances. Default: the fiber-cut-failover week at production-shape
// volume (>= 100k calls), daily replans. `--scenario all` sweeps the whole
// library; `--threads N` exercises the sharded executor (results are
// bit-identical across thread counts for a fixed seed).
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sweep/perf_report.h"
#include "sweep/serialize.h"

namespace {

titan::sim::SimResult run_one(const std::string& name, const titan::bench::Cli& cli,
                              titan::obs::TraceRecorder* trace) {
  using namespace titan;
  sim::Scenario scenario = sim::make_scenario(name);
  scenario.seed = cli.seed;
  scenario.training_weeks = cli.training_weeks();
  scenario.peak_slot_calls = cli.peak_or(1200.0);  // paper-shaped volume

  sim::SimEngine engine(scenario);
  engine.set_trace(trace);
  std::printf("\n-- %s: %s\n", scenario.name.c_str(), scenario.description.c_str());
  std::printf("   %zu calls over %d days, replan every %d slots, %d shards, %d threads\n",
              engine.eval_trace().calls().size(), scenario.eval_days,
              scenario.replan_interval_slots, scenario.shards, cli.threads);
  const auto r = engine.run(cli.threads);

  core::TextTable t({"metric", "value"});
  t.add_row({"calls simulated", std::to_string(r.calls)});
  t.add_row({"replans", std::to_string(r.replans)});
  t.add_row({"inter-DC migrations",
             std::to_string(r.dc_migrations) + "  (" +
                 core::TextTable::pct(r.migration_rate()) + " of calls)"});
  t.add_row({"forced evacuations", std::to_string(r.forced_migrations)});
  t.add_row({"route failovers (Internet->WAN)", std::to_string(r.route_changes)});
  t.add_row({"transit failovers (pair steering)", std::to_string(r.transit_failovers)});
  t.add_row({"out-of-plan convergences",
             std::to_string(r.out_of_plan) + "  (" + core::TextTable::pct(r.out_of_plan_rate()) +
                 ")"});
  t.add_row({"fallback assignments", std::to_string(r.fallback_assignments)});
  if (r.rejected_calls > 0 || r.degraded_calls > 0) {
    t.add_row({"rejected calls (admission shed)",
               std::to_string(r.rejected_calls) + "  (" +
                   core::TextTable::pct(r.calls > 0 ? static_cast<double>(r.rejected_calls) /
                                                          static_cast<double>(r.calls)
                                                    : 0.0) +
                   " of offered)"});
    t.add_row({"degraded admissions (media step-down)", std::to_string(r.degraded_calls)});
    t.add_row({"admission latency",
               "p50 " + core::TextTable::num(r.perf.admission_latency_us.quantile(0.5), 2) +
                   " us, p99 " +
                   core::TextTable::num(r.perf.admission_latency_us.quantile(0.99), 2) + " us"});
  }
  t.add_row({"internet share", core::TextTable::pct(r.internet_share)});
  t.add_row({"mean MOS proxy", core::TextTable::num(r.mean_mos, 3)});
  t.add_row({"sum of WAN day-peaks (worst day)",
             core::TextTable::num(*std::max_element(r.wan.per_day_sum_of_peaks_mbps.begin(),
                                                    r.wan.per_day_sum_of_peaks_mbps.end()),
                                  0) +
                 " Mbps"});
  t.add_row({"plan time (LP)", core::TextTable::num(r.plan_seconds, 2) + " s"});
  t.add_row({"forecast time", core::TextTable::num(r.forecast_seconds, 2) + " s"});
  t.add_row({"wall time", core::TextTable::num(r.wall_seconds, 2) + " s"});
  t.add_row({"throughput", core::TextTable::num(r.calls_per_sec(), 0) + " calls/s, " +
                               core::TextTable::num(r.events_per_sec(), 0) + " events/s"});
  t.add_row({"assign latency",
             "p50 " + core::TextTable::num(r.perf.assign_latency_us.quantile(0.5), 1) +
                 " us, p99 " + core::TextTable::num(r.perf.assign_latency_us.quantile(0.99), 1) +
                 " us, max " + core::TextTable::num(r.perf.assign_latency_us.max(), 1) + " us"});
  t.add_row({"determinism checksum", sweep::hex64(r.checksum)});
  std::printf("%s", t.render().c_str());

  if (r.leaked_calls != 0)
    std::printf("WARNING: %lld leaked calls (lifecycle bug)\n",
                static_cast<long long>(r.leaked_calls));
  for (const auto& [slot, link] : r.severed_links) {
    double peak_before = 0.0, peak_after = 0.0;
    for (int s = 0; s <= slot; ++s)
      peak_before = std::max(peak_before, r.streams.link_mbps_at(s, link));
    for (int s = slot + 1; s < r.eval_slots; ++s)
      peak_after = std::max(peak_after, r.streams.link_mbps_at(s, link));
    std::printf("severed link %d at %s: post-cut peak %.1f Mbps (pre-cut peak %.1f)\n",
                link.value(), core::slot_label(slot).c_str(), peak_after, peak_before);
  }
  return r;
}

bool write_json(const std::string& path, const titan::sweep::Json& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << doc.dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  // The scenario-aware parser validates --scenario against the library
  // (exit 2 with the valid list on an unknown name) and serves
  // --list-scenarios.
  const bench::Cli cli = bench::parse_cli(argc, argv, sim::scenario_names());
  bench::print_header("Closed-loop scenario simulation", "§8 long-term / stability setup");

  std::vector<std::string> names;
  if (cli.scenario.empty()) {
    names = {"fiber-cut-failover"};
  } else if (cli.scenario == "all") {
    names = sim::scenario_names();
  } else {
    names = bench::split_csv(cli.scenario);  // one name or a comma list
  }
  // One recorder across the whole run: scenarios sequence on a shared
  // timeline, so the exported trace shows the full bench end to end.
  obs::TraceRecorder trace;
  obs::TraceRecorder* trace_ptr = cli.trace_out_path.empty() ? nullptr : &trace;

  std::vector<sim::SimResult> results;
  results.reserve(names.size());
  for (const auto& name : names) results.push_back(run_one(name, cli, trace_ptr));

  // Per-scenario report (docs/observability.md): every metric_table() row,
  // the checksum and the latency histograms. CI uploads it as an artifact;
  // the checksums double as cheap golden values.
  if (!cli.json_path.empty()) {
    const sweep::Json report = sweep::perf_report_json(results, cli.peak_or(1200.0), cli.weeks,
                                                       cli.threads, cli.seed);
    if (!write_json(cli.json_path, report)) return 1;

    // Informational diff against a committed baseline: printed, never
    // fatal — wall clock is machine-dependent, the trajectory is the point.
    if (!cli.perf_baseline_path.empty()) {
      std::ifstream in(cli.perf_baseline_path);
      if (!in) {
        std::fprintf(stderr, "perf baseline %s unreadable; skipping diff\n",
                     cli.perf_baseline_path.c_str());
      } else {
        std::ostringstream text;
        text << in.rdbuf();
        try {
          const sweep::Json baseline = sweep::Json::parse(text.str());
          std::printf("\n%s", sweep::perf_diff_text(baseline, report).c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perf baseline %s unparsable (%s); skipping diff\n",
                       cli.perf_baseline_path.c_str(), e.what());
        }
      }
    }
  }

  // Chrome trace_event export of the runs' phase spans (Perfetto-loadable).
  if (!cli.trace_out_path.empty()) {
    std::ofstream out(cli.trace_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_out_path.c_str());
      return 1;
    }
    out << trace.chrome_json();
    out.close();
    std::printf("wrote %s (%zu spans)\n", cli.trace_out_path.c_str(), trace.size());
  }

  // Leaked calls mean corrupted usage streams; fail the smoke run loudly.
  for (const auto& r : results)
    if (r.leaked_calls != 0) return 1;
  return 0;
}
