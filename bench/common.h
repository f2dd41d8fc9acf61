// Shared setup for the benchmark binaries: the standard world, network
// ground truth, Titan fractions, and the 5-week workload split the paper's
// evaluation uses (4 weeks training + 1 week evaluation, Europe-contained
// calls). All seeds are fixed so every bench is reproducible.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/table.h"
#include "geo/geodb.h"
#include "geo/world.h"
#include "net/network_db.h"
#include "workload/callgen.h"

namespace titan::bench {

// Shared command-line interface of every bench binary:
//   --seed N      workload seed               (default 2024)
//   --weeks N     total workload weeks, last one evaluated (default 5).
//                 Forecasting needs at least one training week, so
//                 --weeks 1 still generates one: it is equivalent to
//                 --weeks 2 and is the cheapest smoke-run setting.
//   --threads N   sim worker threads          (default 1)
//   --peak X      busiest-slot call volume    (default: per bench)
//   --scenario S  named scenario, a comma list of names, or "all"
//                 (sim benches only)
//   --json PATH   per-scenario report: every metric_table() row, the
//                 checksum and the latency histograms (bench_sim_scenarios;
//                 docs/observability.md documents the schema)
//   --perf-baseline PATH  committed --json report to diff against,
//                 informationally — never changes the exit code
//   --trace-out PATH  Chrome trace_event JSON of the runs' phase spans,
//                 loadable in Perfetto (bench_sim_scenarios only)
//   --list-scenarios  print the scenario library and exit (sim benches only)
// Open-loop latency harness (`bench_assign_latency`) extras
// (docs/observability.md, "Assignment-latency budget"):
//   --rate X        sustained arrival rate, controller calls per second
//   --warmup-sec X  leading window whose samples are excluded
//   --measure-sec X measured window length (the reported distribution)
//   --cooldown-sec X trailing window whose samples are excluded
//   (--baseline / --check / --out are shared with the sweep bench: the
//   baseline is the committed latency-budget JSON, --check exits 1 when
//   the measured p99 exceeds it, --out writes the perf-report-schema
//   latency report)
// Sweep bench (`bench_sim_sweep`) extras:
//   --seeds N     sweep N consecutive seeds starting at --seed
//   --scenarios L comma-separated scenario names, or "all"
//   --sim-threads L  comma list of per-sim thread counts (default "1")
//   --workers N   sweep worker pool size (default: hardware threads)
//   --baseline P  baseline JSON to diff against with --check
//   --check       compare against --baseline; exit 1 on regression
//   --out P       write the sweep JSON (runs + aggregates)
// The workload knobs apply to the benches that generate call traces
// (fig14/15/20, table3/4, sim); pure measurement-study benches accept but
// do not consume them.
struct Cli {
  std::uint64_t seed = 2024;
  int weeks = 5;
  int threads = 1;
  double peak_slot_calls = -1.0;  // < 0: keep the bench's default
  std::string scenario;
  std::string json_path;
  std::string perf_baseline_path;
  std::string trace_out_path;
  // Open-loop latency harness (bench_assign_latency) only.
  double rate_per_sec = 50000.0;
  double warmup_sec = 0.5;
  double measure_sec = 2.0;
  double cooldown_sec = 0.25;
  // Sweep bench only.
  int seeds = 1;
  std::string scenarios;    // comma list; "" or "all" = whole library
  std::string sim_threads;  // comma list; "" = {1}
  int workers = 0;          // <= 0: hardware threads
  std::string baseline_path;
  bool check = false;
  std::string out_path;

  [[nodiscard]] double peak_or(double fallback) const {
    return peak_slot_calls > 0.0 ? peak_slot_calls : fallback;
  }
  [[nodiscard]] int training_weeks() const { return weeks > 1 ? weeks - 1 : 1; }
};

// Outcome of parsing an argv. `exit_code` < 0 means "proceed with `cli`";
// >= 0 means "print `message` and exit with that code" (0 for --help /
// --list-scenarios, 2 for usage errors). Separated from the exiting
// wrapper below so tests can invoke the parser.
struct CliParse {
  Cli cli;
  int exit_code = -1;
  std::string message;
};

// Splits on commas, trimming surrounding whitespace and dropping empty
// tokens, so "a, b" and "a,b" parse identically.
inline std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    std::size_t end = comma == std::string::npos ? list.size() : comma;
    std::size_t from = begin;
    while (from < end && std::isspace(static_cast<unsigned char>(list[from]))) ++from;
    while (end > from && std::isspace(static_cast<unsigned char>(list[end - 1]))) --end;
    if (end > from) out.push_back(list.substr(from, end - from));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

// `known_scenarios` non-empty enables the scenario-aware behaviour: the
// --scenario / --scenarios values are validated against it (the literal
// "all" is always accepted), an unknown name fails with the valid list,
// and --list-scenarios prints the library.
inline CliParse parse_cli_args(int argc, char** argv,
                               const std::vector<std::string>& known_scenarios = {}) {
  CliParse parse;
  Cli& cli = parse.cli;
  const char* argv0 = argc > 0 ? argv[0] : "bench";

  const auto fail = [&](std::string message) {
    parse.exit_code = 2;
    parse.message = std::move(message);
  };
  const auto scenario_list = [&] {
    std::string names;
    for (const auto& n : known_scenarios) names += " " + n;
    return names + " all";
  };
  const auto check_scenario = [&](const std::string& name) {
    if (known_scenarios.empty() || name == "all") return true;
    if (std::find(known_scenarios.begin(), known_scenarios.end(), name) !=
        known_scenarios.end())
      return true;
    fail("unknown scenario '" + name + "'; available:" + scenario_list());
    return false;
  };

  for (int i = 1; i < argc && parse.exit_code < 0; ++i) {
    const auto is = [&](const char* flag) { return std::strcmp(argv[i], flag) == 0; };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        fail(std::string("missing value for ") + argv[i]);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (is("--seed")) {
      if ((v = value())) cli.seed = std::strtoull(v, nullptr, 10);
    } else if (is("--weeks")) {
      if ((v = value())) {
        cli.weeks = std::atoi(v);
        if (cli.weeks < 1) fail("--weeks must be >= 1 (smoke runs train on one week)");
      }
    } else if (is("--threads")) {
      if ((v = value())) cli.threads = std::atoi(v);
    } else if (is("--peak")) {
      if ((v = value())) cli.peak_slot_calls = std::atof(v);
    } else if (is("--scenario")) {
      if ((v = value())) {
        cli.scenario = v;
        const auto names = split_csv(cli.scenario);
        for (const auto& name : names) {
          // "all" only makes sense as the entire value.
          if (name == "all" && names.size() > 1) {
            fail("'all' cannot be combined with other --scenario names");
            break;
          }
          if (!check_scenario(name)) break;
        }
      }
    } else if (is("--scenarios")) {
      if ((v = value())) {
        cli.scenarios = v;
        const auto names = split_csv(cli.scenarios);
        for (const auto& name : names) {
          // "all" only makes sense as the entire value.
          if (name == "all" && names.size() > 1) {
            fail("'all' cannot be combined with other --scenarios names");
            break;
          }
          if (!check_scenario(name)) break;
        }
      }
    } else if (is("--json")) {
      if ((v = value())) cli.json_path = v;
    } else if (is("--perf-baseline")) {
      if ((v = value())) cli.perf_baseline_path = v;
    } else if (is("--trace-out")) {
      if ((v = value())) cli.trace_out_path = v;
    } else if (is("--rate")) {
      if ((v = value())) {
        cli.rate_per_sec = std::atof(v);
        if (cli.rate_per_sec <= 0.0) fail("--rate must be > 0 calls/sec");
      }
    } else if (is("--warmup-sec")) {
      if ((v = value())) {
        cli.warmup_sec = std::atof(v);
        if (cli.warmup_sec < 0.0) fail("--warmup-sec must be >= 0");
      }
    } else if (is("--measure-sec")) {
      if ((v = value())) {
        cli.measure_sec = std::atof(v);
        if (cli.measure_sec <= 0.0) fail("--measure-sec must be > 0");
      }
    } else if (is("--cooldown-sec")) {
      if ((v = value())) {
        cli.cooldown_sec = std::atof(v);
        if (cli.cooldown_sec < 0.0) fail("--cooldown-sec must be >= 0");
      }
    } else if (is("--seeds")) {
      if ((v = value())) {
        cli.seeds = std::atoi(v);
        if (cli.seeds < 1) fail("--seeds must be >= 1");
      }
    } else if (is("--sim-threads")) {
      if ((v = value())) cli.sim_threads = v;
    } else if (is("--workers")) {
      if ((v = value())) cli.workers = std::atoi(v);
    } else if (is("--baseline")) {
      if ((v = value())) cli.baseline_path = v;
    } else if (is("--check")) {
      cli.check = true;
    } else if (is("--out")) {
      if ((v = value())) cli.out_path = v;
    } else if (is("--list-scenarios")) {
      if (known_scenarios.empty()) {
        fail("this bench has no scenario library");
      } else {
        parse.exit_code = 0;
        for (const auto& n : known_scenarios) parse.message += n + "\n";
      }
    } else if (is("--help") || is("-h")) {
      parse.exit_code = 0;
      parse.message = std::string("usage: ") + argv0 +
                      " [--seed N] [--weeks N] [--threads N] [--peak X] [--scenario S]"
                      " [--json PATH]"
                      " [--perf-baseline PATH] [--trace-out PATH]"
                      " [--rate X] [--warmup-sec X] [--measure-sec X] [--cooldown-sec X]"
                      " [--seeds N] [--scenarios A,B|all]"
                      " [--sim-threads L]"
                      " [--workers N]"
                      " [--baseline PATH] [--check] [--out PATH]"
                      " [--list-scenarios]\n";
    } else {
      fail(std::string("unknown flag ") + argv[i] + " (try --help)");
    }
  }
  return parse;
}

// The exiting wrapper every bench main() uses: prints the parse message
// (stderr for errors, stdout for --help / --list-scenarios) and exits when
// the parser asked for it.
inline Cli parse_cli(int argc, char** argv,
                     const std::vector<std::string>& known_scenarios = {}) {
  CliParse parse = parse_cli_args(argc, argv, known_scenarios);
  if (parse.exit_code >= 0) {
    std::FILE* out = parse.exit_code == 0 ? stdout : stderr;
    std::fprintf(out, "%s%s", parse.message.c_str(),
                 parse.message.empty() || parse.message.back() == '\n' ? "" : "\n");
    std::exit(parse.exit_code);
  }
  return parse.cli;
}

struct Env {
  Cli cli;  // seed/weeks/threads/peak overrides (workload-level knobs)
  geo::World world = geo::World::make();
  net::NetworkDb db{world};

  // Titan-learnt safe fractions: 20% for usable European pairs (the
  // production cap), 0 for countries with unusable Internet paths.
  [[nodiscard]] std::map<std::pair<int, int>, double> titan_fractions(
      double cap = 0.20) const {
    std::map<std::pair<int, int>, double> fractions;
    for (const auto c : world.countries_in(geo::Continent::kEurope)) {
      const double f = db.loss().internet_unusable(c) ? 0.0 : cap;
      for (const auto d : world.dcs_in(geo::Continent::kEurope))
        fractions[{c.value(), d.value()}] = f;
    }
    return fractions;
  }

  // The standard split with the CLI's seed/weeks/peak applied on top of the
  // bench's default peak. (Declared after WorkloadSplit below.)
  [[nodiscard]] struct WorkloadSplit workload(double default_peak) const;
};

struct WorkloadSplit {
  workload::Trace history;  // 4 training weeks
  workload::Trace eval;     // 1 evaluation week
};

inline WorkloadSplit make_workload(const geo::World& world, double peak_slot_calls = 150.0,
                                   std::uint64_t seed = 2024, int weeks = 5) {
  // Training history can never be empty (forecast-driven benches would emit
  // NaNs): --weeks 1 generates one training week anyway, same as --weeks 2.
  weeks = std::max(weeks, 2);
  workload::TraceOptions opts;
  opts.weeks = weeks;
  opts.peak_slot_calls = peak_slot_calls;
  opts.seed = seed;
  auto full = workload::TraceGenerator(world).generate(opts);
  const int split = (weeks - 1) * core::kSlotsPerWeek;
  return {full.window(0, split), full.window(split, weeks * core::kSlotsPerWeek)};
}

// Workload from the shared CLI: seed/weeks/peak overrides applied on top of
// the bench's own default peak.
inline WorkloadSplit make_workload(const geo::World& world, const Cli& cli,
                                   double default_peak) {
  return make_workload(world, cli.peak_or(default_peak), cli.seed, cli.weeks);
}

inline WorkloadSplit Env::workload(double default_peak) const {
  return make_workload(world, cli, default_peak);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace titan::bench
