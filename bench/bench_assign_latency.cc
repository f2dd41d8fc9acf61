// Open-loop assignment-latency harness (ROADMAP: "Controller
// assignment-latency budget").
//
// Hammers one OnlineController — the sim's per-shard hot path — at a
// sustained arrival rate (--rate calls/sec) the way the Basil artifact's
// benchmark clients drive their stores: arrivals fire on a fixed schedule
// regardless of how long the previous call took (open loop, so a slow
// controller cannot hide by slowing the offered load), a leading warmup
// and trailing cooldown window are excluded from the measurement, and the
// measured window reduces to p50/p90/p99/max microseconds.
//
// The op stream replays the standard evaluation trace through the real
// controller API: every call is an assign_initial at its arrival and a
// converge with its true config a few ops later, so the measured mix is
// the engine's (plan picks, recent-config guesses, miss-path media
// variants, fallbacks, out-of-plan convergences).
//
// --out writes the report in the perf-report schema; --baseline names the
// committed budget JSON (bench/baselines/assign_latency_budget.json) and
// --check enforces it: exit 1 when the measured p99 exceeds the budget,
// when too few samples were measured, or when the run's config does not
// match the budget's pinned arrival rate / window layout
// (sweep::latency_budget_check; docs/observability.md).
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "core/hash.h"
#include "obs/metrics.h"
#include "sweep/perf_report.h"
#include "titannext/controller.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Op {
  std::uint32_t call = 0;
  bool converge = false;
  titan::core::SlotIndex t = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  const bench::Cli cli = bench::parse_cli(argc, argv);
  bench::print_header("Open-loop assignment-latency harness",
                      "§6.4 online controller, per-call latency budget");

  // The controller under test is one sim shard's: a Europe plan solved on
  // the trace's own counts (oracle; forecasting is not what is measured)
  // over a half-day horizon — big enough to be the production lookup
  // shape, small enough that the one-off LP solve stays out of the way.
  bench::Env env;
  env.cli = cli;
  const auto split = env.workload(300.0);
  titannext::PlanScope scope;
  scope.timeslots = core::kSlotsPerDay / 2;
  scope.max_reduced_configs = 40;
  titannext::PlanInputs inputs(env.db, scope, env.titan_fractions());
  inputs.set_demand(split.eval.configs(), split.eval.config_counts(), true);
  const titannext::OfflinePlan plan(&inputs, titannext::solve_plan(inputs, {}));
  if (!plan.valid()) {
    std::fprintf(stderr, "plan LP did not solve to optimality; cannot measure\n");
    return 1;
  }
  titannext::OnlineController controller(inputs, plan, {});

  // Pregenerate the op stream so nothing but the controller call sits
  // inside the timed region. Arrivals cycle through the eval trace; each
  // arrival's converge (with the call's true config) fires once 16 older
  // arrivals are in flight — the sim's arrival/convergence interleaving at
  // a fixed small pipeline depth.
  const auto& calls = split.eval.calls();
  if (calls.empty()) {
    std::fprintf(stderr, "empty eval trace\n");
    return 1;
  }
  const double total_seconds = cli.warmup_sec + cli.measure_sec + cli.cooldown_sec;
  const std::size_t total_ops =
      static_cast<std::size_t>(cli.rate_per_sec * total_seconds) + 1;
  std::vector<Op> ops;
  ops.reserve(total_ops);
  {
    std::deque<std::uint32_t> in_flight;
    std::uint32_t next_call = 0;
    for (std::size_t i = 0; i < total_ops; ++i) {
      Op op;
      if (in_flight.size() >= 16) {
        op.call = in_flight.front();
        op.converge = true;
        in_flight.pop_front();
      } else {
        op.call = next_call;
        in_flight.push_back(next_call);
        next_call = (next_call + 1) % static_cast<std::uint32_t>(calls.size());
      }
      op.t = calls[op.call].start_slot % scope.timeslots;
      ops.push_back(op);
    }
  }

  // Pending initial assignments by call index (the convergence input).
  std::vector<titannext::InitialAssignment> pending(calls.size());
  core::Rng rng(core::hash_key(cli.seed, 0xA551, 0));
  const obs::Histogram::Options lat_opts{0.01, 1e6, 8};
  obs::Histogram measured(lat_opts), excluded(lat_opts);
  std::int64_t arrivals = 0, converges = 0, fallbacks = 0, out_of_plan = 0;
  std::int64_t behind_schedule = 0;
  const double interval = 1.0 / cli.rate_per_sec;

  std::printf("rate %.0f calls/sec, windows %.2fs warmup + %.2fs measure + %.2fs cooldown"
              " (%zu ops)\n",
              cli.rate_per_sec, cli.warmup_sec, cli.measure_sec, cli.cooldown_sec, total_ops);

  const auto start = Clock::now();
  for (std::size_t i = 0; i < total_ops; ++i) {
    const double offset = static_cast<double>(i) * interval;
    const auto sched = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(offset));
    // Open loop: spin until the scheduled arrival. If the previous op ran
    // long we are already past it — issue immediately and count the slip.
    auto now = Clock::now();
    while (now < sched) now = Clock::now();
    if (now - sched > std::chrono::milliseconds(1)) ++behind_schedule;

    const Op& op = ops[i];
    const auto& call = calls[op.call];
    const auto t0 = Clock::now();
    if (op.converge) {
      const auto& config = split.eval.configs().get(call.config);
      const auto conv = controller.converge(pending[op.call], config, op.t, rng);
      if (conv.out_of_plan) ++out_of_plan;
      ++converges;
    } else {
      const auto& config = split.eval.configs().get(call.config);
      pending[op.call] = controller.assign_initial(call.first_joiner, config.media, op.t, rng);
      if (!pending[op.call].from_plan) ++fallbacks;
      ++arrivals;
    }
    const auto t1 = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    const bool in_window =
        offset >= cli.warmup_sec && offset < cli.warmup_sec + cli.measure_sec;
    (in_window ? measured : excluded).record(us);
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  core::TextTable table({"metric", "value"});
  table.add_row({"ops issued", std::to_string(arrivals + converges) + "  (" +
                                   std::to_string(arrivals) + " assign_initial, " +
                                   std::to_string(converges) + " converge)"});
  table.add_row({"fallback assignments", std::to_string(fallbacks)});
  table.add_row({"out-of-plan convergences", std::to_string(out_of_plan)});
  table.add_row({"behind schedule (>1ms)", std::to_string(behind_schedule)});
  table.add_row({"measured samples", std::to_string(measured.total_count())});
  table.add_row({"p50", core::TextTable::num(measured.quantile(0.50), 2) + " us"});
  table.add_row({"p90", core::TextTable::num(measured.quantile(0.90), 2) + " us"});
  table.add_row({"p99", core::TextTable::num(measured.quantile(0.99), 2) + " us"});
  table.add_row({"max", core::TextTable::num(measured.max(), 2) + " us"});
  table.add_row({"wall time", core::TextTable::num(wall, 2) + " s"});
  std::printf("%s", table.render().c_str());

  // Perf-report-schema output: config echoes the knobs the budget pins.
  sweep::Json config = sweep::Json::object();
  config.set("rate_per_sec", sweep::Json::number(cli.rate_per_sec));
  config.set("warmup_seconds", sweep::Json::number(cli.warmup_sec));
  config.set("measure_seconds", sweep::Json::number(cli.measure_sec));
  config.set("cooldown_seconds", sweep::Json::number(cli.cooldown_sec));
  config.set("seed", sweep::Json::number(static_cast<double>(cli.seed)));
  config.set("peak_slot_calls", sweep::Json::number(cli.peak_or(300.0)));

  sweep::Json det = sweep::Json::object();
  det.set("arrivals", sweep::Json::number(static_cast<double>(arrivals)));
  det.set("converges", sweep::Json::number(static_cast<double>(converges)));
  det.set("fallbacks", sweep::Json::number(static_cast<double>(fallbacks)));
  det.set("out_of_plan", sweep::Json::number(static_cast<double>(out_of_plan)));
  det.set("demands", sweep::Json::number(static_cast<double>(inputs.demands().size())));
  det.set("dcs", sweep::Json::number(static_cast<double>(inputs.dcs().size())));

  sweep::Json thr = sweep::Json::object();
  thr.set("offered_per_sec", sweep::Json::number(cli.rate_per_sec));
  thr.set("behind_schedule", sweep::Json::number(static_cast<double>(behind_schedule)));
  thr.set("wall_seconds", sweep::Json::number(wall));

  sweep::Json scenario = sweep::Json::object();
  scenario.set("scenario", sweep::Json::string("assign-open-loop"));
  scenario.set("deterministic", std::move(det));
  scenario.set("throughput", std::move(thr));
  scenario.set("assign_latency_us", sweep::latency_json(measured));
  scenario.set("excluded_latency_us", sweep::latency_json(excluded));

  sweep::Json report = sweep::Json::object();
  report.set("schema_version", sweep::Json::number(sweep::kPerfSchemaVersion));
  report.set("kind", sweep::Json::string("assign_latency"));
  report.set("config", std::move(config));
  sweep::Json scenarios = sweep::Json::array();
  scenarios.push_back(std::move(scenario));
  report.set("scenarios", std::move(scenarios));

  if (!cli.out_path.empty()) {
    std::ofstream out(cli.out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.out_path.c_str());
      return 1;
    }
    out << report.dump(2) << "\n";
    std::printf("wrote %s\n", cli.out_path.c_str());
  }

  // Budget enforcement: gates CI (the parser already refused --check
  // without --baseline).
  if (cli.check) {
    std::ifstream in(cli.baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read budget %s\n", cli.baseline_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    sweep::Json budget;
    try {
      budget = sweep::Json::parse(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "budget %s unparsable: %s\n", cli.baseline_path.c_str(), e.what());
      return 1;
    }
    const auto check = sweep::latency_budget_check(budget, report);
    std::printf("%s", check.text.c_str());
    if (!check.ok) return 1;
  }
  return 0;
}
