// Tests for the shared bench CLI (bench/common.h): flag parsing, the
// scenario-aware validation (--scenario/--scenarios against a library,
// unknown names exit 2 with the valid list), and --list-scenarios. The
// benches call the exiting wrapper parse_cli(); these tests drive the
// non-exiting core parse_cli_args() it is built on.
#include <gtest/gtest.h>

#include "bench/common.h"
#include "sim/scenario.h"

namespace titan::bench {
namespace {

// argv helper: parse_cli_args wants a mutable char** like main() gets.
CliParse parse(std::vector<std::string> args,
               const std::vector<std::string>& scenarios = {}) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return parse_cli_args(static_cast<int>(argv.size()), argv.data(), scenarios);
}

TEST(BenchCliTest, ParsesSharedAndSweepFlags) {
  const CliParse p = parse({"--seed", "7", "--weeks", "3", "--threads", "4", "--peak",
                            "250", "--seeds", "5", "--scenarios", "steady-week,dc-drain",
                            "--sim-threads", "1,2,8", "--workers", "6", "--baseline",
                            "base.json", "--check", "--out", "sweep.json"},
                           sim::scenario_names());
  ASSERT_LT(p.exit_code, 0) << p.message;
  EXPECT_EQ(p.cli.seed, 7u);
  EXPECT_EQ(p.cli.weeks, 3);
  EXPECT_EQ(p.cli.training_weeks(), 2);
  EXPECT_EQ(p.cli.threads, 4);
  EXPECT_DOUBLE_EQ(p.cli.peak_slot_calls, 250.0);
  EXPECT_EQ(p.cli.seeds, 5);
  EXPECT_EQ(p.cli.scenarios, "steady-week,dc-drain");
  EXPECT_EQ(p.cli.sim_threads, "1,2,8");
  EXPECT_EQ(p.cli.workers, 6);
  EXPECT_EQ(p.cli.baseline_path, "base.json");
  EXPECT_TRUE(p.cli.check);
  EXPECT_EQ(p.cli.out_path, "sweep.json");
}

// The rolling-horizon replan drill and its report are gone (perfbench's
// `steady` vs `cold` measures replan latency); its flag is unknown.
TEST(BenchCliTest, ReplanJsonFlagIsRejected) {
  const CliParse p = parse({"--replan-json", "replan.json"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 2);
  EXPECT_NE(p.message.find("unknown flag --replan-json"), std::string::npos) << p.message;
  const CliParse help = parse({"--help"});
  EXPECT_EQ(help.message.find("--replan-json"), std::string::npos) << help.message;
}

TEST(BenchCliTest, ParsesObservabilityPaths) {
  const CliParse p = parse({"--json", "report.json", "--perf-baseline", "base_perf.json",
                            "--trace-out", "trace.json"},
                           sim::scenario_names());
  ASSERT_LT(p.exit_code, 0) << p.message;
  EXPECT_EQ(p.cli.json_path, "report.json");
  EXPECT_EQ(p.cli.perf_baseline_path, "base_perf.json");
  EXPECT_EQ(p.cli.trace_out_path, "trace.json");
  // Off by default: the hot paths must not pay for tracing unasked.
  const CliParse bare = parse({}, sim::scenario_names());
  EXPECT_TRUE(bare.cli.json_path.empty());
  EXPECT_TRUE(bare.cli.perf_baseline_path.empty());
  EXPECT_TRUE(bare.cli.trace_out_path.empty());
}

TEST(BenchCliTest, ObservabilityFlagsMissingValuesExitTwo) {
  EXPECT_EQ(parse({"--json"}).exit_code, 2);
  EXPECT_EQ(parse({"--perf-baseline"}).exit_code, 2);
  EXPECT_EQ(parse({"--trace-out"}).exit_code, 2);
  // The help text advertises every observability flag.
  const CliParse help = parse({"--help"});
  ASSERT_EQ(help.exit_code, 0);
  EXPECT_NE(help.message.find("--json"), std::string::npos) << help.message;
  EXPECT_NE(help.message.find("--perf-baseline"), std::string::npos) << help.message;
  EXPECT_NE(help.message.find("--trace-out"), std::string::npos) << help.message;
}

// --json is the one scenario report; the separate perf report flag is
// gone and is rejected like any unknown flag.
TEST(BenchCliTest, PerfJsonFlagIsRejected) {
  const CliParse p = parse({"--perf-json", "perf.json"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 2);
  EXPECT_NE(p.message.find("unknown flag --perf-json"), std::string::npos) << p.message;
  const CliParse help = parse({"--help"});
  EXPECT_EQ(help.message.find("--perf-json"), std::string::npos) << help.message;
}

TEST(BenchCliTest, ParsesOpenLoopHarnessFlags) {
  const CliParse p = parse({"--rate", "25000", "--warmup-sec", "1.5", "--measure-sec", "4",
                            "--cooldown-sec", "0.5"});
  ASSERT_LT(p.exit_code, 0) << p.message;
  EXPECT_DOUBLE_EQ(p.cli.rate_per_sec, 25000.0);
  EXPECT_DOUBLE_EQ(p.cli.warmup_sec, 1.5);
  EXPECT_DOUBLE_EQ(p.cli.measure_sec, 4.0);
  EXPECT_DOUBLE_EQ(p.cli.cooldown_sec, 0.5);
  // Zero-length warmup/cooldown are legal (measure everything)...
  EXPECT_LT(parse({"--warmup-sec", "0", "--cooldown-sec", "0"}).exit_code, 0);
  // ...but a non-positive rate or measure window is a usage error, and so
  // is a missing value.
  EXPECT_EQ(parse({"--rate", "0"}).exit_code, 2);
  EXPECT_EQ(parse({"--rate", "-5"}).exit_code, 2);
  EXPECT_EQ(parse({"--measure-sec", "0"}).exit_code, 2);
  EXPECT_EQ(parse({"--warmup-sec", "-1"}).exit_code, 2);
  EXPECT_EQ(parse({"--cooldown-sec", "-1"}).exit_code, 2);
  EXPECT_EQ(parse({"--rate"}).exit_code, 2);
  EXPECT_EQ(parse({"--warmup-sec"}).exit_code, 2);
  EXPECT_EQ(parse({"--measure-sec"}).exit_code, 2);
  EXPECT_EQ(parse({"--cooldown-sec"}).exit_code, 2);
  // The help text advertises the harness flags.
  const CliParse help = parse({"--help"});
  ASSERT_EQ(help.exit_code, 0);
  EXPECT_NE(help.message.find("--rate"), std::string::npos) << help.message;
  EXPECT_NE(help.message.find("--warmup-sec"), std::string::npos) << help.message;
  EXPECT_NE(help.message.find("--measure-sec"), std::string::npos) << help.message;
  EXPECT_NE(help.message.find("--cooldown-sec"), std::string::npos) << help.message;
}

TEST(BenchCliTest, UnknownScenarioExitsTwoWithTheValidList) {
  const CliParse p = parse({"--scenario", "no-such"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 2);
  EXPECT_NE(p.message.find("unknown scenario 'no-such'"), std::string::npos) << p.message;
  // The error names every valid scenario plus the "all" shorthand.
  for (const auto& name : sim::scenario_names())
    EXPECT_NE(p.message.find(name), std::string::npos) << p.message;
  EXPECT_NE(p.message.find("all"), std::string::npos) << p.message;
}

TEST(BenchCliTest, ScenarioAcceptsACommaList) {
  // The singular flag takes a comma list too (the CI overload-smoke step
  // uses it), with the same per-name validation and "all" exclusivity as
  // --scenarios.
  const CliParse p = parse({"--scenario", "overload-sustained,cascading-drain"},
                           sim::scenario_names());
  EXPECT_LT(p.exit_code, 0) << p.message;
  EXPECT_EQ(p.cli.scenario, "overload-sustained,cascading-drain");
  const CliParse bad =
      parse({"--scenario", "overload-sustained,bogus"}, sim::scenario_names());
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.message.find("unknown scenario 'bogus'"), std::string::npos) << bad.message;
  const CliParse mixed =
      parse({"--scenario", "steady-week,all"}, sim::scenario_names());
  EXPECT_EQ(mixed.exit_code, 2);
  EXPECT_NE(mixed.message.find("'all' cannot be combined"), std::string::npos)
      << mixed.message;
}

TEST(BenchCliTest, UnknownNameInScenariosListAlsoExitsTwo) {
  const CliParse p =
      parse({"--scenarios", "steady-week,bogus,dc-drain"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 2);
  EXPECT_NE(p.message.find("unknown scenario 'bogus'"), std::string::npos) << p.message;
}

TEST(BenchCliTest, AllMixedIntoAScenariosListIsRejected) {
  // "all" is only meaningful as the entire --scenarios value; combined
  // with names it would otherwise sail past validation and blow up later
  // in the sweep runner without the helpful message.
  const CliParse p = parse({"--scenarios", "steady-week,all"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 2);
  EXPECT_NE(p.message.find("'all' cannot be combined"), std::string::npos) << p.message;
  const CliParse alone = parse({"--scenarios", "all"}, sim::scenario_names());
  EXPECT_LT(alone.exit_code, 0) << alone.message;
}

TEST(BenchCliTest, KnownScenarioAndAllAreAccepted) {
  for (const auto& name : sim::scenario_names()) {
    const CliParse p = parse({"--scenario", name}, sim::scenario_names());
    EXPECT_LT(p.exit_code, 0) << name << ": " << p.message;
    EXPECT_EQ(p.cli.scenario, name);
  }
  const CliParse all = parse({"--scenario", "all"}, sim::scenario_names());
  EXPECT_LT(all.exit_code, 0) << all.message;
  // Without a library, any scenario string passes through unvalidated
  // (non-sim benches ignore it).
  const CliParse unchecked = parse({"--scenario", "anything"});
  EXPECT_LT(unchecked.exit_code, 0) << unchecked.message;
}

TEST(BenchCliTest, ListScenariosPrintsTheLibraryAndExitsZero) {
  const CliParse p = parse({"--list-scenarios"}, sim::scenario_names());
  EXPECT_EQ(p.exit_code, 0);
  for (const auto& name : sim::scenario_names())
    EXPECT_NE(p.message.find(name + "\n"), std::string::npos) << p.message;
  // Without a scenario library the flag is a usage error.
  const CliParse bare = parse({"--list-scenarios"});
  EXPECT_EQ(bare.exit_code, 2);
}

TEST(BenchCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(parse({"--no-such-flag"}).exit_code, 2);
  EXPECT_EQ(parse({"--seed"}).exit_code, 2);     // missing value
  EXPECT_EQ(parse({"--weeks", "0"}).exit_code, 2);
  EXPECT_EQ(parse({"--seeds", "0"}).exit_code, 2);
  const CliParse help = parse({"--help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.message.find("usage:"), std::string::npos);
}

TEST(BenchCliTest, SplitCsvHandlesEdgeShapes) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("one"), (std::vector<std::string>{"one"}));
  EXPECT_EQ(split_csv(""), (std::vector<std::string>{}));
  EXPECT_EQ(split_csv("a,,b,"), (std::vector<std::string>{"a", "b"}));
  // Whitespace around tokens is trimmed ("a, b" == "a,b").
  EXPECT_EQ(split_csv("a, b ,  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("  ,  "), (std::vector<std::string>{}));
}

}  // namespace
}  // namespace titan::bench
