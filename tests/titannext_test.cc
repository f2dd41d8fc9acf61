// Tests for Titan-Next: plan inputs (reduction/grouping, capacities,
// latency helpers), the Fig. 13 LP (constraint satisfaction, offload
// behaviour, ablations), the offline plan, the online controller, and the
// forecasting pipeline.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "tests/lp_certificate.h"
#include "titannext/controller.h"
#include "titannext/pipeline.h"

namespace titan::titannext {
namespace {

class TitanNextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new geo::World(geo::World::make());
    db_ = new net::NetworkDb(*world_);
    workload::TraceOptions topts;
    topts.weeks = 3;  // 2 training + 1 eval
    topts.peak_slot_calls = 80.0;
    trace_ = new workload::Trace(workload::TraceGenerator(*world_).generate(topts));

    fractions_ = new std::map<std::pair<int, int>, double>();
    for (const auto c : world_->countries_in(geo::Continent::kEurope)) {
      const double f = db_->loss().internet_unusable(c) ? 0.0 : 0.20;
      for (const auto d : world_->dcs_in(geo::Continent::kEurope))
        (*fractions_)[{c.value(), d.value()}] = f;
    }
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete fractions_;
    delete db_;
    delete world_;
    world_ = nullptr;
    db_ = nullptr;
    trace_ = nullptr;
    fractions_ = nullptr;
  }

  static PlanScope small_scope() {
    PlanScope scope;
    scope.timeslots = 12;
    scope.max_reduced_configs = 25;
    return scope;
  }

  static geo::World* world_;
  static net::NetworkDb* db_;
  static workload::Trace* trace_;
  static std::map<std::pair<int, int>, double>* fractions_;
};

geo::World* TitanNextTest::world_ = nullptr;
net::NetworkDb* TitanNextTest::db_ = nullptr;
workload::Trace* TitanNextTest::trace_ = nullptr;
std::map<std::pair<int, int>, double>* TitanNextTest::fractions_ = nullptr;

// --- PlanInputs -----------------------------------------------------------------

TEST_F(TitanNextTest, DemandGroupingPreservesResources) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  const auto counts = trace_->config_counts();
  inputs.set_demand(trace_->configs(), counts, /*use_reduction=*/true);

  ASSERT_FALSE(inputs.demands().empty());
  ASSERT_LE(static_cast<int>(inputs.demands().size()), small_scope().max_reduced_configs);

  // Compare total bandwidth demand in slot 9 (a busy morning slot) between
  // grouped demands and raw configs restricted to the kept shapes.
  double grouped_bw = 0.0;
  for (const auto& d : inputs.demands())
    grouped_bw += d.units_per_slot[9] * d.config.network_mbps();
  double raw_bw = 0.0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const auto& config = trace_->configs().get(core::ConfigId(static_cast<int>(c)));
    const auto reduced = workload::reduce(config);
    if (inputs.demand_index(reduced.config) < 0) continue;
    raw_bw += counts[c][9] * config.network_mbps();
  }
  EXPECT_NEAR(grouped_bw, raw_bw, 1e-6);
}

// The §6.2 grouping as a std::map keyed by shape, reducing every config on
// every call: set_demand's reference, which it must match bit for bit.
std::vector<ReducedDemand> map_grouped_demand(const workload::ConfigRegistry& registry,
                                              const std::vector<std::vector<double>>& counts,
                                              bool use_reduction, const PlanScope& scope) {
  std::map<workload::CallConfig, ReducedDemand> grouped;
  for (std::size_t cfg = 0; cfg < registry.size(); ++cfg) {
    const workload::CallConfig& original = registry.get(core::ConfigId(static_cast<int>(cfg)));
    workload::CallConfig shape = original;
    int multiplier = 1;
    if (use_reduction) {
      const auto reduced = workload::reduce(original);
      shape = reduced.config;
      multiplier = reduced.multiplier;
    }
    auto& d = grouped[shape];
    if (d.units_per_slot.empty()) {
      d.config = shape;
      d.units_per_slot.assign(static_cast<std::size_t>(scope.timeslots), 0.0);
    }
    const int n = std::min<int>(scope.timeslots, static_cast<int>(counts[cfg].size()));
    for (int t = 0; t < n; ++t) {
      const double units = counts[cfg][static_cast<std::size_t>(t)] * multiplier;
      d.units_per_slot[static_cast<std::size_t>(t)] += units;
      d.total_units += units;
    }
  }
  std::vector<ReducedDemand> out;
  for (auto& [shape, d] : grouped) out.push_back(std::move(d));
  std::sort(out.begin(), out.end(), [](const ReducedDemand& a, const ReducedDemand& b) {
    return a.total_units > b.total_units;
  });
  if (static_cast<int>(out.size()) > scope.max_reduced_configs)
    out.resize(static_cast<std::size_t>(scope.max_reduced_configs));
  return out;
}

// Checks set_demand against the map grouping; returns whether the
// reference has equal total_units on adjacent demands (a sort tie).
bool expect_map_grouping(const net::NetworkDb& db, const workload::Trace& trace,
                         const std::map<std::pair<int, int>, double>& fractions,
                         const PlanScope& scope, bool use_reduction) {
  const auto counts = trace.config_counts();
  PlanInputs inputs(db, scope, fractions);
  inputs.set_demand(trace.configs(), counts, use_reduction);
  const auto want = map_grouped_demand(trace.configs(), counts, use_reduction, scope);
  const auto& got = inputs.demands();
  EXPECT_EQ(got.size(), want.size());
  bool tie = false;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].config, want[i].config) << "demand " << i;
    EXPECT_EQ(got[i].total_units, want[i].total_units) << "demand " << i;
    EXPECT_EQ(got[i].units_per_slot, want[i].units_per_slot) << "demand " << i;
    if (i > 0 && want[i].total_units == want[i - 1].total_units) tie = true;
  }
  return tie;
}

TEST_F(TitanNextTest, DemandGroupingMatchesMapGrouping) {
  PlanScope whole = small_scope();
  whole.max_reduced_configs = 100000;  // no truncation
  for (const bool use_reduction : {true, false}) {
    SCOPED_TRACE(use_reduction ? "reduced" : "full configs");
    EXPECT_TRUE(expect_map_grouping(*db_, *trace_, *fractions_, whole, use_reduction))
        << "no equal total_units: the sort's tie order is not exercised";
    expect_map_grouping(*db_, *trace_, *fractions_, small_scope(), use_reduction);
  }

  // Each registry carries its own table: two traces planned alternately,
  // and a trace rebuilt in the same storage (so at the same address), each
  // group their own configs.
  workload::TraceOptions topts;
  topts.weeks = 1;
  topts.peak_slot_calls = 30.0;
  topts.seed = 77;
  const auto other = workload::TraceGenerator(*world_).generate(topts);
  for (int round = 0; round < 2; ++round) {
    expect_map_grouping(*db_, *trace_, *fractions_, whole, true);
    expect_map_grouping(*db_, other, *fractions_, whole, true);
  }
  std::optional<workload::Trace> reused;
  for (const std::uint64_t seed : {5, 6, 5}) {
    SCOPED_TRACE(seed);
    topts.seed = seed;
    reused.emplace(workload::TraceGenerator(*world_).generate(topts));
    expect_map_grouping(*db_, *reused, *fractions_, whole, true);
  }
}

TEST_F(TitanNextTest, ReductionShrinksConfigSpace) {
  PlanScope scope = small_scope();
  scope.max_reduced_configs = 100000;  // no truncation
  PlanInputs with(*db_, scope, *fractions_);
  with.set_demand(trace_->configs(), trace_->config_counts(), true);
  PlanInputs without(*db_, scope, *fractions_);
  without.set_demand(trace_->configs(), trace_->config_counts(), false);
  EXPECT_LT(with.demands().size(), without.demands().size());
}

TEST_F(TitanNextTest, CapacitiesArePositiveAndScale) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  double total_cap = 0.0, total_inet = 0.0;
  for (const auto dc : inputs.dcs()) {
    EXPECT_GT(inputs.dc_capacity(dc), 0.0);
    total_cap += inputs.dc_capacity(dc);
    total_inet += inputs.internet_capacity(dc);
  }
  EXPECT_GT(total_inet, 0.0);

  // internet_capacity_scale = 0 disables offload capacity entirely.
  PlanScope no_inet = small_scope();
  no_inet.internet_capacity_scale = 0.0;
  PlanInputs inputs0(*db_, no_inet, *fractions_);
  inputs0.set_demand(trace_->configs(), trace_->config_counts(), true);
  for (const auto dc : inputs0.dcs()) EXPECT_DOUBLE_EQ(inputs0.internet_capacity(dc), 0.0);
}

TEST_F(TitanNextTest, MaxE2eLatencyHelper) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  const auto fr = world_->find_country("france");
  const auto se = world_->find_country("sweden");
  const auto nl = world_->find_dc("netherlands");

  workload::CallConfig solo{{{fr, 1}}, media::MediaType::kAudio};
  workload::CallConfig pair{{{fr, 2}}, media::MediaType::kAudio};
  workload::CallConfig intl{{{fr, 1}, {se, 1}}, media::MediaType::kAudio};
  intl.canonicalize();

  const double one_way_fr = db_->latency().base_rtt_ms(fr, nl, net::PathType::kWan) / 2.0;
  const double one_way_se = db_->latency().base_rtt_ms(se, nl, net::PathType::kWan) / 2.0;
  EXPECT_NEAR(inputs.max_e2e_ms(solo, nl, net::PathType::kWan), 2 * one_way_fr, 1e-9);
  EXPECT_NEAR(inputs.max_e2e_ms(pair, nl, net::PathType::kWan), 2 * one_way_fr, 1e-9);
  EXPECT_NEAR(inputs.max_e2e_ms(intl, nl, net::PathType::kWan), one_way_fr + one_way_se,
              1e-9);
  EXPECT_NEAR(inputs.total_latency_ms(intl, nl, net::PathType::kWan),
              2 * one_way_fr + 2 * one_way_se, 1e-9);
}

// --- LP plan ---------------------------------------------------------------------

class PlanTest : public TitanNextTest {
 protected:
  static LpBuildOptions lp_options() {
    LpBuildOptions o;
    o.e2e_bound_ms = 120.0;
    return o;
  }
};

TEST_F(PlanTest, SolvesAndSatisfiesConstraints) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult result = solve_plan(inputs, lp_options());
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(result.sum_of_wan_peaks_mbps, 0.0);

  // C1: every demand fully assigned in every slot.
  for (int t = 0; t < small_scope().timeslots; ++t) {
    for (std::size_t c = 0; c < inputs.demands().size(); ++c) {
      double assigned = 0.0;
      for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries)
        assigned += e.units;
      EXPECT_NEAR(assigned, inputs.demands()[c].units_per_slot[static_cast<std::size_t>(t)],
                  1e-5);
    }
    // C2/C3: per-DC compute and Internet capacity.
    for (const auto dc : inputs.dcs()) {
      double cores = 0.0, inet = 0.0;
      for (std::size_t c = 0; c < inputs.demands().size(); ++c)
        for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries) {
          if (e.dc != dc) continue;
          cores += e.units * inputs.demands()[c].config.compute_cores();
          if (e.path == net::PathType::kInternet)
            inet += e.units * inputs.demands()[c].config.network_mbps();
        }
      EXPECT_LE(cores, inputs.dc_capacity(dc) + 1e-4);
      EXPECT_LE(inet, inputs.internet_capacity(dc) + 1e-4);
    }
  }
}

TEST_F(PlanTest, OffloadReducesWanPeaks) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult with_offload = solve_plan(inputs, lp_options());

  PlanScope no_inet = small_scope();
  no_inet.internet_capacity_scale = 0.0;
  PlanInputs inputs0(*db_, no_inet, *fractions_);
  inputs0.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult without = solve_plan(inputs0, lp_options());

  ASSERT_EQ(with_offload.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(without.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(with_offload.sum_of_wan_peaks_mbps, without.sum_of_wan_peaks_mbps);

  // Doubling the Internet envelope can only help (§7.4's 2x ablation).
  PlanScope doubled = small_scope();
  doubled.internet_capacity_scale = 2.0;
  PlanInputs inputs2(*db_, doubled, *fractions_);
  inputs2.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult more = solve_plan(inputs2, lp_options());
  ASSERT_EQ(more.status, lp::SolveStatus::kOptimal);
  EXPECT_LE(more.sum_of_wan_peaks_mbps, with_offload.sum_of_wan_peaks_mbps + 1e-6);
}

TEST_F(PlanTest, TighterE2eBoundCostsPeaks) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  LpBuildOptions loose = lp_options();
  loose.e2e_bound_ms = 200.0;
  LpBuildOptions tight = lp_options();
  tight.e2e_bound_ms = 40.0;
  const auto l = solve_plan(inputs, loose);
  const auto t = solve_plan(inputs, tight);
  ASSERT_EQ(l.status, lp::SolveStatus::kOptimal);
  // Tight bound is either infeasible or at least as expensive.
  if (t.status == lp::SolveStatus::kOptimal) {
    EXPECT_GE(t.sum_of_wan_peaks_mbps, l.sum_of_wan_peaks_mbps - 1e-6);
  }
  // Unreasonably tight bound must be infeasible.
  LpBuildOptions impossible = lp_options();
  impossible.e2e_bound_ms = 1.0;
  EXPECT_EQ(solve_plan(inputs, impossible).status, lp::SolveStatus::kInfeasible);
}

TEST_F(PlanTest, LocalityObjectiveGetsLowerLatencyThanPeaksObjective) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  LpBuildOptions lf;
  lf.objective = Objective::kMinimizeTotalLatency;
  lf.e2e_bound_ms = 0.0;
  const auto lf_result = solve_plan(inputs, lf);
  const auto tn_result = solve_plan(inputs, lp_options());
  ASSERT_EQ(lf_result.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(tn_result.status, lp::SolveStatus::kOptimal);

  auto avg_latency = [&](const LpPlanResult& r) {
    double lat = 0.0, units = 0.0;
    for (int t = 0; t < small_scope().timeslots; ++t)
      for (std::size_t c = 0; c < inputs.demands().size(); ++c)
        for (const auto& e : r.weights[static_cast<std::size_t>(t)][c].entries) {
          lat += e.units *
                 inputs.total_latency_ms(inputs.demands()[c].config, e.dc, e.path);
          units += e.units;
        }
    return lat / units;
  };
  EXPECT_LE(avg_latency(lf_result), avg_latency(tn_result) + 1e-6);
  // And TN's WAN peaks are no worse than LF's.
  EXPECT_LE(tn_result.sum_of_wan_peaks_mbps, lf_result.sum_of_wan_peaks_mbps + 1e-6);
}

// --- Offline plan + controller ------------------------------------------------------

TEST_F(PlanTest, OfflinePlanPickFollowsWeights) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  ASSERT_TRUE(plan.valid());

  // Find a demand with traffic in slot 9.
  const auto& demands = inputs.demands();
  int c = -1;
  for (std::size_t i = 0; i < demands.size(); ++i)
    if (demands[i].units_per_slot[9] > 0.5) {
      c = static_cast<int>(i);
      break;
    }
  ASSERT_GE(c, 0);
  core::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto a = plan.pick(demands[static_cast<std::size_t>(c)].config, 9, rng);
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(plan.supports(demands[static_cast<std::size_t>(c)].config, 9, a->dc));
  }
  // Unknown shape -> no pick.
  workload::CallConfig unknown{{{world_->find_country("japan"), 1}},
                               media::MediaType::kAudio};
  EXPECT_FALSE(plan.pick(unknown, 9, rng).has_value());
}

// Pins the single-resolution contract: the shape overload resolves the
// demand index exactly once and delegates, so a pick/supports sequence
// through shapes is bit-identical to the same sequence through demand ids
// (pick used to resolve the same shape twice per call — once in
// weights_for, once for the credit row).
TEST_F(PlanTest, OfflinePlanShapeAndIdLookupsAgree) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const auto result = solve_plan(inputs, lp_options());
  OfflinePlan by_shape(&inputs, result);
  OfflinePlan by_id(&inputs, result);
  ASSERT_TRUE(by_shape.valid());

  core::Rng rng_shape(7), rng_id(7);
  const auto& demands = inputs.demands();
  for (int t = 0; t < small_scope().timeslots; ++t) {
    for (std::size_t c = 0; c < demands.size(); ++c) {
      const int idx = inputs.demand_index(demands[c].config);
      ASSERT_EQ(idx, static_cast<int>(c));
      const auto a = by_shape.pick(demands[c].config, t, rng_shape);
      const auto b = by_id.pick(idx, t, rng_id);
      ASSERT_EQ(a.has_value(), b.has_value()) << "t=" << t << " c=" << c;
      if (a.has_value()) {
        EXPECT_EQ(a->dc, b->dc);
        EXPECT_EQ(a->path, b->path);
        EXPECT_EQ(by_shape.supports(demands[c].config, t, a->dc),
                  by_id.supports(idx, t, b->dc));
      }
    }
  }
  // Both rngs consumed identically: the next draw agrees.
  EXPECT_DOUBLE_EQ(rng_shape.uniform(), rng_id.uniform());
}

// An all-zero-units weight row (the LP can emit ~0-weight entries) must be
// out of plan, not a division by zero: before the guard the zero total
// produced NaN credits that stuck to the WRR state and poisoned every
// later pick of that demand.
TEST_F(PlanTest, OfflinePlanZeroTotalWeightsAreOutOfPlan) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  ASSERT_GE(inputs.demands().size(), 2u);
  const auto dc0 = inputs.dcs().at(0);
  const auto dc1 = inputs.dcs().at(1);

  LpPlanResult result;
  result.status = lp::SolveStatus::kOptimal;
  result.weights.assign(static_cast<std::size_t>(small_scope().timeslots),
                        std::vector<AssignmentWeights>(inputs.demands().size()));
  for (auto& row : result.weights) {
    row[0].entries = {{dc0, net::PathType::kWan, 0.0}};  // zero total
    row[1].entries = {{dc0, net::PathType::kWan, 1.0}, {dc1, net::PathType::kWan, 1.0}};
  }
  const OfflinePlan plan(&inputs, std::move(result));
  core::Rng rng(11);

  // The zero-total demand is out of plan at every slot...
  EXPECT_FALSE(plan.pick(0, 0, rng).has_value());
  // ...and interleaving it does not disturb the healthy demand's WRR
  // state: 50/50 weights keep realizing an exact alternation.
  int at_dc0 = 0, at_dc1 = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(plan.pick(0, i % small_scope().timeslots, rng).has_value());
    const auto a = plan.pick(1, i % small_scope().timeslots, rng);
    ASSERT_TRUE(a.has_value());
    (a->dc == dc0 ? at_dc0 : at_dc1) += 1;
  }
  EXPECT_EQ(at_dc0, 5);
  EXPECT_EQ(at_dc1, 5);
}

// The credit-carryover bugfix: at a rolling replan cadence the smoothing
// window per plan generation is short (here: two picks), and restarting
// the credits every swap degenerates smooth WRR toward round-robin — a
// 70/30 plan realizes 50/50. Carrying the (dc, path) credits across the
// swap keeps the realized shares tracking the plan weights.
TEST_F(PlanTest, CreditCarryoverKeepsRollingSharesOnPlan) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const auto dc0 = inputs.dcs().at(0);
  const auto dc1 = inputs.dcs().at(1);

  const auto make_plan = [&] {
    LpPlanResult result;
    result.status = lp::SolveStatus::kOptimal;
    result.weights.assign(static_cast<std::size_t>(small_scope().timeslots),
                          std::vector<AssignmentWeights>(inputs.demands().size()));
    for (auto& row : result.weights)
      row[0].entries = {{dc0, net::PathType::kWan, 0.7}, {dc1, net::PathType::kWan, 0.3}};
    return OfflinePlan(&inputs, std::move(result));
  };

  constexpr int kGenerations = 10;   // replans
  constexpr int kPicksPerGen = 2;    // calls between replans (rolling cadence)
  const auto realized_dc0_share = [&](bool carry) {
    core::Rng rng(13);
    OfflinePlan current = make_plan();
    int at_dc0 = 0;
    for (int g = 0; g < kGenerations; ++g) {
      if (g > 0) {
        // The replan loop's swap: a freshly constructed plan generation.
        OfflinePlan fresh = make_plan();
        if (carry) fresh.carry_credits_from(current);
        current = std::move(fresh);
      }
      for (int k = 0; k < kPicksPerGen; ++k) {
        const auto a = current.pick(0, (g * kPicksPerGen + k) % small_scope().timeslots, rng);
        if (!a.has_value()) {
          ADD_FAILURE() << "no pick in generation " << g;
          return -1.0;
        }
        if (a->dc == dc0) ++at_dc0;
      }
    }
    return static_cast<double>(at_dc0) / (kGenerations * kPicksPerGen);
  };

  // Without the carry each two-pick generation starts from zero credits and
  // serves one call per DC: exactly the round-robin 50/50 drift.
  EXPECT_NEAR(realized_dc0_share(/*carry=*/false), 0.5, 1e-9);
  // With the carry the shares track the 70/30 plan weights (exact at this
  // pick count: smooth WRR realizes 14/6 over 20).
  EXPECT_NEAR(realized_dc0_share(/*carry=*/true), 0.7, 1e-9);
}

TEST_F(PlanTest, ControllerAssignsAndConverges) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  ASSERT_TRUE(plan.valid());
  OnlineController controller(inputs, plan);
  core::Rng rng(6);

  const auto fr = world_->find_country("france");
  const auto initial = controller.assign_initial(fr, media::MediaType::kAudio, 9, rng);
  EXPECT_TRUE(initial.assignment.dc.valid());

  // Converging on the guessed intra-country config itself never migrates.
  workload::CallConfig intra{{{fr, 3}}, media::MediaType::kAudio};
  const auto same = controller.converge(initial, intra, 9, rng);
  EXPECT_FALSE(same.dc_migration);

  // Converging on an out-of-plan config keeps the call in place.
  workload::CallConfig unknown{{{world_->find_country("japan"), 1}},
                               media::MediaType::kAudio};
  const auto odd = controller.converge(initial, unknown, 9, rng);
  EXPECT_TRUE(odd.out_of_plan);
  EXPECT_FALSE(odd.dc_migration);
  EXPECT_EQ(odd.final_assignment.dc, initial.assignment.dc);
}

TEST_F(PlanTest, ControllerRouteFailoverThresholds) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto fr = world_->find_country("france");
  const auto nl = world_->find_dc("netherlands");
  const double wan_rtt = db_->latency().base_rtt_ms(fr, nl, net::PathType::kWan);
  EXPECT_TRUE(controller.should_route_failover(fr, nl, 0.02, wan_rtt));
  EXPECT_TRUE(controller.should_route_failover(fr, nl, 0.0, wan_rtt * 2.0));
  EXPECT_FALSE(controller.should_route_failover(fr, nl, 0.001, wan_rtt * 1.1));
}

TEST_F(PlanTest, FallbackIsNearestDc) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto ie = world_->find_country("ireland");
  const auto fb = controller.fallback(ie);
  EXPECT_EQ(fb.dc, world_->find_dc("ireland"));
  EXPECT_EQ(fb.path, net::PathType::kWan);
}

TEST_F(PlanTest, FallbackExcludePrefersLiveDcs) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto ie = world_->find_country("ireland");
  const auto ie_dc = world_->find_dc("ireland");

  // Excluding the nearest DC moves the call to the next-best live DC.
  const auto fb = controller.fallback(ie, ie_dc);
  EXPECT_TRUE(fb.dc.valid());
  EXPECT_NE(fb.dc, ie_dc);

  // With every other DC fully drained, the excluded-but-live DC wins over
  // any drained one (a partial drain beats a dead DC).
  for (const auto dc : inputs.dcs())
    if (dc != ie_dc) db_->set_dc_compute_scale(dc, 0.0);
  EXPECT_EQ(controller.fallback(ie, ie_dc).dc, ie_dc);

  // Everything drained: the fallback refuses to land on dead capacity and
  // returns the explicit-reject invalid assignment instead.
  db_->set_dc_compute_scale(ie_dc, 0.0);
  EXPECT_FALSE(controller.fallback(ie, ie_dc).valid());

  // The fixture's NetworkDb is suite-shared; restore the scales.
  for (const auto dc : inputs.dcs()) db_->set_dc_compute_scale(dc, 1.0);
}

// --- warm-started replans --------------------------------------------------------

// Re-solving the same inputs through the warm cache transfers the full
// basis: the remap is the identity and the second solve finishes without a
// single pivot, at the same plan.
TEST_F(PlanTest, WarmCacheResolveOfSameInputsDoesZeroIterations) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  WarmStartCache cache;
  const LpPlanResult first = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  EXPECT_FALSE(first.warm_started);
  ASSERT_TRUE(cache.last.valid());
  EXPECT_EQ(cache.last.shapes.size(), inputs.demands().size());

  const auto remapped = remap_basis(cache.last, inputs, lp_options(), 0);
  ASSERT_TRUE(remapped.has_value());
  EXPECT_EQ(*remapped, cache.last.basis);

  const LpPlanResult again = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(again.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(again.warm_started);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

// The shift-aware remap: a disjoint window (shift >= horizon) transfers
// nothing, an overlapping shift produces a full-size candidate basis, and a
// changed horizon refuses outright.
TEST_F(PlanTest, RemapBasisRespectsWindowOverlap) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  WarmStartCache cache;
  ASSERT_EQ(solve_plan(inputs, lp_options(), &cache).status, lp::SolveStatus::kOptimal);

  EXPECT_FALSE(remap_basis(cache.last, inputs, lp_options(), small_scope().timeslots)
                   .has_value());
  EXPECT_FALSE(remap_basis(cache.last, inputs, lp_options(), -1).has_value());

  const auto shifted = remap_basis(cache.last, inputs, lp_options(), 3);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_EQ(shifted->entries.size(), cache.last.basis.entries.size());

  PlanScope longer = small_scope();
  longer.timeslots = 16;
  PlanInputs other(*db_, longer, *fractions_);
  other.set_demand(trace_->configs(), trace_->config_counts(), true);
  EXPECT_FALSE(remap_basis(cache.last, other, lp_options(), 0).has_value());
}

// The closed-loop contract on a steady-week trace at the production
// (rolling-horizon) cadence: replans after the first warm-start from the
// cached basis and spend strictly fewer simplex iterations than the cold
// first replan — and fewer than the same loop with warm replans disabled.
TEST_F(PlanTest, RollingReplansWarmStartWithFewerIterations) {
  sim::Scenario s = sim::make_scenario("steady-week");
  s.training_weeks = 1;
  s.eval_days = 1;
  s.peak_slot_calls = 40.0;
  s.shards = 8;
  s.oracle_counts = true;
  s.pipeline.scope.timeslots = 24;
  s.replan_interval_slots = 4;  // rolling horizon: windows overlap 20/24
  s.pipeline.scope.max_reduced_configs = 20;

  sim::SimEngine engine(s);
  const auto r = engine.run(2);
  ASSERT_GE(r.replans, 3);
  ASSERT_EQ(r.replan_stats.size(), static_cast<std::size_t>(r.replans));
  const auto& first = r.replan_stats.front();
  EXPECT_FALSE(first.warm_started);
  EXPECT_GT(first.iterations, 0);

  int warm = 0, cheaper_than_first = 0;
  long long later_iterations = 0;
  for (std::size_t i = 1; i < r.replan_stats.size(); ++i) {
    const auto& stat = r.replan_stats[i];
    later_iterations += stat.iterations;
    if (stat.warm_started) {
      ++warm;
      cheaper_than_first += stat.iterations < first.iterations;
    }
  }
  EXPECT_GT(warm, 0) << "no replan warm-started on an overlapping horizon";
  // Most warm replans individually undercut the cold first replan (an
  // occasional heavy-repair one may not — the demand set shifts hardest
  // around the night/day transition), and the aggregate strictly beats
  // repeating the first cold solve.
  EXPECT_GT(2 * cheaper_than_first, warm);
  EXPECT_LT(later_iterations,
            static_cast<long long>(r.replan_stats.size() - 1) * first.iterations);

  // ...and beats the identical loop with warm replans disabled.
  sim::Scenario cold_scenario = s;
  cold_scenario.warm_replans = false;
  sim::SimEngine cold_engine(cold_scenario);
  const auto cold = cold_engine.run(2);
  long long cold_later = 0;
  for (std::size_t i = 1; i < cold.replan_stats.size(); ++i) {
    cold_later += cold.replan_stats[i].iterations;
    EXPECT_FALSE(cold.replan_stats[i].warm_started);
  }
  EXPECT_LT(later_iterations, cold_later);
}

// --- region-block decomposition --------------------------------------------------

// A multi-region NA+EU world for the decomposition tests: trace, scope and
// a constant fractions map spanning both continents. The fixture trace is
// Europe-only, so these tests generate their own (small) one.
struct MultiRegionSetup {
  workload::Trace trace;
  // Per-config counts sliced to the plan window (see below) — feed these
  // to set_demand, not trace.config_counts().
  std::vector<std::vector<double>> counts;
  PlanScope scope;
  std::map<std::pair<int, int>, double> fractions;
};

MultiRegionSetup make_na_eu_setup(const geo::World& world, const net::NetworkDb& db) {
  const geo::RegionSet regions({geo::Continent::kNorthAmerica, geo::Continent::kEurope});
  workload::TraceOptions topts;
  topts.weeks = 2;
  topts.peak_slot_calls = 50.0;
  topts.regions = regions;
  topts.cross_region_fraction = 0.35;

  MultiRegionSetup s{workload::TraceGenerator(world).generate(topts), {}, {}, {}};
  s.scope.regions = regions;
  s.scope.timeslots = 12;
  s.scope.max_reduced_configs = 20;
  // Per-DC plan capacity is the global peak split by provisioned share, so
  // a region block is only standalone-feasible when its DCs' share covers
  // its regional peak — at the default headroom the EU block is not, its
  // demands get promoted to the coupling LP, and nothing decomposes. The
  // multi-region scenarios raise the headroom for the same reason.
  s.scope.compute_headroom = 3.0;
  // Window the demand onto UTC 16:00-22:00 (slot 32 on): EU evening and NA
  // midday, so the top-K demand set keeps shapes homed on both sides plus
  // a cross-continent shape for the coupling LP. A window at UTC midnight
  // would see only NA traffic and leave the EU block empty.
  s.counts = s.trace.config_counts();
  for (auto& series : s.counts) series.erase(series.begin(), series.begin() + 32);
  for (const auto c : geo::countries_in(world, regions)) {
    const double f = db.loss().internet_unusable(c) ? 0.0 : 0.20;
    for (const auto d : geo::dcs_in(world, regions)) s.fractions[{c.value(), d.value()}] = f;
  }
  return s;
}

// Restricting inputs to every DC and every demand reproduces them, so
// build_model emits the whole-scope model for that restriction, row for row
// and coefficient for coefficient. A decomposed solve builds its coupling
// LP from such a restriction.
TEST_F(PlanTest, RestrictionToEverythingBuildsTheWholeScopeModel) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs single(*db_, small_scope(), *fractions_);
  single.set_demand(trace_->configs(), trace_->config_counts(), true);
  PlanInputs multi(*db_, setup.scope, setup.fractions);
  multi.set_demand(setup.trace.configs(), setup.counts, true);

  for (const PlanInputs* inputs : {&single, &multi}) {
    std::vector<int> every_dc(inputs->dcs().size());
    std::vector<int> every_demand(inputs->demands().size());
    std::iota(every_dc.begin(), every_dc.end(), 0);
    std::iota(every_demand.begin(), every_demand.end(), 0);
    const lp::LpModel whole = build_model(*inputs, lp_options());
    const lp::LpModel part =
        build_model(inputs->restricted(every_dc, every_demand), lp_options());
    EXPECT_EQ(part.costs(), whole.costs());
    EXPECT_EQ(part.senses(), whole.senses());
    EXPECT_EQ(part.rhs(), whole.rhs());
    const lp::SparseMatrix a = whole.matrix();
    const lp::SparseMatrix b = part.matrix();
    ASSERT_EQ(b.rows(), a.rows());
    ASSERT_EQ(b.cols(), a.cols());
    ASSERT_EQ(b.nnz(), a.nnz());
    for (int j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(b.col_begin(j), a.col_begin(j)) << "column " << j;
      for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
        EXPECT_EQ(b.row_index(k), a.row_index(k));
        EXPECT_EQ(b.value(k), a.value(k));
      }
    }
  }
}

// A genuine NA+EU scope splits into two region blocks plus a coupling LP
// over the cross-continent demands. The composed plan is feasible for the
// whole-scope LP, so its cost can only meet or exceed that LP's optimum;
// the coupling LP's incremental peak rows price it exactly; and every
// demand stays fully assigned.
TEST_F(PlanTest, MultiRegionScopeDecomposesIntoRegionBlocks) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);
  ASSERT_GT(inputs.demands().size(), 0u);

  // The demand set must actually exercise the partition: shapes homed on
  // each continent plus at least one cross-continent shape for the
  // coupling LP (deterministic — the trace seed is fixed).
  int cross_demands = 0;
  for (const auto& d : inputs.demands()) {
    bool na = false, eu = false;
    for (const auto& [country, count] : d.config.participants) {
      const auto cont = world_->country(country).continent;
      na = na || cont == geo::Continent::kNorthAmerica;
      eu = eu || cont == geo::Continent::kEurope;
    }
    if (na && eu) ++cross_demands;
  }
  ASSERT_GT(cross_demands, 0);

  const LpPlanResult dec = solve_plan(inputs, lp_options());
  ASSERT_EQ(dec.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(dec.blocks_solved, 2) << "NA+EU scope did not decompose into two blocks";
  EXPECT_FALSE(dec.warm_started);
  EXPECT_NEAR(dec.objective, dec.sum_of_wan_peaks_mbps,
              1e-6 * std::max(1.0, dec.sum_of_wan_peaks_mbps));

  const lp::Solution whole = lp::solve(build_model(inputs, lp_options()));
  ASSERT_EQ(whole.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(dec.sum_of_wan_peaks_mbps, whole.objective - 1e-6);

  // C1 on the composed plan: every demand fully assigned in every slot.
  for (int t = 0; t < setup.scope.timeslots; ++t)
    for (std::size_t c = 0; c < inputs.demands().size(); ++c) {
      double assigned = 0.0;
      for (const auto& e : dec.weights[static_cast<std::size_t>(t)][c].entries)
        assigned += e.units;
      EXPECT_NEAR(assigned,
                  inputs.demands()[c].units_per_slot[static_cast<std::size_t>(t)], 1e-5);
    }
}

// remap_basis across a region-set change: growing the scope (EU -> NA+EU)
// keeps the surviving EU labels and completes the new NA columns/rows with
// slacks, shrinking it drops the vanished NA labels — both directions
// produce a usable candidate and the warm solve lands on the cold
// objective. Both solves share one trace so the demand shapes overlap.
TEST_F(PlanTest, RemapBasisSurvivesRegionEnterAndLeave) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  // C4 off so the EU-only solve of the NA-heavy trace stays feasible.
  LpBuildOptions options = lp_options();
  options.e2e_bound_ms = -1.0;

  PlanScope eu_scope = setup.scope;
  eu_scope.regions = geo::Continent::kEurope;
  PlanInputs eu(*db_, eu_scope, setup.fractions);
  eu.set_demand(setup.trace.configs(), setup.counts, true);
  PlanInputs both(*db_, setup.scope, setup.fractions);
  both.set_demand(setup.trace.configs(), setup.counts, true);
  ASSERT_GT(both.dcs().size(), eu.dcs().size());

  // The warm context a solve of the whole of `inputs` leaves behind.
  const auto context = [](const PlanInputs& inputs, const lp::Solution& sol) {
    PlanBasisContext ctx;
    ctx.basis = sol.basis;
    for (const auto& d : inputs.demands()) ctx.shapes.push_back(d.config);
    ctx.dcs = inputs.dcs();
    ctx.links = inputs.links();
    ctx.timeslots = inputs.scope().timeslots;
    return ctx;
  };
  const lp::LpModel eu_model = build_model(eu, options);
  const lp::LpModel both_model = build_model(both, options);
  const lp::Solution cold_eu = lp::solve(eu_model);
  const lp::Solution cold_both = lp::solve(both_model);
  ASSERT_EQ(cold_eu.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(cold_both.status, lp::SolveStatus::kOptimal);

  // Region enter: EU basis remapped onto the NA+EU model.
  const auto entered = remap_basis(context(eu, cold_eu), both, options);
  ASSERT_TRUE(entered.has_value()) << "region enter produced no candidate basis";
  EXPECT_GT(entered->entries.size(), cold_eu.basis.entries.size());
  const lp::Solution warm_both = lp::solve(both_model, *entered);
  ASSERT_EQ(warm_both.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(warm_both.objective, cold_both.objective,
              1e-6 * std::max(1.0, std::abs(cold_both.objective)));

  // Region leave: the NA+EU basis remapped back onto the EU-only model.
  const auto left = remap_basis(context(both, warm_both), eu, options);
  ASSERT_TRUE(left.has_value()) << "region leave produced no candidate basis";
  EXPECT_LT(left->entries.size(), warm_both.basis.entries.size());
  const lp::Solution warm_eu = lp::solve(eu_model, *left);
  ASSERT_EQ(warm_eu.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(warm_eu.objective, cold_eu.objective,
              1e-6 * std::max(1.0, std::abs(cold_eu.objective)));
}

// A decomposed attempt that fails a gate is discarded for the whole-scope
// solve, and its work is counted, not dropped: at a 22 ms E2E bound the
// composed NA+EU plan violates C4, so the result is the cold whole-scope
// solve with the attempt's pivots in fallback_pivots and its time in
// fallback_seconds.
TEST_F(PlanTest, DiscardedDecompositionCountsAsFallbackPivots) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);
  LpBuildOptions options = lp_options();
  options.e2e_bound_ms = 22.0;

  const LpPlanResult result = solve_plan(inputs, options);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(result.blocks_solved, 0);
  EXPECT_GT(result.fallback_pivots, 0);
  EXPECT_GT(result.fallback_seconds, 0.0);
  EXPECT_LE(result.fallback_seconds, result.solve_seconds);
  const lp::Solution whole = lp::solve(build_model(inputs, options));
  ASSERT_EQ(whole.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(result.iterations, whole.iterations);
  EXPECT_EQ(result.objective, whole.objective);
}

// The model with row i's rhs replaced by rhs(i, old rhs), everything else
// (costs, senses, coefficients, row and column order) unchanged.
template <class Rhs>
lp::LpModel with_rhs(const lp::LpModel& model, Rhs rhs) {
  lp::LpModel out;
  for (int j = 0; j < model.num_variables(); ++j)
    out.add_variable(model.costs()[static_cast<std::size_t>(j)]);
  for (int i = 0; i < model.num_constraints(); ++i)
    out.add_constraint(model.senses()[static_cast<std::size_t>(i)],
                       rhs(i, model.rhs()[static_cast<std::size_t>(i)]));
  const lp::SparseMatrix a = model.matrix();
  for (int j = 0; j < a.cols(); ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      out.add_coefficient(a.row_index(k), j, a.value(k));
  return out;
}

// Pins the simplex pivot path at the LP layer, where a change to pricing,
// the ratio test, the LU solves' arithmetic or the refactorization cadence
// shows without a closed-loop run: a cold solve of the NA+EU whole-scope
// plan LP (hundreds of pivots over several refactorization cycles),
// then a warm re-solve from its basis after a rhs perturbation. Both run
// the dual phase before phase 2, the cold one from the slack/artificial
// basis. The cold objective bits predate that: primal phase 1 reached the
// same bits in 2,610 pivots where the dual phase needs 531. The warm
// half was re-recorded when the dual phase replaced primal restoration
// (1,093 pivots before, 231 after) and again when cold solves moved onto
// it (149, one ulp off the objective). Only a deliberate pivot-rule change
// may move them.
TEST_F(PlanTest, PlanLpPivotPathIsPinned) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);
  const lp::LpModel model = build_model(inputs, lp_options());

  const lp::Solution cold = lp::solve(model);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_FALSE(cold.warm_started);
  EXPECT_EQ(cold.iterations, 531);
  EXPECT_EQ(cold.phase1_iterations, 531);
  EXPECT_EQ(cold.refactorizations, 9);
  EXPECT_EQ(cold.stall_pivots, 0);
  EXPECT_EQ(cold.bland_pivots, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cold.objective), 0x4042947ae147ae11ULL)
      << std::hexfloat << cold.objective;
  EXPECT_TRUE(lp::optimality_certificate(model, cold));

  // Every third rhs grows by half: primal damage on a dual-feasible seed,
  // which the dual phase repairs to the optimum without a phase-2 pivot.
  const lp::LpModel perturbed =
      with_rhs(model, [](int i, double b) { return i % 3 == 0 ? b * 1.5 : b; });
  const lp::Solution warm = lp::solve(perturbed, cold.basis);
  ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.fallback_pivots, 0);
  EXPECT_EQ(warm.iterations, 149);
  EXPECT_EQ(warm.phase1_iterations, 149);
  EXPECT_EQ(warm.refactorizations, 3);
  EXPECT_EQ(warm.stall_pivots, 0);
  EXPECT_EQ(warm.bland_pivots, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.objective), 0x404b51c197ca67daULL)
      << std::hexfloat << warm.objective;
  EXPECT_TRUE(lp::optimality_certificate(perturbed, warm));
}

// Differential test of the warm path against the cold one on a rolling
// replan sequence of the NA+EU whole-scope plan LP: a 24-slot horizon that
// advances 3 slots per replan, with demand perturbed per replan and one DC
// cut to half its compute from the fourth replan on. Each replan is seeded
// from its predecessor's basis, so its seed carries the fresh horizon tail
// (hot artificials), demand drift and the capacity cut (negative basics)
// and shape churn (dual infeasibility). Every warm solve must stay warm and
// land on the cold solve's objective, and both carry the optimality
// certificate.
TEST_F(PlanTest, RollingWarmReplansMatchColdSolves) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanScope scope = setup.scope;
  scope.timeslots = 24;
  constexpr int kShift = 3;
  constexpr int kReplans = 7;
  constexpr int kCutReplan = 3;

  struct RestoreScales {
    net::NetworkDb& db;
    std::vector<core::DcId> dcs;
    ~RestoreScales() {
      for (const auto dc : dcs) db.set_dc_compute_scale(dc, 1.0);
    }
  } restore{*db_, {}};

  core::Rng rng(4242);
  PlanBasisContext prev;
  int warm_solves = 0;
  for (int k = 0; k < kReplans; ++k) {
    std::vector<std::vector<double>> counts = setup.counts;
    for (auto& series : counts) {
      series.erase(series.begin(), series.begin() + k * kShift);
      for (double& c : series) c *= rng.uniform(0.85, 1.15);
    }
    if (k == kCutReplan) {
      PlanInputs probe(*db_, scope, setup.fractions);
      restore.dcs = probe.dcs();
      db_->set_dc_compute_scale(probe.dcs().front(), 0.5);
    }
    PlanInputs inputs(*db_, scope, setup.fractions);
    inputs.set_demand(setup.trace.configs(), counts, true);
    const lp::LpModel model = build_model(inputs, lp_options());
    const lp::Solution cold = lp::solve(model);
    ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal) << "replan " << k;
    EXPECT_TRUE(lp::optimality_certificate(model, cold)) << "replan " << k;

    lp::Solution sol = cold;
    if (k > 0) {
      const auto seed = remap_basis(prev, inputs, lp_options(), kShift);
      ASSERT_TRUE(seed.has_value()) << "replan " << k;
      sol = lp::solve(model, *seed);
      ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal) << "replan " << k;
      EXPECT_TRUE(sol.warm_started) << "replan " << k;
      EXPECT_EQ(sol.fallback_pivots, 0) << "replan " << k;
      EXPECT_NEAR(sol.objective, cold.objective, 1e-9 * std::abs(cold.objective))
          << "replan " << k;
      EXPECT_TRUE(lp::optimality_certificate(model, sol)) << "replan " << k;
      warm_solves += sol.phase1_iterations > 0;
    }
    prev.basis = sol.basis;
    prev.shapes.clear();
    for (const auto& d : inputs.demands()) prev.shapes.push_back(d.config);
    prev.dcs = inputs.dcs();
    prev.links = inputs.links();
    prev.timeslots = scope.timeslots;
    prev.e2e_row = true;  // lp_options() sets an E2E bound and demand is positive
  }
  EXPECT_EQ(warm_solves, kReplans - 1) << "a seed needed no repair";
}

// Decomposed replans carry one warm context per region block: re-solving
// the same NA+EU inputs warm-starts both blocks (identity remap) and beats
// the first solve's pivot count — only the small coupling LP stays cold.
TEST_F(PlanTest, DecomposedReplansWarmStartPerBlock) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);

  WarmStartCache cache;
  const LpPlanResult first = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(first.blocks_solved, 2);
  EXPECT_FALSE(first.warm_started);
  EXPECT_EQ(cache.blocks.size(), 2u);
  for (const auto& [continent, ctx] : cache.blocks) EXPECT_TRUE(ctx.valid());

  const LpPlanResult again = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(again.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(again.blocks_solved, 2);
  EXPECT_TRUE(again.warm_started);
  EXPECT_LT(again.iterations, first.iterations);
  EXPECT_NEAR(again.objective, first.objective,
              1e-6 * std::max(1.0, std::abs(first.objective)));
}

// A disturbance-forced replan at a rolling cadence KEEPS the warm cache and
// repairs the rhs damage from the cached basis instead of re-solving cold:
// at least one forced replan must be accepted warm.
TEST_F(PlanTest, DisturbanceForcedReplansKeepWarmStart) {
  sim::Scenario s = sim::make_scenario("steady-week");
  s.training_weeks = 1;
  s.eval_days = 1;
  s.peak_slot_calls = 40.0;
  s.shards = 8;
  s.oracle_counts = true;
  s.pipeline.scope.timeslots = 24;
  s.replan_interval_slots = 4;  // rolling horizon: forced replans overlap
  s.pipeline.scope.max_reduced_configs = 20;

  // Partial drains of a busy DC mid-morning: pure rhs damage (plan compute
  // capacity shrinks), the damage the warm dual phase repairs.
  for (const int slot : {9, 13, 17}) {
    sim::Disturbance drain;
    drain.kind = sim::NetworkEventKind::kDcDrain;
    drain.day = 0;
    drain.slot_in_day = slot;
    drain.duration_slots = 2;
    drain.dc = "netherlands";
    drain.magnitude = 0.4;  // keep 40% of compute
    s.disturbances.push_back(drain);
  }

  sim::SimEngine engine(s);
  const auto r = engine.run(2);
  ASSERT_EQ(r.replan_stats.size(), static_cast<std::size_t>(r.replans));

  int forced = 0, forced_warm = 0;
  for (const auto& stat : r.replan_stats) {
    if (!stat.forced) continue;
    ++forced;
    if (stat.warm_started) ++forced_warm;
  }
  ASSERT_GT(forced, 0) << "no disturbance forced a replan";
  EXPECT_GT(forced_warm, 0) << "forced replans all fell back cold";
}

// --- Pipeline / forecasting -----------------------------------------------------

TEST_F(TitanNextTest, ForecastCountsShapes) {
  const auto history = trace_->config_counts();
  const int train_slots = 2 * core::kSlotsPerWeek;
  const auto fc = forecast_counts(history, train_slots, core::kSlotsPerDay, 20);
  ASSERT_EQ(fc.counts.size(), history.size());
  EXPECT_EQ(fc.hw_configs, 20);
  for (const auto& series : fc.counts) {
    ASSERT_EQ(series.size(), static_cast<std::size_t>(core::kSlotsPerDay));
    for (const double v : series) EXPECT_GE(v, 0.0);
  }
}

TEST_F(TitanNextTest, ForecastAccuracyOnTopConfigs) {
  // Fig. 20's headline: small normalized errors for high-volume configs.
  const auto history = trace_->config_counts();
  const int train_slots = 2 * core::kSlotsPerWeek;
  const auto fc = forecast_counts(history, train_slots, core::kSlotsPerDay, 15);

  const auto by_volume = trace_->configs_by_volume();
  std::vector<double> maes;
  for (int rank = 0; rank < 10; ++rank) {
    const auto cfg = static_cast<std::size_t>(by_volume[static_cast<std::size_t>(rank)].value());
    std::vector<double> actual(history[cfg].begin() + train_slots,
                               history[cfg].begin() + train_slots + core::kSlotsPerDay);
    const auto err = forecast::evaluate_forecast(actual, fc.counts[cfg]);
    maes.push_back(err.mae_normalized);
  }
  // Median normalized MAE across the top configs should be small (paper:
  // 4.9% with 4 training weeks; this test trains on only 2).
  std::sort(maes.begin(), maes.end());
  EXPECT_LT(maes[maes.size() / 2], 0.2);
}

// forecast_counts as it was before it read history in place: totals and
// ranking on every call, each series copied. Its reference; it needs every
// series at least `history_end` long.
ForecastOutput copying_forecast(const std::vector<std::vector<double>>& history,
                                int history_end, int horizon, int top_k) {
  ForecastOutput out;
  out.counts.assign(history.size(), std::vector<double>(static_cast<std::size_t>(horizon), 0.0));
  std::vector<std::size_t> order(history.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> totals(history.size(), 0.0);
  for (std::size_t c = 0; c < history.size(); ++c)
    for (int t = 0; t < history_end && t < static_cast<int>(history[c].size()); ++t)
      totals[c] += history[c][static_cast<std::size_t>(t)];
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return totals[a] > totals[b]; });
  const int season = core::kSlotsPerWeek;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t c = order[rank];
    const std::vector<double> series(history[c].begin(), history[c].begin() + history_end);
    if (static_cast<int>(rank) < top_k && history_end >= 2 * season && totals[c] > 0.0) {
      out.counts[c] = forecast::HoltWinters::forecast(
          forecast::HoltWinters::fit_auto(series, season), horizon);
      ++out.hw_configs;
    } else {
      for (int h = 0; h < horizon; ++h) {
        const int src = history_end + h - season;
        out.counts[c][static_cast<std::size_t>(h)] =
            (src >= 0 && src < history_end) ? series[static_cast<std::size_t>(src)] : 0.0;
      }
    }
  }
  return out;
}

void expect_same_forecast(const ForecastOutput& got, const ForecastOutput& want) {
  EXPECT_EQ(got.hw_configs, want.hw_configs);
  ASSERT_EQ(got.counts.size(), want.counts.size());
  for (std::size_t c = 0; c < want.counts.size(); ++c) {
    ASSERT_EQ(got.counts[c].size(), want.counts[c].size()) << "config " << c;
    for (std::size_t h = 0; h < want.counts[c].size(); ++h)
      EXPECT_EQ(got.counts[c][h], want.counts[c][h]) << "config " << c << " slot " << h;
  }
}

TEST_F(TitanNextTest, ForecastMatchesCopyingForecastUnderTwoSeasons) {
  // One training week and a bit: no fit can run, every config persists.
  const auto history = trace_->config_counts();
  const int history_end = core::kSlotsPerWeek + 7;
  const auto fc = forecast_counts(history, history_end, core::kSlotsPerDay, 300);
  EXPECT_EQ(fc.hw_configs, 0);
  expect_same_forecast(fc, copying_forecast(history, history_end, core::kSlotsPerDay, 300));
}

TEST_F(TitanNextTest, ForecastMatchesCopyingForecastWithTiesAtTopK) {
  const auto history = trace_->config_counts();
  const int history_end = 2 * core::kSlotsPerWeek;
  // Call counts are whole numbers, so equal training totals are exact ties.
  // Put top_k inside a run of them, three tied configs on either side:
  // which of them get a fit is then down to the sort's tie order.
  std::vector<double> totals;
  for (const auto& series : history)
    totals.push_back(std::accumulate(series.begin(), series.begin() + history_end, 0.0));
  std::sort(totals.begin(), totals.end(), std::greater<>());
  int top_k = 10;
  while (top_k + 2 < static_cast<int>(totals.size()) &&
         totals[static_cast<std::size_t>(top_k - 3)] != totals[static_cast<std::size_t>(top_k + 2)])
    ++top_k;
  ASSERT_LT(top_k + 2, static_cast<int>(totals.size()));
  ASSERT_GT(totals[static_cast<std::size_t>(top_k + 2)], 0.0);
  const auto fc = forecast_counts(history, history_end, core::kSlotsPerDay, top_k);
  EXPECT_EQ(fc.hw_configs, top_k);
  expect_same_forecast(fc, copying_forecast(history, history_end, core::kSlotsPerDay, top_k));
}

TEST(ForecastCountsTest, ShortSeriesReadZeroPastTheirEnd) {
  const int season = core::kSlotsPerWeek;
  const int horizon = core::kSlotsPerDay;
  const auto ramp = [](int n, double scale) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) v[static_cast<std::size_t>(t)] = scale * (1 + t % 7);
    return v;
  };

  // Persistence only: slot history_end + h - season, 0 where the series ends.
  {
    const int history_end = season + 80;
    const std::vector<std::vector<double>> history = {ramp(100, 1.0), {}};
    const auto fc = forecast_counts(history, history_end, horizon, 5);
    EXPECT_EQ(fc.hw_configs, 0);
    for (int h = 0; h < horizon; ++h) {
      const int src = history_end + h - season;
      EXPECT_EQ(fc.counts[0][static_cast<std::size_t>(h)],
                src < 100 ? history[0][static_cast<std::size_t>(src)] : 0.0);
      EXPECT_EQ(fc.counts[1][static_cast<std::size_t>(h)], 0.0);
    }
  }

  // A fit trains on the series padded with zeros up to history_end.
  {
    const int history_end = 2 * season + 30;
    const std::vector<std::vector<double>> history = {ramp(2 * season, 3.0),
                                                      ramp(2 * season - 20, 1.0), {}};
    const auto fc = forecast_counts(history, history_end, horizon, 1);
    EXPECT_EQ(fc.hw_configs, 1);
    std::vector<double> padded = history[0];
    padded.resize(static_cast<std::size_t>(history_end), 0.0);
    EXPECT_EQ(fc.counts[0], forecast::HoltWinters::forecast(
                                forecast::HoltWinters::fit_auto(padded, season), horizon));
    for (int h = 0; h < horizon; ++h) {
      const int src = history_end + h - season;
      EXPECT_EQ(fc.counts[1][static_cast<std::size_t>(h)],
                src < 2 * season - 20 ? history[1][static_cast<std::size_t>(src)] : 0.0);
      EXPECT_EQ(fc.counts[2][static_cast<std::size_t>(h)], 0.0);
    }
  }
}

TEST_F(TitanNextTest, PipelinePlansOracleAndForecast) {
  PipelineOptions popts;
  popts.scope = small_scope();
  popts.lp.e2e_bound_ms = 120.0;
  popts.top_k_forecast = 15;
  const TitanNextPipeline pipeline(*db_, *fractions_, popts);

  const auto oracle = pipeline.plan_day_oracle(*trace_, 2 * core::kSlotsPerWeek);
  ASSERT_TRUE(oracle.valid());
  EXPECT_GT(oracle.plan.result().sum_of_wan_peaks_mbps, 0.0);

  const auto practical = pipeline.plan_day_forecast(*trace_, 2 * core::kSlotsPerWeek);
  ASSERT_TRUE(practical.valid());
  EXPECT_GT(practical.forecast_seconds, 0.0);
}

// Headroom relaxation: a compute headroom below the horizon's peak demand
// makes the first plan LP infeasible, and the pipeline retries with the
// headroom and e2e bound relaxed by 1.3x. The DayPlan's LP record sums the
// work of every attempt: replaying the attempts by hand reproduces it
// exactly, and it holds more pivots than the accepted solve alone.
TEST_F(TitanNextTest, HeadroomRelaxationRetriesAndSumsEveryAttempt) {
  PipelineOptions popts;
  popts.scope = small_scope();
  popts.scope.compute_headroom = 0.8;  // < 1: the peak slot cannot be served
  popts.lp.e2e_bound_ms = 120.0;
  const TitanNextPipeline pipeline(*db_, *fractions_, popts);
  const auto counts = trace_->config_counts();
  const DayPlan day = pipeline.plan_from_counts(*trace_, counts, 0.0);
  ASSERT_TRUE(day.valid());
  ASSERT_GE(day.lp.attempts, 2);
  EXPECT_EQ(day.plan.result().attempts, 1);
  EXPECT_GT(day.lp.iterations, day.plan.result().iterations);

  PlanScope scope = popts.scope;
  LpBuildOptions lp = popts.lp;
  PlanLpStats replay;
  for (int attempt = 1; attempt <= day.lp.attempts; ++attempt) {
    PlanInputs inputs(*db_, scope, *fractions_);
    inputs.set_demand(trace_->configs(), counts, popts.use_reduction);
    const LpPlanResult result = solve_plan(inputs, lp);
    EXPECT_EQ(result.status, attempt < day.lp.attempts ? lp::SolveStatus::kInfeasible
                                                       : lp::SolveStatus::kOptimal);
    replay += result;
    scope.compute_headroom *= 1.3;
    lp.e2e_bound_ms *= 1.3;
  }
  PlanLpStats recorded = day.lp;
  recorded.zero_wallclock();
  replay.zero_wallclock();
  EXPECT_EQ(recorded, replay);
}

}  // namespace
}  // namespace titan::titannext
