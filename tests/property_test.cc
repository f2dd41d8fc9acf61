// Cross-module property tests: parameterized sweeps over invariants that
// must hold for every instance — latency physics per (country, DC) pair,
// loss bounds per path type, RTP accounting per media type, reduction
// algebra per random config, LP plan feasibility per scope, and the
// deterministic smooth-WRR realization of plan weights.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "media/mos.h"
#include "media/rtp.h"
#include "net/network_db.h"
#include "titannext/plan.h"
#include "titannext/lp_builder.h"
#include "workload/call_config.h"
#include "workload/callgen.h"

namespace titan {
namespace {

struct Fixture {
  geo::World world = geo::World::make();
  net::NetworkDb db{world};
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// ---- Latency physics, swept over every (country, DC, path, epoch) --------

class LatencyPhysicsTest : public ::testing::TestWithParam<int> {};

TEST_P(LatencyPhysicsTest, EveryPairRespectsBoundsAtEveryEpoch) {
  auto& f = fixture();
  const double epoch = -4.0 * GetParam();  // 0, -4, -8, -12 months
  net::NetworkDbOptions opts;
  opts.latency.epoch_months = epoch;
  const net::NetworkDb db(f.world, opts);
  for (const auto& c : f.world.countries()) {
    for (const auto& d : f.world.dcs()) {
      const double bound = 2.0 * geo::fiber_delay_ms(c.centroid, d.position);
      for (const auto p : {net::PathType::kWan, net::PathType::kInternet}) {
        const double rtt = db.latency().base_rtt_ms(c.id, d.id, p);
        EXPECT_GE(rtt, bound) << c.name << "->" << d.name;
        EXPECT_LT(rtt, bound + 500.0) << c.name << "->" << d.name;  // sane upper bound
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epochs, LatencyPhysicsTest, ::testing::Range(0, 4));

// ---- Loss bounds per path, swept over days --------------------------------

class LossBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(LossBoundsTest, LossStaysInValidRangeEveryDay) {
  auto& f = fixture();
  const int day = GetParam();
  for (const auto& c : f.world.countries()) {
    for (const auto d : f.world.dcs_in(geo::Continent::kEurope)) {
      for (int s = 0; s < core::kSlotsPerDay; s += 7) {
        const auto slot = static_cast<core::SlotIndex>(day * core::kSlotsPerDay + s);
        const double wan = f.db.loss().slot_loss(c.id, d, net::PathType::kWan, slot);
        const double inet = f.db.loss().slot_loss(c.id, d, net::PathType::kInternet, slot);
        EXPECT_GE(wan, 0.0);
        EXPECT_LE(wan, 0.0002);  // WAN bounded everywhere (Fig. 7)
        EXPECT_GE(inet, 0.0);
        EXPECT_LE(inet, 0.2);
        EXPECT_GT(f.db.loss().slot_jitter_ms(c.id, d, net::PathType::kWan, slot), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Days, LossBoundsTest, ::testing::Range(0, 7));

// ---- RTP accounting per media type and loss level --------------------------

struct RtpCase {
  media::MediaType media;
  double loss;
};

class RtpAccountingTest : public ::testing::TestWithParam<RtpCase> {};

TEST_P(RtpAccountingTest, ReceiverReportsMatchConfiguredLoss) {
  const auto [media_type, loss] = GetParam();
  core::Rng rng(7000 + static_cast<std::uint64_t>(loss * 1e4) +
                static_cast<std::uint64_t>(media_type));
  media::RtpLegParams leg;
  leg.packet_rate_pps = media::packet_rate_pps(media_type);
  leg.duration_s = 40.0;
  leg.loss = loss;
  const auto stats = media::simulate_leg(leg, rng);
  EXPECT_EQ(stats.packets_sent,
            static_cast<std::uint32_t>(leg.packet_rate_pps * leg.duration_s));
  const double tolerance = 3.0 * std::sqrt(loss / stats.packets_sent + 1e-9) + 0.002;
  EXPECT_NEAR(stats.loss_fraction, loss, tolerance);
  EXPECT_LE(stats.cumulative_lost, stats.packets_sent);
  EXPECT_GE(stats.interarrival_jitter_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RtpAccountingTest,
    ::testing::Values(RtpCase{media::MediaType::kAudio, 0.0},
                      RtpCase{media::MediaType::kAudio, 0.01},
                      RtpCase{media::MediaType::kAudio, 0.05},
                      RtpCase{media::MediaType::kScreenShare, 0.005},
                      RtpCase{media::MediaType::kScreenShare, 0.02},
                      RtpCase{media::MediaType::kVideo, 0.001},
                      RtpCase{media::MediaType::kVideo, 0.03}));

// ---- MOS monotonicity over latency and loss grids ----------------------------

class MosGridTest : public ::testing::TestWithParam<int> {};

TEST_P(MosGridTest, MonotoneInBothArguments) {
  const media::MosModel mos;
  const double base_ms = 40.0 + 30.0 * GetParam();
  const double step_ms = 25.0;
  for (double loss : {0.0, 0.01, 0.05}) {
    EXPECT_GE(mos.expected(base_ms, loss), mos.expected(base_ms + step_ms, loss) - 1e-12);
    EXPECT_GE(mos.expected(base_ms, loss), mos.expected(base_ms, loss + 0.01) - 1e-12);
    EXPECT_GE(mos.expected(base_ms, loss), 1.0);
    EXPECT_LE(mos.expected(base_ms, loss), 5.0);
  }
}

INSTANTIATE_TEST_SUITE_P(LatencyGrid, MosGridTest, ::testing::Range(0, 8));

// ---- Reduction algebra on random configs -------------------------------------

class ReductionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReductionPropertyTest, ReductionIsIdempotentAndPreservesResources) {
  auto& f = fixture();
  core::Rng rng(9000 + static_cast<std::uint64_t>(GetParam()));
  const auto eu = f.world.countries_in(geo::Continent::kEurope);

  workload::CallConfig config;
  const int n_countries = 1 + static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < n_countries; ++i) {
    const auto c = eu[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(eu.size()) - 1))];
    config.participants.push_back({c, 1 + static_cast<int>(rng.uniform_int(0, 5))});
  }
  config.media = static_cast<media::MediaType>(rng.uniform_int(0, 2));
  config.canonicalize();

  const auto reduced = workload::reduce(config);
  // Resources preserved: multiplier x reduced == original.
  EXPECT_NEAR(reduced.multiplier * reduced.config.network_mbps(), config.network_mbps(),
              1e-9);
  EXPECT_NEAR(reduced.multiplier * reduced.config.compute_cores(), config.compute_cores(),
              1e-9);
  // Media type preserved; country set preserved.
  EXPECT_EQ(reduced.config.media, config.media);
  EXPECT_EQ(reduced.config.participants.size(), config.participants.size());
  // Idempotent: reducing a reduced config is the identity.
  const auto twice = workload::reduce(reduced.config);
  EXPECT_EQ(twice.config, reduced.config);
  EXPECT_EQ(twice.multiplier, 1);
  // Intra-country reduces all the way to one participant.
  if (reduced.config.intra_country()) {
    EXPECT_EQ(reduced.config.participants.front().second, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, ReductionPropertyTest, ::testing::Range(0, 30));

// ---- Smooth-WRR plan realization matches the fractional weights --------------

TEST(PlanRealizationTest, SmoothWrrTracksPlanShares) {
  auto& f = fixture();
  workload::TraceOptions topts;
  topts.weeks = 2;
  topts.peak_slot_calls = 60.0;
  const auto trace = workload::TraceGenerator(f.world).generate(topts);

  std::map<std::pair<int, int>, double> fractions;
  for (const auto c : f.world.countries_in(geo::Continent::kEurope))
    for (const auto d : f.world.dcs_in(geo::Continent::kEurope))
      fractions[{c.value(), d.value()}] = f.db.loss().internet_unusable(c) ? 0.0 : 0.20;

  titannext::PlanScope scope;
  scope.timeslots = 12;
  scope.max_reduced_configs = 20;
  titannext::PlanInputs inputs(f.db, scope, fractions);
  inputs.set_demand(trace.configs(), trace.config_counts(), true);
  titannext::LpBuildOptions lp;
  lp.e2e_bound_ms = 120.0;
  titannext::OfflinePlan plan(&inputs, titannext::solve_plan(inputs, lp));
  ASSERT_TRUE(plan.valid());

  // Pick a demand with volume; draw many times at one slot and compare the
  // realized split against the plan weights.
  const auto& demands = inputs.demands();
  int c = -1;
  for (std::size_t i = 0; i < demands.size(); ++i)
    if (demands[i].units_per_slot[9] >= 2.0) {
      c = static_cast<int>(i);
      break;
    }
  ASSERT_GE(c, 0);

  core::Rng rng(11);
  std::map<std::pair<int, int>, int> realized;
  const int draws = 600;
  for (int i = 0; i < draws; ++i) {
    const auto a = plan.pick(demands[static_cast<std::size_t>(c)].config, 9, rng);
    ASSERT_TRUE(a.has_value());
    ++realized[{a->dc.value(), static_cast<int>(a->path)}];
  }

  // Expected shares from the plan.
  double total = 0.0;
  std::map<std::pair<int, int>, double> expected;
  for (const auto& e :
       plan.result().weights[9][static_cast<std::size_t>(c)].entries) {
    expected[{e.dc.value(), static_cast<int>(e.path)}] += e.units;
    total += e.units;
  }
  for (const auto& [key, units] : expected) {
    const double want = units / total;
    const double got = realized[key] / static_cast<double>(draws);
    EXPECT_NEAR(got, want, 0.02) << "dc=" << key.first << " path=" << key.second;
  }
}

// ---- LP plan feasibility swept over scopes ------------------------------------

class PlanScopeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanScopeSweepTest, PlanIsOptimalAndAssignsEverything) {
  auto& f = fixture();
  workload::TraceOptions topts;
  topts.weeks = 2;
  topts.peak_slot_calls = 40.0;
  topts.seed = 500 + static_cast<std::uint64_t>(GetParam());
  const auto trace = workload::TraceGenerator(f.world).generate(topts);

  std::map<std::pair<int, int>, double> fractions;
  for (const auto c : f.world.countries_in(geo::Continent::kEurope))
    for (const auto d : f.world.dcs_in(geo::Continent::kEurope))
      fractions[{c.value(), d.value()}] = f.db.loss().internet_unusable(c) ? 0.0 : 0.20;

  titannext::PlanScope scope;
  scope.timeslots = 8 + 4 * (GetParam() % 3);
  scope.max_reduced_configs = 10 + 5 * (GetParam() % 4);
  scope.compute_headroom = 1.5 + 0.5 * (GetParam() % 2);
  titannext::PlanInputs inputs(f.db, scope, fractions);
  inputs.set_demand(trace.configs(), trace.config_counts(), GetParam() % 2 == 0);

  titannext::LpBuildOptions lp;
  lp.e2e_bound_ms = 150.0;
  const auto result = titannext::solve_plan(inputs, lp);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal) << "seed " << GetParam();

  // C1 holds in every slot for every demand.
  for (int t = 0; t < scope.timeslots; ++t)
    for (std::size_t c = 0; c < inputs.demands().size(); ++c) {
      double assigned = 0.0;
      for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries)
        assigned += e.units;
      EXPECT_NEAR(assigned, inputs.demands()[c].units_per_slot[static_cast<std::size_t>(t)],
                  1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(Scopes, PlanScopeSweepTest, ::testing::Range(0, 6));

// ---- Elasticity monotonicity over offered load ---------------------------------

class ElasticityMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(ElasticityMonotoneTest, LossAndRttNondecreasingInLoad) {
  auto& f = fixture();
  const auto eu = f.world.countries_in(geo::Continent::kEurope);
  const auto c = eu[static_cast<std::size_t>(GetParam()) % eu.size()];
  const auto d = f.world.dcs_in(geo::Continent::kEurope)
                     [static_cast<std::size_t>(GetParam()) %
                      f.world.dcs_in(geo::Continent::kEurope).size()];
  const double demand = f.db.pair_peak_demand(c, d);
  double prev_loss = -1.0, prev_rtt = -1.0;
  for (double frac = 0.0; frac <= 1.2; frac += 0.1) {
    const double loss = f.db.effective_internet_loss(c, d, 20, frac * demand);
    const double rtt = f.db.effective_internet_rtt(c, d, 20, frac * demand);
    EXPECT_GE(loss, prev_loss - 1e-12);
    EXPECT_GE(rtt, prev_rtt - 1e-12);
    prev_loss = loss;
    prev_rtt = rtt;
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, ElasticityMonotoneTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace titan
