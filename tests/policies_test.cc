// Tests for the assignment policies (WRR, LF, Titan, TN) and the eval
// metrics on a small trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "eval/metrics.h"
#include "eval/runner.h"
#include "policies/locality_first.h"
#include "policies/titan_next_policy.h"
#include "policies/titan_policy.h"
#include "policies/wrr.h"

namespace titan::policies {
namespace {

// An independent reference for eval::wan_usage: sparse per-slot link maps,
// with peaks and traffic taken slot by slot over the links each slot used
// rather than link by link over the dense per-slot streams.
eval::WanUsage map_wan_usage(const workload::Trace& trace,
                             const std::vector<CallAssignment>& assignments,
                             const net::NetworkDb& net) {
  eval::WanUsage out;
  const int slots = trace.num_slots();
  const int days = (slots + core::kSlotsPerDay - 1) / core::kSlotsPerDay;
  std::vector<std::map<int, double>> usage(static_cast<std::size_t>(slots));
  for (std::size_t i = 0; i < trace.calls().size(); ++i) {
    const auto& call = trace.calls()[i];
    const auto& a = assignments[i];
    if (a.path != net::PathType::kWan) continue;
    const auto& config = trace.configs().get(call.config);
    for (const auto& [country, count] : config.participants) {
      const double bw = config.network_mbps_from(country);
      const auto& path = net.topology().path(country, a.dc);
      for (int s = call.start_slot;
           s < std::min(slots, call.start_slot + call.duration_slots); ++s)
        for (const auto lid : path.links) usage[static_cast<std::size_t>(s)][lid.value()] += bw;
    }
  }
  std::map<int, double> whole_peak;
  std::vector<std::map<int, double>> day_peak(static_cast<std::size_t>(days));
  for (int s = 0; s < slots; ++s) {
    for (const auto& [link, mbps] : usage[static_cast<std::size_t>(s)]) {
      whole_peak[link] = std::max(whole_peak[link], mbps);
      auto& dp = day_peak[static_cast<std::size_t>(s / core::kSlotsPerDay)][link];
      dp = std::max(dp, mbps);
      out.total_traffic_gb += mbps * core::kSlotSeconds / 8.0 / 1000.0;
    }
  }
  for (const auto& [link, peak] : whole_peak) out.sum_of_peaks_mbps += peak;
  out.per_day_sum_of_peaks_mbps.resize(static_cast<std::size_t>(days), 0.0);
  for (int d = 0; d < days; ++d)
    for (const auto& [link, peak] : day_peak[static_cast<std::size_t>(d)])
      out.per_day_sum_of_peaks_mbps[static_cast<std::size_t>(d)] += peak;
  return out;
}

class PoliciesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new geo::World(geo::World::make());
    db_ = new net::NetworkDb(*world_);
    ctx_ = new PolicyContext(PolicyContext::make(*db_, geo::Continent::kEurope, 0.20));
    workload::TraceOptions topts;
    topts.weeks = 3;
    topts.peak_slot_calls = 60.0;
    auto full = workload::TraceGenerator(*world_).generate(topts);
    history_ = new workload::Trace(full.window(0, 2 * core::kSlotsPerWeek));
    eval_ = new workload::Trace(
        full.window(2 * core::kSlotsPerWeek, 3 * core::kSlotsPerWeek));
    // Two-day slice for the LP-heavy Titan-Next cases (keeps tests fast).
    eval_short_ = new workload::Trace(eval_->window(0, 2 * core::kSlotsPerDay));
  }
  static void TearDownTestSuite() {
    delete eval_short_;
    delete eval_;
    delete history_;
    delete ctx_;
    delete db_;
    delete world_;
    world_ = nullptr;
    db_ = nullptr;
    ctx_ = nullptr;
    history_ = nullptr;
    eval_ = nullptr;
    eval_short_ = nullptr;
  }

  static titannext::PlanScope test_scope() {
    titannext::PlanScope scope;
    scope.timeslots = core::kSlotsPerDay;
    scope.max_reduced_configs = 25;
    return scope;
  }

  void check_assignments(const PolicyRun& run,
                         const workload::Trace* trace = nullptr) {
    if (trace == nullptr) trace = eval_;
    ASSERT_EQ(run.assignments.size(), trace->calls().size());
    const auto dcs = world_->dcs_in(geo::Continent::kEurope);
    for (const auto& a : run.assignments) {
      ASSERT_TRUE(a.dc.valid());
      bool in_scope = false;
      for (const auto d : dcs) in_scope |= d == a.dc;
      EXPECT_TRUE(in_scope);
    }
  }

  static geo::World* world_;
  static net::NetworkDb* db_;
  static PolicyContext* ctx_;
  static workload::Trace* history_;
  static workload::Trace* eval_;
  static workload::Trace* eval_short_;
};

geo::World* PoliciesTest::world_ = nullptr;
net::NetworkDb* PoliciesTest::db_ = nullptr;
PolicyContext* PoliciesTest::ctx_ = nullptr;
workload::Trace* PoliciesTest::history_ = nullptr;
workload::Trace* PoliciesTest::eval_ = nullptr;
workload::Trace* PoliciesTest::eval_short_ = nullptr;

TEST_F(PoliciesTest, ContextRespectsUnusableCountries) {
  const auto de = world_->find_country("germany");
  const auto fr = world_->find_country("france");
  const auto nl = world_->find_dc("netherlands");
  EXPECT_DOUBLE_EQ(ctx_->fraction(de, nl), 0.0);
  EXPECT_DOUBLE_EQ(ctx_->fraction(fr, nl), 0.20);
}

TEST_F(PoliciesTest, WrrAssignsEveryCallAndUsesInternet) {
  core::Rng rng(1);
  WrrPolicy wrr(*ctx_, /*oracle=*/true);
  const auto run = wrr.run(*eval_, *history_, rng);
  check_assignments(run);
  const double share = eval::internet_share(*eval_, run.assignments);
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.25);  // bounded by the 20% fractions
}

TEST_F(PoliciesTest, WrrDcDistributionFollowsCores) {
  core::Rng rng(2);
  WrrPolicy wrr(*ctx_, true);
  const auto run = wrr.run(*eval_, *history_, rng);
  std::map<int, int> per_dc;
  for (const auto& a : run.assignments) ++per_dc[a.dc.value()];
  // The biggest DC (netherlands, 190K cores) should host more calls than the
  // smallest (switzerland, 80K cores).
  EXPECT_GT(per_dc[world_->find_dc("netherlands").value()],
            per_dc[world_->find_dc("switzerland").value()]);
}

TEST_F(PoliciesTest, TitanUsesRandomDcButOffloads) {
  core::Rng rng(3);
  TitanPolicy titan(*ctx_);
  const auto run = titan.run(*eval_, *history_, rng);
  check_assignments(run);
  EXPECT_GT(eval::internet_share(*eval_, run.assignments), 0.05);
  // German calls never go to the Internet (fraction 0).
  for (std::size_t i = 0; i < eval_->calls().size(); ++i) {
    if (eval_->calls()[i].first_joiner == world_->find_country("germany")) {
      EXPECT_EQ(run.assignments[i].path, net::PathType::kWan);
    }
  }
}

TEST_F(PoliciesTest, LfOnlinePrefersNearbyDcs) {
  core::Rng rng(4);
  LocalityFirstOptions opts;
  opts.oracle = false;
  opts.scope = test_scope();
  LocalityFirstPolicy lf(*ctx_, opts);
  const auto run = lf.run(*eval_, *history_, rng);
  check_assignments(run);

  // Irish calls should land mostly in the Irish DC (closest).
  const auto ie = world_->find_country("ireland");
  const auto ie_dc = world_->find_dc("ireland");
  int total = 0, local = 0;
  for (std::size_t i = 0; i < eval_->calls().size(); ++i) {
    if (eval_->calls()[i].first_joiner != ie) continue;
    ++total;
    local += run.assignments[i].dc == ie_dc;
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(local) / total, 0.5);
}

TEST_F(PoliciesTest, TnOracleAssignsAllAndBeatsWrrOnPeaks) {
  core::Rng rng(5);
  TitanNextPolicyOptions opts;
  opts.oracle = true;
  opts.pipeline.scope = test_scope();
  opts.pipeline.lp.e2e_bound_ms = 120.0;
  TitanNextPolicy tn(*ctx_, opts);
  const auto tn_run = tn.run(*eval_short_, *history_, rng);
  check_assignments(tn_run, eval_short_);
  EXPECT_EQ(tn_run.dc_migrations, 0);  // oracle mode never migrates

  WrrPolicy wrr(*ctx_, true);
  core::Rng rng2(6);
  const auto wrr_run = wrr.run(*eval_short_, *history_, rng2);

  const auto tn_usage = eval::wan_usage(*eval_short_, tn_run.assignments, *db_);
  const auto wrr_usage = eval::wan_usage(*eval_short_, wrr_run.assignments, *db_);
  EXPECT_LT(tn_usage.sum_of_peaks_mbps, wrr_usage.sum_of_peaks_mbps);

  // The peaks are the map-based reference's bit for bit; total traffic sums
  // link by link instead of slot by slot, so it agrees to rounding.
  for (const auto* run : {&tn_run, &wrr_run}) {
    const auto usage = eval::wan_usage(*eval_short_, run->assignments, *db_);
    const auto reference = map_wan_usage(*eval_short_, run->assignments, *db_);
    EXPECT_EQ(usage.sum_of_peaks_mbps, reference.sum_of_peaks_mbps) << run->policy_name;
    EXPECT_EQ(usage.per_day_sum_of_peaks_mbps, reference.per_day_sum_of_peaks_mbps)
        << run->policy_name;
    EXPECT_GT(reference.total_traffic_gb, 0.0);
    EXPECT_LE(std::abs(usage.total_traffic_gb - reference.total_traffic_gb),
              1e-12 * reference.total_traffic_gb)
        << run->policy_name;
  }
}

TEST_F(PoliciesTest, TnOnlineCountsMigrations) {
  core::Rng rng(7);
  TitanNextPolicyOptions opts;
  opts.oracle = false;
  opts.pipeline.scope = test_scope();
  opts.pipeline.lp.e2e_bound_ms = 120.0;
  opts.pipeline.top_k_forecast = 20;
  TitanNextPolicy tn(*ctx_, opts);
  const auto run = tn.run(*eval_short_, *history_, rng);
  check_assignments(run, eval_short_);
  // Some calls migrate (international / cross-media mismatches), but far
  // from all (Table 4: 11-19% with reduced configs).
  EXPECT_GT(run.dc_migrations, 0);
  EXPECT_LT(static_cast<double>(run.dc_migrations), 0.45 * eval_short_->calls().size());
}

TEST_F(PoliciesTest, ReducedConfigsCutMigrations) {
  TitanNextPolicyOptions with;
  with.oracle = false;
  with.pipeline.scope = test_scope();
  with.pipeline.lp.e2e_bound_ms = 120.0;
  with.pipeline.use_reduction = true;
  auto without = with;
  without.pipeline.use_reduction = false;

  core::Rng rng_a(8), rng_b(8);
  TitanNextPolicy tn_with(*ctx_, with), tn_without(*ctx_, without);
  const auto run_with = tn_with.run(*eval_short_, *history_, rng_a);
  const auto run_without = tn_without.run(*eval_short_, *history_, rng_b);
  EXPECT_LT(run_with.dc_migrations, run_without.dc_migrations);
}

TEST_F(PoliciesTest, MetricsInternals) {
  // wan_usage: a single intra-country WAN call loads exactly its path links.
  workload::Trace tiny = eval_->window(0, 4);
  ASSERT_GT(tiny.calls().size(), 0u);
  std::vector<CallAssignment> assignments(tiny.calls().size());
  const auto nl = world_->find_dc("netherlands");
  for (auto& a : assignments) a = {nl, net::PathType::kInternet};
  // All-Internet: zero WAN usage.
  const auto usage = eval::wan_usage(tiny, assignments, *db_);
  EXPECT_DOUBLE_EQ(usage.sum_of_peaks_mbps, 0.0);
  EXPECT_DOUBLE_EQ(usage.total_traffic_gb, 0.0);
  EXPECT_DOUBLE_EQ(eval::internet_share(tiny, assignments), 1.0);

  // All-WAN: positive usage and sane latency stats.
  for (auto& a : assignments) a.path = net::PathType::kWan;
  const auto usage2 = eval::wan_usage(tiny, assignments, *db_);
  EXPECT_GT(usage2.sum_of_peaks_mbps, 0.0);
  EXPECT_GT(usage2.total_traffic_gb, 0.0);
  const auto lat = eval::e2e_latency_overall(tiny, assignments, *db_);
  EXPECT_GT(lat.mean, 0.0);
  EXPECT_GE(lat.p95, lat.median);
}

TEST_F(PoliciesTest, RunnerComparesAndRenders) {
  WrrPolicy wrr(*ctx_, true);
  TitanPolicy titan(*ctx_);
  const auto cmp = eval::compare_policies({&wrr, &titan}, *eval_, *history_, *db_, 99);
  ASSERT_EQ(cmp.results.size(), 2u);
  const std::string peaks = cmp.render_peaks_table();
  EXPECT_NE(peaks.find("WRR"), std::string::npos);
  EXPECT_NE(peaks.find("Titan"), std::string::npos);
  EXPECT_NE(peaks.find("Mon"), std::string::npos);
  const std::string lat = cmp.render_latency_table();
  EXPECT_NE(lat.find("P95"), std::string::npos);
  // Titan offloads ~uniformly; reduction vs WRR is small but finite.
  const double red = cmp.weekday_reduction_pct(1, 0);
  EXPECT_GT(red, -20.0);
  EXPECT_LT(red, 60.0);
}


TEST_F(PoliciesTest, PinnedIntraCountryKillsSavingsButFixesMigrations) {
  // §6.3 "What did not work": forcing each country onto a single MP DC.
  TitanNextPolicyOptions free_opts;
  free_opts.oracle = true;
  free_opts.pipeline.scope = test_scope();
  free_opts.pipeline.lp.e2e_bound_ms = 120.0;
  auto pinned_opts = free_opts;
  pinned_opts.pin_intra_country = true;

  core::Rng rng_a(21), rng_b(21);
  TitanNextPolicy tn_free(*ctx_, free_opts), tn_pinned(*ctx_, pinned_opts);
  const auto run_free = tn_free.run(*eval_short_, *history_, rng_a);
  const auto run_pinned = tn_pinned.run(*eval_short_, *history_, rng_b);

  // Pinning: within each planning day, all calls from one country land on
  // one DC (the pin is recomputed per daily plan, as the paper re-runs the
  // ILP per horizon).
  std::map<std::pair<int, int>, std::set<int>> dcs_by_country_day;
  for (std::size_t i = 0; i < eval_short_->calls().size(); ++i) {
    const auto& call = eval_short_->calls()[i];
    dcs_by_country_day[{call.first_joiner.value(),
                        call.start_slot / core::kSlotsPerDay}]
        .insert(run_pinned.assignments[i].dc.value());
  }
  for (const auto& [key, dcs] : dcs_by_country_day) EXPECT_EQ(dcs.size(), 1u);

  // And the savings collapse: pinned peaks are no better than the free plan.
  const auto free_usage = eval::wan_usage(*eval_short_, run_free.assignments, *db_);
  const auto pinned_usage = eval::wan_usage(*eval_short_, run_pinned.assignments, *db_);
  EXPECT_GE(pinned_usage.sum_of_peaks_mbps, free_usage.sum_of_peaks_mbps * 0.98);
}

}  // namespace
}  // namespace titan::policies
