// Tests for core primitives: strong ids, deterministic RNG, statistics,
// the time grid, hashing, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/hash.h"
#include "core/ids.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/timegrid.h"

namespace titan::core {
namespace {

// --- Ids ---------------------------------------------------------------

TEST(IdsTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<CountryId, CityId>);
  CountryId a(3), b(3), c(4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(CountryId::invalid().valid());
}

TEST(IdsTest, HashableInUnorderedContainers) {
  std::unordered_set<DcId> set;
  set.insert(DcId(1));
  set.insert(DcId(1));
  set.insert(DcId(2));
  EXPECT_EQ(set.size(), 2u);
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::unordered_set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(0.5));
  EXPECT_NEAR(acc.mean(), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  Accumulator small, large;
  for (int i = 0; i < 20000; ++i) small.add(rng.poisson(3.0));
  for (int i = 0; i < 20000; ++i) large.add(rng.poisson(200.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 1.5);
}

TEST(RngTest, ZipfPrefersLowRanks) {
  Rng rng(19);
  int rank0 = 0, rank9 = 0;
  for (int i = 0; i < 10000; ++i) {
    const int r = rng.zipf(10, 1.0);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 10);
    rank0 += r == 0;
    rank9 += r == 9;
  }
  EXPECT_GT(rank0, rank9 * 3);
}

TEST(RngTest, WeightedPickRespectsWeightsAndSkipsZeros) {
  Rng rng(23);
  const std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_pick(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, WeightedPickThrowsOnZeroTotal) {
  Rng rng(29);
  EXPECT_THROW(rng.weighted_pick({0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ForkedStreamsAreIndependentAndStable) {
  Rng parent(99);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1_again = Rng(99).fork(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

// --- Stats ----------------------------------------------------------------

TEST(StatsTest, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 1.0), 3.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(StatsTest, MedianAndMean) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
}

TEST(StatsTest, RmseMae) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {1, 4, 3};
  EXPECT_NEAR(rmse(a, b), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(mae(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_THROW((void)rmse(a, {1.0}), std::invalid_argument);
}

TEST(StatsTest, EmpiricalCdf) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  const auto curve = cdf.curve(5);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().p, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
}

TEST(StatsTest, AccumulatorMergeMatchesBulk) {
  Rng rng(31);
  Accumulator all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, HistogramBinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.9);
  h.add(-3.0);  // clamps into first bin
  h.add(42.0);  // clamps into last bin
  EXPECT_DOUBLE_EQ(h.bin_count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// --- Time grid --------------------------------------------------------------

TEST(TimeGridTest, SlotArithmetic) {
  EXPECT_EQ(kSlotsPerDay, 48);
  EXPECT_EQ(kSlotsPerWeek, 336);
  const SlotIndex slot = slot_at(1, 13, 1);  // Tuesday 13:30
  EXPECT_EQ(day_of(slot), 1);
  EXPECT_EQ(hour_of(slot), 13);
  EXPECT_EQ(weekday_of(slot), Weekday::kTuesday);
  EXPECT_FALSE(is_weekend(slot));
  EXPECT_TRUE(is_weekend(slot_at(5, 10, 0)));
  EXPECT_TRUE(is_weekend(slot_at(6, 10, 0)));
  EXPECT_EQ(weekday_of(slot_at(7, 0, 0)), Weekday::kMonday);  // wraps weekly
}

TEST(TimeGridTest, Labels) {
  EXPECT_EQ(weekday_short_name(Weekday::kWednesday), "Wed");
  EXPECT_EQ(slot_label(slot_at(2, 9, 1)), "d02 09:30");
}

// --- Hash -----------------------------------------------------------------

TEST(HashTest, StablePureFunction) {
  EXPECT_EQ(hash_key(1, 2, 3), hash_key(1, 2, 3));
  EXPECT_NE(hash_key(1, 2, 3), hash_key(1, 3, 2));
  Rng a = rng_at(7, 1, 2);
  Rng b = rng_at(7, 1, 2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5)});
  t.add_row({"b", TextTable::pct(0.25)});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("25.0%"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

}  // namespace
}  // namespace titan::core
