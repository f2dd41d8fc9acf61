// Tests for the sparse LP substrate: CSC matrix, basis LU, and the revised
// simplex (dual phase, then primal phase 2). Includes randomized property
// tests comparing LU solves against dense Gaussian elimination and checking
// simplex optima against an LP-duality certificate on small random LPs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.h"
#include "lp/basis_lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/sparse.h"
#include "tests/lp_certificate.h"

namespace titan::lp {
namespace {

TEST(SparseMatrixTest, BuildsFromTripletsAndSumsDuplicates) {
  std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 3.0}, {0, 1, 4.0}, {2, 2, -1.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(3, 3, trips);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4u);  // duplicate (0,1) merged

  std::vector<double> y(3, 0.0);
  m.axpy_column(1, 1.0, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(SparseMatrixTest, DotColumn) {
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 2.0}, {2, 0, 5.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(3, 1, trips);
  const std::vector<double> y = {1.0, 10.0, 3.0};
  EXPECT_DOUBLE_EQ(m.dot_column(0, y), 2.0 + 15.0);
}

TEST(SparseMatrixTest, ZeroSumDuplicatesDropped) {
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 1.0}, {0, 0, -1.0}, {1, 0, 2.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(2, 1, trips);
  EXPECT_EQ(m.nnz(), 1u);
}

// Rows given out of order are sorted and a lone zero is dropped; rows
// given in order with no zero are taken as they are.
TEST(SparseMatrixTest, FromTripletsSortsRowsAndDropsZeros) {
  const SparseMatrix m =
      SparseMatrix::from_triplets(3, 2, {{2, 0, 1.0}, {0, 0, 3.0}, {1, 1, 0.0}, {2, 1, 4.0}});
  ASSERT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.row_index(m.col_begin(0)), 0);
  EXPECT_EQ(m.row_index(m.col_begin(0) + 1), 2);
  ASSERT_EQ(m.col_end(1) - m.col_begin(1), 1);
  EXPECT_EQ(m.row_index(m.col_begin(1)), 2);
  EXPECT_EQ(m.value(m.col_begin(1)), 4.0);
  const SparseMatrix in_order =
      SparseMatrix::from_triplets(3, 2, {{0, 0, 3.0}, {1, 1, 5.0}, {2, 0, 1.0}});
  ASSERT_EQ(in_order.nnz(), 3u);
  EXPECT_EQ(in_order.row_index(in_order.col_begin(0) + 1), 2);
  EXPECT_EQ(in_order.value(in_order.col_begin(1)), 5.0);
}

// Column i of the transpose is row i, entries in ascending column order;
// appended single-entry columns are included.
TEST(SparseMatrixTest, TransposeListsEachRowInColumnOrder) {
  std::vector<SparseMatrix::Triplet> trips = {{1, 0, 2.0}, {0, 1, 3.0}, {1, 2, -4.0}};
  SparseMatrix m = SparseMatrix::from_triplets(3, 3, trips);
  m.append_column(1, 5.0);
  const SparseMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.nnz(), m.nnz());
  EXPECT_EQ(t.col_end(2) - t.col_begin(2), 0);  // row 2 is empty
  ASSERT_EQ(t.col_end(1) - t.col_begin(1), 3);
  const int k = t.col_begin(1);
  EXPECT_EQ(t.row_index(k), 0);
  EXPECT_EQ(t.row_index(k + 1), 2);
  EXPECT_EQ(t.row_index(k + 2), 3);
  EXPECT_EQ(t.value(k), 2.0);
  EXPECT_EQ(t.value(k + 1), -4.0);
  EXPECT_EQ(t.value(k + 2), 5.0);
  const std::vector<double> y = {1.0, 10.0, 100.0};
  for (int j = 0; j < m.cols(); ++j) {
    // (A^T)^T y read back column by column equals A's own dot products.
    double acc = 0.0;
    for (int i = 0; i < t.cols(); ++i)
      for (int q = t.col_begin(i); q < t.col_end(i); ++q)
        if (t.row_index(q) == j) acc += t.value(q) * y[static_cast<std::size_t>(i)];
    EXPECT_EQ(acc, m.dot_column(j, y)) << "column " << j;
  }
}

// --- BasisLu vs dense reference -------------------------------------------

// Dense solve of A x = b via Gaussian elimination with partial pivoting.
std::vector<double> dense_solve(std::vector<std::vector<double>> a, std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a[i][k]) > std::abs(a[piv][k])) piv = i;
    std::swap(a[k], a[piv]);
    std::swap(b[k], b[piv]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  return x;
}

struct RandomBasis {
  SparseMatrix a;
  std::vector<int> basis;
  std::vector<std::vector<double>> dense;
};

RandomBasis make_random_basis(int m, double density, core::Rng& rng) {
  RandomBasis rb;
  std::vector<SparseMatrix::Triplet> trips;
  rb.dense.assign(static_cast<std::size_t>(m), std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j) {
    // Guarantee nonsingularity-ish: strong diagonal + sparse off-diagonals.
    const double d = rng.uniform(1.0, 3.0) * (rng.chance(0.5) ? 1.0 : -1.0);
    trips.push_back({j, j, d});
    rb.dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] = d;
    for (int i = 0; i < m; ++i) {
      if (i == j || !rng.chance(density)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      trips.push_back({i, j, v});
      rb.dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
    }
    rb.basis.push_back(j);
  }
  rb.a = SparseMatrix::from_triplets(m, m, std::move(trips));
  return rb;
}

class BasisLuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BasisLuRandomTest, FtranMatchesDenseSolve) {
  core::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.15, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  std::vector<double> b(static_cast<std::size_t>(m));
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = b;
  lu.ftran(x);
  const std::vector<double> expected = dense_solve(rb.dense, b);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-8)
        << "row " << i;
}

TEST_P(BasisLuRandomTest, BtranMatchesDenseTransposeSolve) {
  core::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.15, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  std::vector<double> c(static_cast<std::size_t>(m));
  for (auto& v : c) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y = c;
  lu.btran(y);

  // Dense transpose.
  std::vector<std::vector<double>> at(static_cast<std::size_t>(m),
                                      std::vector<double>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      at[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          rb.dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  const std::vector<double> expected = dense_solve(at, c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-8);
}

TEST_P(BasisLuRandomTest, EtaUpdateMatchesRefactorization) {
  core::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.2, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  // Build an extra column to swap in at position r.
  const int r = static_cast<int>(rng.uniform_int(0, m - 1));
  std::vector<SparseMatrix::Triplet> extra_trips;
  std::vector<double> extra_col(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    if (i == r || rng.chance(0.2)) {
      const double v = rng.uniform(0.5, 2.0);
      extra_trips.push_back({i, 0, v});
      extra_col[static_cast<std::size_t>(i)] = v;
    }
  }
  // FTRAN the new column with the current factorization.
  std::vector<double> alpha = extra_col;
  lu.ftran(alpha);
  if (std::abs(alpha[static_cast<std::size_t>(r)]) < 1e-6) GTEST_SKIP();
  std::vector<int> nonzeros;
  for (int i = 0; i < m; ++i)
    if (alpha[static_cast<std::size_t>(i)] != 0.0) nonzeros.push_back(i);
  ASSERT_TRUE(lu.update(r, alpha, nonzeros));

  // Reference: dense basis with column r replaced.
  auto dense2 = rb.dense;
  for (int i = 0; i < m; ++i)
    dense2[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)] =
        extra_col[static_cast<std::size_t>(i)];

  std::vector<double> b(static_cast<std::size_t>(m));
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  std::vector<double> x = b;
  lu.ftran(x);
  const auto expected = dense_solve(dense2, b);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-7);

  std::vector<double> c(static_cast<std::size_t>(m));
  for (auto& v : c) v = rng.uniform(-3.0, 3.0);
  std::vector<double> y = c;
  lu.btran(y);
  std::vector<std::vector<double>> at(static_cast<std::size_t>(m),
                                      std::vector<double>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      at[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          dense2[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  const auto expected_y = dense_solve(at, c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected_y[static_cast<std::size_t>(i)], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BasisLuRandomTest, ::testing::Range(0, 8));

TEST(BasisLuTest, ReportsSingularMatrix) {
  // Two identical columns.
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 1.0}, {1, 0, 1.0}, {0, 1, 1.0},
                                              {1, 1, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(2, 2, trips);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1}));
}

// Equal values with equal signs of zero: the divide-free paths of the
// solves must reproduce the plain divides bit for bit.
void expect_same_bits(const std::vector<double>& actual, const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "entry " << i;
    EXPECT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "entry " << i;
  }
}

// Surplus (-1) columns put -1 on the U diagonal, and zeros in b and c
// reach the divides as signed zeros; a -1 eta pivot follows. Every output
// matches literals recorded from solves that divided every time, the signs
// of zero included.
TEST(BasisLuTest, UnitDiagonalsAndSignedZerosMatchPlainDivides) {
  const std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, -1.0},                                           // surplus, row 0
      {2, 1, -1.0},                                           // surplus, row 2
      {1, 2, 2.0},  {3, 2, -4.0}, {0, 2, 1.0},                // structural
      {3, 3, 0.5},  {1, 3, 3.0},  {4, 3, -1.0},               // structural
      {4, 4, -1.0},                                           // surplus, row 4
      {0, 5, 3.0},  {1, 5, -1.0}, {2, 5, 1.0},  {4, 5, 0.25}  // entering
  };
  const SparseMatrix a = SparseMatrix::from_triplets(5, 6, trips);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2, 3, 4}));
  const std::vector<double> b = {0.0, 3.0, 0.0, -2.0, 0.0};
  const std::vector<double> c = {0.0, -0.0, 1.0, 0.0, 0.0};

  std::vector<double> x = b;
  lu.ftran(x);
  expect_same_bits(x, {0x1.2762762762762p-1, -0x0p+0, 0x1.2762762762762p-1,
                       0x1.3b13b13b13b14p-1, -0x1.3b13b13b13b14p-1});
  std::vector<double> y = c;
  lu.btran(y);
  expect_same_bits(y, {-0x0p+0, 0x1.3b13b13b13b14p-5, 0x0p+0, -0x1.d89d89d89d89ep-3, -0x0p+0});

  // Swap column 5 in at position 1; its pivot element is exactly -1.
  std::vector<double> alpha(5, 0.0);
  a.axpy_column(5, 1.0, alpha);
  lu.ftran(alpha);
  expect_same_bits(alpha, {-0x1.84ec4ec4ec4ecp+1, -0x1p+0, -0x1.3b13b13b13b14p-5,
                           -0x1.3b13b13b13b14p-2, 0x1.d89d89d89d8ap-5});
  ASSERT_TRUE(lu.update(1, alpha, std::vector<int>{0, 1, 2, 3, 4}));

  x = b;
  lu.ftran(x);
  expect_same_bits(x, {0x1.2762762762762p-1, 0x0p+0, 0x1.2762762762762p-1,
                       0x1.3b13b13b13b14p-1, -0x1.3b13b13b13b14p-1});
  y = c;
  lu.btran(y);
  expect_same_bits(y, {-0x0p+0, 0x1.3b13b13b13b14p-5, 0x1.3b13b13b13b14p-5,
                       -0x1.d89d89d89d89ep-3, -0x0p+0});
  y = {0.0, 1.0, 0.0, 0.0, -0.0};
  lu.btran(y);
  expect_same_bits(y, {-0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x0p+0});
  // All-zero right-hand sides: every quotient, eta pivots included, is a
  // signed zero.
  y.assign(5, 0.0);
  lu.btran(y);
  expect_same_bits(y, {-0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, -0x0p+0});
  x.assign(5, 0.0);
  lu.ftran(x);
  expect_same_bits(x, {-0x0p+0, 0x0p+0, -0x0p+0, 0x0p+0, -0x0p+0});
  x.assign(5, -0.0);
  lu.ftran(x);
  expect_same_bits(x, {0x0p+0, -0x0p+0, 0x0p+0, -0x0p+0, 0x0p+0});
}

// A basis mixing unit columns, structural columns whose rows reach no
// nonempty L column (one with a U entry on a unit-pivoted row, one with an
// L entry) and a column that reaches the L column of an earlier one: the
// FTRAN and BTRAN bits of every kind of column are pinned.
TEST(BasisLuTest, MixedBasisSolveBitsArePinned) {
  const std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, 1.0}, {3, 1, -1.0},                //
      {1, 2, 2.9}, {4, 2, 0.7},                 //
      {0, 3, 3.0}, {2, 3, 1.5},                 //
      {1, 4, 1.0}, {4, 4, 2.0}, {5, 4, 0.7},  //
      {2, 5, 0.3}, {4, 5, 1.3}, {5, 5, 2.9}};
  const SparseMatrix a = SparseMatrix::from_triplets(6, 6, trips);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {5, 4, 3, 2, 1, 0}));
  std::vector<double> x = {0.1, -2.0, 3.0, 0.25, -1.0 / 3.0, 7.0};
  lu.ftran(x);
  expect_same_bits(x, {0x1.74df59ed1bdbfp+1, -0x1.08c1e24405b3ep+1, 0x1.6ad9dc078e74dp+0,
                       0x1.82881d62162f7p-6, -0x1p-2, -0x1.09bcfe9f44714p+2});
  std::vector<double> y = {1.0 / 7.0, 2.0, -0.5, 3.0, 1.0, -4.0};
  lu.btran(y);
  expect_same_bits(y, {-0x1p+2, 0x1.92878d8eb1f14p-1, 0x1.eaaaaaaaaaaabp+2, -0x1p+0,
                       0x1.0754ed0f46434p+0, -0x1.34780a6cfeb58p+0});
  const std::vector<std::vector<double>> rho = {
      {0x0p+0, 0x1.4a598a3a870c2p-5, 0x0p+0, 0x0p+0, -0x1.5625e1737995cp-3, 0x1.adcab2883a26p-2},
      {0x0p+0, -0x1.5625e1737995bp-3, 0x0p+0, 0x0p+0, 0x1.625e1737995b1p-1, -0x1.3db575eb3a0bp-2},
      {0x0p+0, -0x1.0847a1c86c09bp-7, 0x1.5555555555555p-1, 0x0p+0, 0x1.11b7e78f9477cp-5,
       -0x1.57d55ba02e84cp-4},
      {0x0p+0, 0x1.9c182fb2ce57ap-2, 0x0p+0, 0x0p+0, -0x1.e8c866a4f6d5fp-3, 0x1.b6381567c2d18p-4},
      {0x0p+0, 0x0p+0, 0x0p+0, -0x1p+0, 0x0p+0, 0x0p+0},
      {0x1p+0, 0x1.8c6b72aca20e8p-6, -0x1p+1, 0x0p+0, -0x1.9a93db575eb3ap-4, 0x1.01e004b822e39p-2}};
  for (int r = 0; r < 6; ++r) {
    SCOPED_TRACE(r);
    std::vector<double> e(6, 0.0);
    e[static_cast<std::size_t>(r)] = 1.0;
    std::vector<int> nz = {r};
    lu.btran(e, nz);
    expect_same_bits(e, rho[static_cast<std::size_t>(r)]);
  }
}

// A sparse solve's result against the dense one: the same value at every
// index (a dense +-0 matches the sparse +0), `nonzeros` exactly the
// ascending indices of the nonzero entries, and +0 everywhere else.
void expect_sparse_matches_dense(const std::vector<double>& sparse,
                                 const std::vector<int>& nonzeros,
                                 const std::vector<double>& dense) {
  ASSERT_EQ(sparse.size(), dense.size());
  std::vector<int> expected_nz;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(sparse[i], dense[i]) << "entry " << i;
    if (dense[i] != 0.0)
      expected_nz.push_back(static_cast<int>(i));
    else
      EXPECT_FALSE(std::signbit(sparse[i])) << "entry " << i;
  }
  EXPECT_EQ(nonzeros, expected_nz);
}

// Random bases shaped like the plan LP's: a unit block of +-1 slack and
// surplus columns, a structural kernel of a few entries per column, and a
// dense coupling row like C4 that every structural column touches. Along a
// full refactorization interval of eta updates, every sparse FTRAN of a
// column and BTRAN of a unit vector equals the dense solve value for value;
// the BTRANs include, while there is one, a position no eta touches.
TEST(BasisLuTest, SparseSolvesMatchDenseSolves) {
  constexpr int interval = BasisLu::kRefactorInterval;
  int factored = 0;
  for (int seed = 0; seed < 12; ++seed) {
    core::Rng rng(4000 + static_cast<std::uint64_t>(seed));
    const int m = 100 + 60 * (seed % 4);
    const int coupling = m - 1;
    // Columns [0, m) are the unit columns of each row; the structural
    // columns follow, each with a home row and a few other entries.
    std::vector<SparseMatrix::Triplet> trips;
    for (int i = 0; i < m; ++i) trips.push_back({i, i, rng.chance(0.5) ? 1.0 : -1.0});
    const int n = m + 3 * m;
    std::vector<int> home_of(static_cast<std::size_t>(n));
    for (int j = m; j < n; ++j) {
      // Off-home entries stay within a band of the home row, as a plan
      // LP's column stays within its slot's rows.
      const int home = static_cast<int>(rng.uniform_int(0, m - 2));
      home_of[static_cast<std::size_t>(j)] = home;
      for (int i = std::max(0, home - 6); i < std::min(coupling, home + 7); ++i) {
        if (i == home)
          trips.push_back({i, j, rng.uniform(1.0, 3.0) * (rng.chance(0.5) ? 1.0 : -1.0)});
        else if (rng.chance(0.15))
          trips.push_back({i, j, rng.uniform(-2.0, 2.0)});
      }
      trips.push_back({coupling, j, rng.uniform(0.5, 4.0)});
    }
    const SparseMatrix a = SparseMatrix::from_triplets(m, n, trips);
    // About a third of the rows start on a structural column homed there.
    // On odd seeds the coupling row's unit column leaves the basis too, so
    // the coupling row pivots under a structural column and fills L with
    // it; on even seeds it stays basic, as C4's slack usually does.
    std::vector<int> basis(static_cast<std::size_t>(m));
    std::vector<char> basic(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < m; ++i) basis[static_cast<std::size_t>(i)] = i;
    for (int j = m; j < n; ++j) {
      const int home = home_of[static_cast<std::size_t>(j)];
      if (basis[static_cast<std::size_t>(home)] == home && rng.chance(0.35))
        basis[static_cast<std::size_t>(home)] = j;
    }
    for (int j = m; j < n && seed % 2 == 1 && basis[static_cast<std::size_t>(coupling)] == coupling;
         ++j)
      if (!std::count(basis.begin(), basis.end(), j)) basis[static_cast<std::size_t>(coupling)] = j;
    for (const int j : basis) basic[static_cast<std::size_t>(j)] = 1;

    BasisLu lu;
    if (!lu.factorize(a, basis)) continue;
    ++factored;
    // The sparse solves' vectors persist across calls, cleared only at
    // their previous nonzeros, as the simplex keeps them.
    std::vector<double> x(static_cast<std::size_t>(m), 0.0), y(static_cast<std::size_t>(m), 0.0);
    std::vector<int> x_nz, y_nz;
    std::vector<char> eta_touched(static_cast<std::size_t>(m), 0);
    for (int step = 0; step < interval; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
      int q = -1;
      while (q < 0 || basic[static_cast<std::size_t>(q)])
        q = static_cast<int>(rng.uniform_int(0, n - 1));
      std::vector<double> dense(static_cast<std::size_t>(m), 0.0);
      a.axpy_column(q, 1.0, dense);
      lu.ftran(dense);
      for (const int i : x_nz) x[static_cast<std::size_t>(i)] = 0.0;
      x_nz.clear();
      for (int k = a.col_begin(q); k < a.col_end(q); ++k) {
        x[static_cast<std::size_t>(a.row_index(k))] = a.value(k);
        x_nz.push_back(a.row_index(k));
      }
      lu.ftran(x, x_nz);
      expect_sparse_matches_dense(x, x_nz, dense);

      // The entering column replaces the position of its largest |alpha|.
      // BTRAN the unit vectors of a random position and of that one.
      ASSERT_FALSE(x_nz.empty());
      int leaving = x_nz.front();
      for (const int i : x_nz)
        if (std::abs(x[static_cast<std::size_t>(i)]) >
            std::abs(x[static_cast<std::size_t>(leaving)]))
          leaving = i;
      const int untouched = static_cast<int>(
          std::find(eta_touched.begin(), eta_touched.end(), 0) - eta_touched.begin());
      for (const int r : {static_cast<int>(rng.uniform_int(0, m - 1)), leaving, untouched}) {
        if (r == m) continue;
        std::vector<double> dense_y(static_cast<std::size_t>(m), 0.0);
        dense_y[static_cast<std::size_t>(r)] = 1.0;
        lu.btran(dense_y);
        for (const int i : y_nz) y[static_cast<std::size_t>(i)] = 0.0;
        y_nz.assign(1, r);
        y[static_cast<std::size_t>(r)] = 1.0;
        lu.btran(y, y_nz);
        expect_sparse_matches_dense(y, y_nz, dense_y);
      }
      ASSERT_TRUE(lu.update(leaving, x, x_nz));
      for (const int i : x_nz) eta_touched[static_cast<std::size_t>(i)] = 1;
      basic[static_cast<std::size_t>(basis[static_cast<std::size_t>(leaving)])] = 0;
      basic[static_cast<std::size_t>(q)] = 1;
      basis[static_cast<std::size_t>(leaving)] = q;
    }
    EXPECT_EQ(lu.eta_count(), interval);
  }
  EXPECT_GE(factored, 8);
}

// --- Simplex ----------------------------------------------------------------

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  => (2, 6), obj 36.
  LpModel m;
  const int x = m.add_variable(-3.0);
  const int y = m.add_variable(-5.0);
  const int r0 = m.add_constraint(Sense::kLe, 4.0);
  const int r1 = m.add_constraint(Sense::kLe, 12.0);
  const int r2 = m.add_constraint(Sense::kLe, 18.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r1, y, 2.0);
  m.add_coefficient(r2, x, 3.0);
  m.add_coefficient(r2, y, 2.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(SimplexTest, HandlesEqualityAndGeRows) {
  // min x + 2y s.t. x + y = 10; x >= 3; y >= 2  => (8, 2), obj 12.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  const int r0 = m.add_constraint(Sense::kEq, 10.0);
  const int r1 = m.add_constraint(Sense::kGe, 3.0);
  const int r2 = m.add_constraint(Sense::kGe, 2.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, 1.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r2, y, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(optimality_certificate(m, s));
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 8.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-6);
}

TEST(SimplexTest, ZeroRhsEqualityArtificialStaysAtZero) {
  // min -y s.t. x - y = 0; x + y <= 2  => (1, 1), obj -1. The cold basis
  // keeps the equality row's artificial basic at zero, and y entering
  // would push it up: phase 2's ratio test must block there.
  LpModel m;
  const int x = m.add_variable(0.0);
  const int y = m.add_variable(-1.0);
  const int r0 = m.add_constraint(Sense::kEq, 0.0);
  const int r1 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, -1.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r1, y, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << status_name(s.status);
  EXPECT_TRUE(optimality_certificate(m, s));
  EXPECT_NEAR(s.objective, -1.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 1.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 1.0, 1e-7);
}

// A cold solve proves infeasibility only by the dual phase's Farkas ray, so
// each case must reach it through at least one dual pivot.
TEST(SimplexTest, DetectsInfeasibility) {
  const auto expect_infeasible = [](const LpModel& m, const char* what) {
    const Solution s = solve(m);
    EXPECT_EQ(s.status, SolveStatus::kInfeasible) << what;
    EXPECT_GE(s.phase1_iterations, 1) << what;
  };

  // x <= 1 and x >= 2.
  LpModel bounds;
  const int x = bounds.add_variable(1.0);
  const int r0 = bounds.add_constraint(Sense::kLe, 1.0);
  const int r1 = bounds.add_constraint(Sense::kGe, 2.0);
  bounds.add_coefficient(r0, x, 1.0);
  bounds.add_coefficient(r1, x, 1.0);
  expect_infeasible(bounds, "x <= 1, x >= 2");

  // Equality rows only: x + y = 1 and x + y = 2.
  LpModel equalities;
  equalities.add_variable(1.0);
  equalities.add_variable(1.0);
  for (const double b : {1.0, 2.0}) {
    const int r = equalities.add_constraint(Sense::kEq, b);
    equalities.add_coefficient(r, 0, 1.0);
    equalities.add_coefficient(r, 1, 1.0);
  }
  expect_infeasible(equalities, "x + y = 1, x + y = 2");

  // x + y >= 3, x <= 1, y <= 1: no two rows contradict each other; the
  // >= row minus both <= rows reads 0 >= 1.
  LpModel three_rows;
  const int u = three_rows.add_variable(1.0);
  const int v = three_rows.add_variable(1.0);
  const int cover = three_rows.add_constraint(Sense::kGe, 3.0);
  three_rows.add_coefficient(cover, u, 1.0);
  three_rows.add_coefficient(cover, v, 1.0);
  for (const int var : {u, v}) {
    const int r = three_rows.add_constraint(Sense::kLe, 1.0);
    three_rows.add_coefficient(r, var, 1.0);
  }
  expect_infeasible(three_rows, "x + y >= 3, x <= 1, y <= 1");
}

TEST(SimplexTest, DetectsUnboundedness) {
  LpModel m;
  const int x = m.add_variable(-1.0);  // min -x, x unbounded above
  const int y = m.add_variable(1.0);
  const int r0 = m.add_constraint(Sense::kGe, 0.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  LpModel m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(-1.0);
  for (double b : {1.0, 1.0, 1.0}) {
    const int r = m.add_constraint(Sense::kLe, b);
    m.add_coefficient(r, x, 1.0);
    m.add_coefficient(r, y, 1.0);
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsLeRowNeedsArtificial) {
  // x <= -2 with x >= 0 is infeasible.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int r = m.add_constraint(Sense::kLe, -2.0);
  m.add_coefficient(r, x, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);

  // -x <= -2 (i.e. x >= 2) is feasible with optimum x = 2.
  LpModel m2;
  const int x2 = m2.add_variable(1.0);
  const int r2 = m2.add_constraint(Sense::kLe, -2.0);
  m2.add_coefficient(r2, x2, -1.0);
  const Solution s = solve(m2);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

// Property test: on random feasible LPs (feasibility forced by construction)
// the solver returns a point that is feasible and no worse than a known
// feasible point. Parameters from kLeOnlyCases on add one to three zero-rhs
// equality rows x_a - (z_a / z_b) x_b = 0, which z satisfies; the cold basis
// keeps their artificials basic at zero through phase 2.
constexpr int kLeOnlyCases = 20;

class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, OptimumIsFeasibleAndBeatsKnownPoint) {
  core::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 4 + GetParam() % 6;
  const int rows = 3 + GetParam() % 5;

  // Known point z >= 0.
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.uniform(0.0, 3.0);

  LpModel m;
  for (int j = 0; j < n; ++j) m.add_variable(rng.uniform(-1.0, 2.0));
  for (int i = 0; i < rows; ++i) {
    // a*x <= a*z + slack, guaranteeing z is feasible.
    std::vector<double> a(static_cast<std::size_t>(n));
    double az = 0.0;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(j)] = rng.uniform(0.0, 2.0);
      az += a[static_cast<std::size_t>(j)] * z[static_cast<std::size_t>(j)];
    }
    const int r = m.add_constraint(Sense::kLe, az + rng.uniform(0.0, 1.0));
    for (int j = 0; j < n; ++j) m.add_coefficient(r, j, a[static_cast<std::size_t>(j)]);
  }
  if (GetParam() >= kLeOnlyCases) {
    const int equalities = 1 + GetParam() % 3;
    for (int k = 0; k < equalities; ++k) {
      const auto a = static_cast<int>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<int>((a + rng.uniform_int(1, n - 1)) % n);
      const int r = m.add_constraint(Sense::kEq, 0.0);
      m.add_coefficient(r, a, 1.0);
      m.add_coefficient(r, b, -z[static_cast<std::size_t>(a)] / z[static_cast<std::size_t>(b)]);
    }
  }
  // Box the problem so it cannot be unbounded: sum x <= big.
  const int box = m.add_constraint(Sense::kLe, 100.0);
  for (int j = 0; j < n; ++j) m.add_coefficient(box, j, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << status_name(s.status);
  EXPECT_TRUE(optimality_certificate(m, s));
  EXPECT_LE(s.objective, m.objective_value(z) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexRandomTest, ::testing::Range(0, kLeOnlyCases + 40));

// --- warm starts ------------------------------------------------------------

// Shared generator for the warm-start tests: a feasible random LP with
// mixed row senses whose rhs can be scaled to fake "the next replan".
LpModel warm_test_model(core::Rng& rng, int n, int rows, double rhs_scale) {
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.uniform(0.5, 3.0);
  LpModel m;
  for (int j = 0; j < n; ++j) m.add_variable(rng.uniform(0.1, 2.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<double> a(static_cast<std::size_t>(n));
    double az = 0.0;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(j)] = rng.uniform(0.0, 2.0);
      az += a[static_cast<std::size_t>(j)] * z[static_cast<std::size_t>(j)];
    }
    // A mix of <= rows (z feasible with slack) and = rows (hot artificials
    // in the cold basis, so a cold solve runs the dual phase).
    const Sense sense = i % 3 == 0 ? Sense::kEq : Sense::kLe;
    const double slack = sense == Sense::kEq ? 0.0 : rng.uniform(0.1, 1.0);
    const int r = m.add_constraint(sense, (az + slack) * rhs_scale);
    for (int j = 0; j < n; ++j) m.add_coefficient(r, j, a[static_cast<std::size_t>(j)]);
  }
  return m;
}

// Seeding a solve with its own optimal basis must skip the dual phase and
// finish in zero iterations at the same optimum.
TEST(SimplexWarmTest, OwnBasisRoundTripSolvesInZeroIterations) {
  core::Rng rng(71);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_EQ(cold.basis.entries.size(), static_cast<std::size_t>(m.num_constraints()));
  EXPECT_GT(cold.phase1_iterations, 0);  // the = rows force a cold dual phase

  const Solution warm = solve(m, cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t j = 0; j < cold.x.size(); ++j)
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-7) << "x[" << j << "]";
}

// Three-row LP: min -x - 2y + 5z, x + y + z <= r0, x <= 2, y <= 3.
LpModel coupling_rhs_model(double r0) {
  LpModel m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(-2.0);
  const int z = m.add_variable(5.0);
  const int c0 = m.add_constraint(Sense::kLe, r0);
  m.add_coefficient(c0, x, 1.0);
  m.add_coefficient(c0, y, 1.0);
  m.add_coefficient(c0, z, 1.0);
  const int c1 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(c1, x, 1.0);
  const int c2 = m.add_constraint(Sense::kLe, 3.0);
  m.add_coefficient(c2, y, 1.0);
  return m;
}

// The model with every cost replaced by cost(j, old cost), everything else
// (senses, rhs, coefficients, row and column order) unchanged.
template <class Cost>
LpModel with_costs(const LpModel& model, Cost cost) {
  LpModel out;
  for (int j = 0; j < model.num_variables(); ++j)
    out.add_variable(cost(j, model.costs()[static_cast<std::size_t>(j)]));
  for (int i = 0; i < model.num_constraints(); ++i)
    out.add_constraint(model.senses()[static_cast<std::size_t>(i)],
                       model.rhs()[static_cast<std::size_t>(i)]);
  const SparseMatrix a = model.matrix();
  for (int j = 0; j < a.cols(); ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      out.add_coefficient(a.row_index(k), j, a.value(k));
  return out;
}

// Property: warm-solving a perturbed successor from the predecessor's basis
// reaches the same optimum a cold solve of the successor finds, and both
// answers carry the optimality certificate. Three seeds per input, each
// solved warm by the dual phase where damaged:
//  * the predecessor's basis on the rhs-perturbed successor (primal damage);
//  * the same basis with the successor's costs perturbed too, so the seed
//    is also dual infeasible (the dual phase shifts costs);
//  * the slack/artificial basis of a cold start as a seed, every artificial
//    hot (the path a cold solve takes, entered warm).
// Inputs 0-19 are random rhs scalings; input 20 shrinks the coupling row
// of coupling_rhs_model, driving the seed's basic x negative.
constexpr int kRandomRhsCases = 20;

class SimplexWarmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmRandomTest, PerturbedRhsWarmSolveMatchesColdObjective) {
  LpModel before, after;
  if (GetParam() < kRandomRhsCases) {
    core::Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
    const int n = 5 + GetParam() % 6;
    const int rows = 4 + GetParam() % 5;
    const double scale = 1.0 + rng.uniform(-0.2, 0.2);

    // Re-seed so predecessor and successor share coefficients exactly and
    // differ only in the rhs scale (the replan situation).
    const std::uint64_t model_seed = 7000 + static_cast<std::uint64_t>(GetParam());
    core::Rng rng_a(model_seed), rng_b(model_seed);
    before = warm_test_model(rng_a, n, rows, 1.0);
    after = warm_test_model(rng_b, n, rows, scale);
  } else {
    before = coupling_rhs_model(4.0);  // optimum x = 1, y = 3
    after = coupling_rhs_model(2.5);   // optimum y = 2.5
  }
  core::Rng cost_rng(8000 + static_cast<std::uint64_t>(GetParam()));
  const LpModel repriced =
      with_costs(after, [&](int, double c) { return c * cost_rng.uniform(0.3, 1.7); });

  const Solution base = solve(before);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  EXPECT_TRUE(optimality_certificate(before, base));
  Basis slack_artificial;
  for (int i = 0; i < after.num_constraints(); ++i)
    slack_artificial.entries.push_back({after.senses()[static_cast<std::size_t>(i)] == Sense::kEq
                                            ? BasisEntry::Kind::kArtificial
                                            : BasisEntry::Kind::kSlack,
                                        i});

  const std::pair<const LpModel*, const Basis*> cases[] = {
      {&after, &base.basis}, {&repriced, &base.basis}, {&after, &slack_artificial}};
  for (const auto& [model, seed] : cases) {
    const Solution cold = solve(*model);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    EXPECT_TRUE(optimality_certificate(*model, cold));
    const Solution warm = solve(*model, *seed);
    ASSERT_EQ(warm.status, SolveStatus::kOptimal);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_EQ(warm.fallback_pivots, 0);
    EXPECT_TRUE(optimality_certificate(*model, warm));
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * (1.0 + std::abs(cold.objective)));
  }
  if (GetParam() == kRandomRhsCases) {
    EXPECT_GE(solve(after, base.basis).phase1_iterations, 1);  // dual pivots
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexWarmRandomTest, ::testing::Range(0, kRandomRhsCases + 1));

// A basis that cannot map onto the model — wrong row count, out-of-range
// columns, a slack named on an equality row — must fall back to the cold
// path and still return the cold answer.
TEST(SimplexWarmTest, MismatchedBasisFallsBackToColdSolve) {
  core::Rng rng(72);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  Basis wrong_count;
  wrong_count.entries.resize(static_cast<std::size_t>(m.num_constraints() + 3));
  const Solution a = solve(m, wrong_count);
  EXPECT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_FALSE(a.warm_started);
  EXPECT_NEAR(a.objective, cold.objective, 1e-9);

  Basis bad_columns;
  for (int i = 0; i < m.num_constraints(); ++i)
    bad_columns.entries.push_back(
        {BasisEntry::Kind::kStructural, m.num_variables() + 100 + i});
  const Solution b = solve(m, bad_columns);
  EXPECT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_FALSE(b.warm_started);
  EXPECT_NEAR(b.objective, cold.objective, 1e-9);

  Basis slack_on_eq;  // row 0 of the generator is an equality: no slack
  for (int i = 0; i < m.num_constraints(); ++i)
    slack_on_eq.entries.push_back({BasisEntry::Kind::kSlack, i});
  const Solution c = solve(m, slack_on_eq);
  EXPECT_EQ(c.status, SolveStatus::kOptimal);
  EXPECT_FALSE(c.warm_started);
  EXPECT_NEAR(c.objective, cold.objective, 1e-9);
}

// An infeasible successor stays infeasible under a warm start (the seed is
// rejected, the cold path detects infeasibility as usual).
TEST(SimplexWarmTest, WarmStartDoesNotMaskInfeasibility) {
  LpModel feasible;
  const int x = feasible.add_variable(1.0);
  const int r0 = feasible.add_constraint(Sense::kLe, 5.0);
  feasible.add_coefficient(r0, x, 1.0);
  const int r1 = feasible.add_constraint(Sense::kGe, 1.0);
  feasible.add_coefficient(r1, x, 1.0);
  const Solution base = solve(feasible);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  LpModel infeasible;
  const int x2 = infeasible.add_variable(1.0);
  const int q0 = infeasible.add_constraint(Sense::kLe, 1.0);
  infeasible.add_coefficient(q0, x2, 1.0);
  const int q1 = infeasible.add_constraint(Sense::kGe, 2.0);
  infeasible.add_coefficient(q1, x2, 1.0);
  EXPECT_EQ(solve(infeasible, base.basis).status, SolveStatus::kInfeasible);
}

// min -2x - y - z s.t. x + y + z <= r0, x + 2y >= 2, x <= 2, z <= 1:
// feasible for r0 >= 1, infeasible below.
LpModel covering_rhs_model(double r0) {
  LpModel m;
  const int x = m.add_variable(-2.0);
  const int y = m.add_variable(-1.0);
  const int z = m.add_variable(-1.0);
  const int c0 = m.add_constraint(Sense::kLe, r0);
  for (const int v : {x, y, z}) m.add_coefficient(c0, v, 1.0);
  const int c1 = m.add_constraint(Sense::kGe, 2.0);
  m.add_coefficient(c1, x, 1.0);
  m.add_coefficient(c1, y, 2.0);
  const int c2 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(c2, x, 1.0);
  const int c3 = m.add_constraint(Sense::kLe, 1.0);
  m.add_coefficient(c3, z, 1.0);
  return m;
}

// A warm seed on a model the rhs cut made infeasible: the dual phase finds
// a leaving row with no entering column, checks its row of B^{-1} as a
// Farkas ray, and reports infeasibility warm, with no cold re-proof.
TEST(SimplexWarmTest, InfeasibleSeedIsCertifiedByTheDualPhase) {
  const Solution base = solve(covering_rhs_model(4.0));
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  const LpModel cut = covering_rhs_model(0.5);
  const Solution warm = solve(cut, base.basis);
  EXPECT_EQ(warm.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.fallback_pivots, 0);
  EXPECT_GE(warm.phase1_iterations, 1);
  EXPECT_EQ(warm.iterations, warm.phase1_iterations);
  EXPECT_EQ(solve(cut).status, SolveStatus::kInfeasible);
}

// x_i = 1 for i < 3: a seed of the three artificials leaves every row hot,
// so the dual phase needs three pivots.
LpModel unit_equality_model() {
  LpModel eq;
  for (int j = 0; j < 3; ++j) eq.add_variable(1.0);
  for (int i = 0; i < 3; ++i) {
    const int r = eq.add_constraint(Sense::kEq, 1.0);
    eq.add_coefficient(r, i, 1.0);
  }
  return eq;
}

Basis all_artificial_seed(int rows) {
  Basis b;
  for (int i = 0; i < rows; ++i) b.entries.push_back({BasisEntry::Kind::kArtificial, i});
  return b;
}

// A dual phase that runs out of pivots is a failed warm attempt: the cold
// path answers, the attempt's pivots are counted in fallback_pivots,
// outside `iterations`, and its time in fallback_seconds, inside
// solve_seconds.
TEST(SimplexWarmTest, ExhaustedDualPhaseCountsFallbackPivots) {
  const LpModel eq = unit_equality_model();
  SolveOptions opt;
  opt.max_iterations = 2;  // caps the dual phase below its three pivots
  const Solution warm = solve(eq, all_artificial_seed(3), opt);
  EXPECT_FALSE(warm.warm_started);
  EXPECT_EQ(warm.fallback_pivots, 2);
  EXPECT_GT(warm.fallback_seconds, 0.0);
  EXPECT_LE(warm.fallback_seconds, warm.solve_seconds);
  const Solution cold = solve(eq, opt);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(cold.fallback_pivots, 0);
  EXPECT_EQ(cold.fallback_seconds, 0.0);
  EXPECT_EQ(warm.iterations, cold.iterations);
}

// Medium-size structured LP resembling the Titan-Next shape: assignment
// variables with equality demand rows and capacity rows plus peak rows.
TEST(SimplexTest, StructuredAssignmentLp) {
  core::Rng rng(99);
  const int configs = 12, dcs = 4, slots = 6;
  LpModel m;
  // x[t][c][d], cost 0; y[d] peak vars with cost 1.
  std::vector<int> y(static_cast<std::size_t>(dcs));
  auto xvar = [&](int t, int c, int d) { return (t * configs + c) * dcs + d; };
  for (int t = 0; t < slots; ++t)
    for (int c = 0; c < configs; ++c)
      for (int d = 0; d < dcs; ++d) m.add_variable(0.0);
  for (int d = 0; d < dcs; ++d) y[static_cast<std::size_t>(d)] = m.add_variable(1.0);

  std::vector<double> demand(static_cast<std::size_t>(slots * configs));
  for (int t = 0; t < slots; ++t)
    for (int c = 0; c < configs; ++c) {
      const double n = rng.uniform(1.0, 20.0);
      demand[static_cast<std::size_t>(t * configs + c)] = n;
      const int r = m.add_constraint(Sense::kEq, n);
      for (int d = 0; d < dcs; ++d) m.add_coefficient(r, xvar(t, c, d), 1.0);
    }
  // Peak rows: y_d >= sum_c x[t][c][d]  for each t.
  for (int t = 0; t < slots; ++t)
    for (int d = 0; d < dcs; ++d) {
      const int r = m.add_constraint(Sense::kLe, 0.0);
      for (int c = 0; c < configs; ++c) m.add_coefficient(r, xvar(t, c, d), 1.0);
      m.add_coefficient(r, y[static_cast<std::size_t>(d)], -1.0);
    }

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(optimality_certificate(m, s));

  // The optimum of sum of per-DC peaks with free assignment equals the max
  // over slots of total demand divided optimally across DCs == max_t
  // total_demand(t) (put everything anywhere; peaks sum to per-DC max;
  // balancing equalizes). Lower bound: max_t sum_c demand / 1 spread over
  // dcs -> sum of peaks >= max_t total_t. Verify against that bound.
  double max_total = 0.0;
  for (int t = 0; t < slots; ++t) {
    double tot = 0.0;
    for (int c = 0; c < configs; ++c) tot += demand[static_cast<std::size_t>(t * configs + c)];
    max_total = std::max(max_total, tot);
  }
  EXPECT_GE(s.objective, max_total - 1e-6);
  EXPECT_LE(s.objective, max_total + 1e-6);
}

// --- anti-cycling ----------------------------------------------------------

// A degenerate first pivot (a zero-rhs row binds immediately) must switch
// pricing to Bland's rule and still reach the optimum, with both stall and
// Bland pivots surfaced on the Solution.
TEST(SimplexTest, DegenerateStallSwitchesToBlandRule) {
  // min -2x - y;  x - y <= 0 (rhs 0: entering x pivots degenerately),
  // x + y <= 2, x <= 1. Optimum x = 1, y = 1, objective -3.
  LpModel m;
  const int x = m.add_variable(-2.0);
  const int y = m.add_variable(-1.0);
  const int r0 = m.add_constraint(Sense::kLe, 0.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, -1.0);
  const int r1 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r1, y, 1.0);
  const int r2 = m.add_constraint(Sense::kLe, 1.0);
  m.add_coefficient(r2, x, 1.0);

  SolveOptions eager;  // Bland after a single degenerate pivot
  eager.bland_trigger = 1;
  const Solution s = solve(m, eager);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
  EXPECT_GE(s.stall_pivots, 1);
  EXPECT_GE(s.bland_pivots, 1);

  // At the production trigger the same LP never leaves Dantzig pricing, and
  // the answer is identical.
  const Solution relaxed = solve(m);
  ASSERT_EQ(relaxed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(relaxed.objective, -3.0, 1e-7);
  EXPECT_EQ(relaxed.bland_pivots, 0);
}

// Optimal solves export row duals that certify the optimum: primal and dual
// feasibility and a closed duality gap (tests/lp_certificate.h), also on a
// negative-cost LP whose seed the dual phase must make dual feasible by
// shifting costs.
TEST(SimplexTest, OptimalSolveExportsConsistentDuals) {
  core::Rng rng(73);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  EXPECT_TRUE(optimality_certificate(m, solve(m)));
  const LpModel flipped = with_costs(m, [](int j, double c) { return j % 2 == 0 ? -c : c; });
  EXPECT_TRUE(optimality_certificate(flipped, solve(flipped)));
}

// --- structural-rank deficiency & warm-gate edge cases ---------------------

// Duplicate basis columns leave one position unpivotable; the Deficiency
// report names that position and the uncovered row, in matched order.
TEST(BasisLuDeficiencyTest, DuplicateColumnsDiagnosedWithMatchingRows) {
  // Columns: e0, e0 (dependent duplicate), e2, e1 (the repair candidate).
  std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, 1.0}, {0, 1, 1.0}, {2, 2, 1.0}, {1, 3, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(3, 4, trips);

  BasisLu lu;
  std::vector<int> basis = {0, 1, 2};
  EXPECT_FALSE(lu.factorize(a, basis));  // no diagnosis requested: plain abort

  BasisLu::Deficiency def;
  EXPECT_FALSE(lu.factorize(a, basis, 1e-10, &def));
  ASSERT_TRUE(def.any());
  ASSERT_EQ(def.positions.size(), def.rows.size());
  ASSERT_EQ(def.rows.size(), 1u);
  EXPECT_EQ(def.rows[0], 1);  // row 1 has no pivot
  EXPECT_TRUE(def.positions[0] == 0 || def.positions[0] == 1);

  // Swapping the failed position for row 1's unit column repairs the basis.
  basis[static_cast<std::size_t>(def.positions[0])] = 3;
  EXPECT_TRUE(lu.factorize(a, basis));
}

// A seed naming the same structural column twice cannot map onto the model
// at all — the warm attempt is rejected before factorization and the cold
// path answers.
TEST(SimplexWarmTest, DuplicateStructuralSeedFallsBackCold) {
  core::Rng rng(74);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  Basis dup;
  dup.entries.assign(static_cast<std::size_t>(m.num_constraints()),
                     {BasisEntry::Kind::kStructural, 0});
  const Solution s = solve(m, dup);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, cold.objective, 1e-9);
}

// An all-artificial seed on a model whose inequality rows own no
// artificials is unmappable (map rejection) and lands on the cold answer;
// on an all-equality model it maps with every row hot, and the dual phase
// repairs it warm.
TEST(SimplexWarmTest, AllArtificialSeedIsRejectedOrRepairedWarm) {
  // Mixed rows: the <= rows have slacks, not artificials -> unmappable.
  core::Rng rng(75);
  const LpModel mixed = warm_test_model(rng, 8, 6, 1.0);
  const Solution a = solve(mixed, all_artificial_seed(mixed.num_constraints()));
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_FALSE(a.warm_started);
  EXPECT_NEAR(a.objective, solve(mixed).objective, 1e-9);

  // All-equality model: the seed maps and factorizes with every artificial
  // at its (positive) rhs; three dual pivots drive them out.
  const Solution b = solve(unit_equality_model(), all_artificial_seed(3));
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_TRUE(b.warm_started);
  EXPECT_EQ(b.fallback_pivots, 0);
  EXPECT_EQ(b.phase1_iterations, 3);
  EXPECT_NEAR(b.objective, 3.0, 1e-7);
}

}  // namespace
}  // namespace titan::lp
