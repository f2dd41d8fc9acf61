// Optimality certificate for an lp::Solution, shared by the LP and plan-LP
// tests. It reads only the model, the primal point and the exported row
// duals, so it holds an optimum to the same standard whichever path (cold,
// warm, dual phase or phase 2) produced it.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "lp/model.h"
#include "lp/simplex.h"

namespace titan::lp {

// LP duality for min c'x s.t. Ax {<=,=,>=} b, x >= 0, checked against
// Solution::duals:
//  * primal feasibility: max_violation(x) <= 1e-6;
//  * dual feasibility: every structural column prices c_j - a_j'y >= -1e-6,
//    y_i <= 1e-6 on <= rows and y_i >= -1e-6 on >= rows;
//  * a closed duality gap: |c'x - b'y| <= 1e-7 (1 + |c'x|).
// Reports the first violated condition with its row or column.
inline ::testing::AssertionResult optimality_certificate(const LpModel& m, const Solution& s) {
  if (s.status != SolveStatus::kOptimal)
    return ::testing::AssertionFailure() << "status " << status_name(s.status);
  const auto rows = static_cast<std::size_t>(m.num_constraints());
  if (s.duals.size() != rows)
    return ::testing::AssertionFailure() << s.duals.size() << " duals for " << rows << " rows";
  const double violation = m.max_violation(s.x);
  if (violation > 1e-6) return ::testing::AssertionFailure() << "max violation " << violation;

  const SparseMatrix a = m.matrix();
  for (int j = 0; j < m.num_variables(); ++j) {
    const double d = m.costs()[static_cast<std::size_t>(j)] - a.dot_column(j, s.duals);
    if (d < -1e-6) return ::testing::AssertionFailure() << "column " << j << " prices " << d;
  }
  double by = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double yi = s.duals[i];
    const Sense sense = m.senses()[i];
    if ((sense == Sense::kLe && yi > 1e-6) || (sense == Sense::kGe && yi < -1e-6))
      return ::testing::AssertionFailure() << "row " << i << " dual " << yi << " has the wrong sign";
    by += m.rhs()[i] * yi;
  }
  const double cx = m.objective_value(s.x);
  if (std::abs(cx - by) > 1e-7 * (1.0 + std::abs(cx)))
    return ::testing::AssertionFailure() << "duality gap: c'x " << cx << ", b'y " << by;
  return ::testing::AssertionSuccess();
}

}  // namespace titan::lp
