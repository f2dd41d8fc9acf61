// Linear program builder.
//
// Minimal modelling layer replacing COIN-OR for this reproduction: a
// minimization LP over continuous variables with lower bounds at zero,
// general rows (<=, >=, =), and a triplet-based coefficient store. The
// Titan-Next formulation (Fig. 13) and the Locality-First baseline build
// their programs through this interface and hand them to lp::solve().
#pragma once

#include <limits>
#include <vector>

#include "lp/sparse.h"

namespace titan::lp {

enum class Sense { kLe, kGe, kEq };

class LpModel {
 public:
  // Adds a variable with the given objective cost; returns its column index.
  // All variables are continuous with domain [0, +inf).
  int add_variable(double cost);

  // Adds a row; returns its index.
  int add_constraint(Sense sense, double rhs);

  // Adds `value` to coefficient (row, col); duplicates accumulate.
  void add_coefficient(int row, int col, double value);

  [[nodiscard]] int num_variables() const { return static_cast<int>(costs_.size()); }
  [[nodiscard]] int num_constraints() const { return static_cast<int>(senses_.size()); }

  [[nodiscard]] const std::vector<double>& costs() const { return costs_; }
  [[nodiscard]] const std::vector<Sense>& senses() const { return senses_; }
  [[nodiscard]] const std::vector<double>& rhs() const { return rhs_; }

  // Materializes the coefficient matrix (rows x cols).
  [[nodiscard]] SparseMatrix matrix() const;

  // Objective value of a candidate point (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  // Max constraint violation of a candidate point; 0 when feasible.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> costs_;
  std::vector<Sense> senses_;
  std::vector<double> rhs_;
  std::vector<SparseMatrix::Triplet> triplets_;
};

}  // namespace titan::lp
