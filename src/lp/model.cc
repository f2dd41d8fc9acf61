#include "lp/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace titan::lp {

int LpModel::add_variable(double cost) {
  costs_.push_back(cost);
  return static_cast<int>(costs_.size()) - 1;
}

int LpModel::add_constraint(Sense sense, double rhs) {
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return static_cast<int>(senses_.size()) - 1;
}

void LpModel::add_coefficient(int row, int col, double value) {
  assert(row >= 0 && row < num_constraints());
  assert(col >= 0 && col < num_variables());
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

SparseMatrix LpModel::matrix() const {
  return SparseMatrix::from_triplets(num_constraints(), num_variables(), triplets_);
}

double LpModel::objective_value(const std::vector<double>& x) const {
  double acc = 0.0;
  for (std::size_t j = 0; j < costs_.size(); ++j) acc += costs_[j] * x[j];
  return acc;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  std::vector<double> row_activity(static_cast<std::size_t>(num_constraints()), 0.0);
  for (const auto& t : triplets_)
    row_activity[static_cast<std::size_t>(t.row)] += t.value * x[static_cast<std::size_t>(t.col)];
  double worst = 0.0;
  for (int i = 0; i < num_constraints(); ++i) {
    const double a = row_activity[static_cast<std::size_t>(i)];
    const double b = rhs_[static_cast<std::size_t>(i)];
    double v = 0.0;
    switch (senses_[static_cast<std::size_t>(i)]) {
      case Sense::kLe: v = a - b; break;
      case Sense::kGe: v = b - a; break;
      case Sense::kEq: v = std::abs(a - b); break;
    }
    worst = std::max(worst, v);
  }
  for (double xi : x) worst = std::max(worst, -xi);  // lower bounds
  return worst;
}

}  // namespace titan::lp
