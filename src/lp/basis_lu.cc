#include "lp/basis_lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace titan::lp {

bool BasisLu::factorize(const SparseMatrix& a, const std::vector<int>& basis,
                        double pivot_tolerance, Deficiency* deficiency) {
  if (deficiency != nullptr) {
    deficiency->positions.clear();
    deficiency->rows.clear();
  }
  m_ = a.rows();
  assert(static_cast<int>(basis.size()) == m_);
  l_col_ptr_.assign(1, 0);
  l_rows_.clear();
  l_vals_.clear();
  u_col_ptr_.assign(1, 0);
  u_rows_.clear();
  u_vals_.clear();
  u_diag_.assign(static_cast<std::size_t>(m_), 0.0);
  pivot_row_of_.assign(static_cast<std::size_t>(m_), -1);
  row_perm_.assign(static_cast<std::size_t>(m_), -1);
  eta_pivot_pos_.clear();
  eta_pivot_val_.clear();
  eta_begin_.assign(1, 0);
  eta_pos_.clear();
  eta_val_.clear();
  scratch_.resize(static_cast<std::size_t>(m_));

  // Factor sparse columns first: the unit slack/artificial columns pivot
  // without creating any fill, leaving a small structural kernel.
  col_order_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) col_order_[static_cast<std::size_t>(k)] = k;
  std::stable_sort(col_order_.begin(), col_order_.end(), [&](int x, int y) {
    const int cx = basis[static_cast<std::size_t>(x)];
    const int cy = basis[static_cast<std::size_t>(y)];
    return (a.col_end(cx) - a.col_begin(cx)) < (a.col_end(cy) - a.col_begin(cy));
  });

  // Dense workspaces reused across columns.
  std::vector<double> work(static_cast<std::size_t>(m_), 0.0);
  std::vector<int> touched;              // original rows with nonzero work
  std::vector<char> in_stack(static_cast<std::size_t>(m_), 0);
  std::vector<int> stack, stack_k;       // DFS state
  std::vector<int> topo;                 // pivot positions in dependency order

  for (int j = 0; j < m_; ++j) {
    const int col = basis[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(j)])];

    // ---- Symbolic: reach of the column's rows through pivoted L columns.
    topo.clear();
    touched.clear();
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      const int r0 = a.row_index(k);
      if (in_stack[static_cast<std::size_t>(r0)]) continue;
      // Iterative DFS over original rows.
      stack.clear();
      stack_k.clear();
      stack.push_back(r0);
      stack_k.push_back(-1);
      in_stack[static_cast<std::size_t>(r0)] = 1;
      while (!stack.empty()) {
        const int r = stack.back();
        const int pk = row_perm_[static_cast<std::size_t>(r)];
        bool descended = false;
        if (pk >= 0) {
          int& cursor = stack_k.back();
          if (cursor < 0) cursor = l_col_ptr_[static_cast<std::size_t>(pk)];
          while (cursor < l_col_ptr_[static_cast<std::size_t>(pk) + 1]) {
            const int child = l_rows_[static_cast<std::size_t>(cursor)];
            ++cursor;
            if (!in_stack[static_cast<std::size_t>(child)]) {
              in_stack[static_cast<std::size_t>(child)] = 1;
              stack.push_back(child);
              stack_k.push_back(-1);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          // Post-order: pivoted rows go to topo, everything to touched.
          if (pk >= 0) topo.push_back(pk);
          touched.push_back(r);
          stack.pop_back();
          stack_k.pop_back();
        }
      }
    }
    // Post-order gives children before parents; eliminate in reverse
    // (ancestors first = increasing dependency order).
    std::reverse(topo.begin(), topo.end());
    std::sort(topo.begin(), topo.end());

    // ---- Numeric: scatter and eliminate.
    for (int k = a.col_begin(col); k < a.col_end(col); ++k)
      work[static_cast<std::size_t>(a.row_index(k))] = a.value(k);
    for (const int pk : topo) {
      const int pr = pivot_row_of_[static_cast<std::size_t>(pk)];
      const double xk = work[static_cast<std::size_t>(pr)];
      if (xk == 0.0) continue;
      for (int t = l_col_ptr_[static_cast<std::size_t>(pk)];
           t < l_col_ptr_[static_cast<std::size_t>(pk) + 1]; ++t)
        work[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(t)])] -=
            l_vals_[static_cast<std::size_t>(t)] * xk;
    }

    // ---- Pivot selection among not-yet-pivoted touched rows.
    int pivot = -1;
    double best = pivot_tolerance;
    for (const int r : touched) {
      if (row_perm_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(work[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (pivot < 0) {
      // Singular: clean up the workspace, then either bail (strict mode) or
      // — in diagnosis mode — record the failed basis position and skip the
      // column, factoring on through the independent remainder. The skipped
      // LU slot gets inert placeholders; the caller never solves with a
      // deficient factorization.
      for (const int r : touched) {
        work[static_cast<std::size_t>(r)] = 0.0;
        in_stack[static_cast<std::size_t>(r)] = 0;
      }
      if (deficiency == nullptr) return false;
      deficiency->positions.push_back(col_order_[static_cast<std::size_t>(j)]);
      u_col_ptr_.push_back(static_cast<int>(u_rows_.size()));
      l_col_ptr_.push_back(static_cast<int>(l_rows_.size()));
      u_diag_[static_cast<std::size_t>(j)] = 1.0;
      pivot_row_of_[static_cast<std::size_t>(j)] = -1;
      continue;
    }
    const double d = work[static_cast<std::size_t>(pivot)];

    // ---- Store U column (pivoted rows) and L column (unpivoted rows).
    for (const int r : touched) {
      const int pk = row_perm_[static_cast<std::size_t>(r)];
      const double v = work[static_cast<std::size_t>(r)];
      if (pk >= 0) {
        if (v != 0.0) {
          u_rows_.push_back(pk);
          u_vals_.push_back(v);
        }
      } else if (r != pivot && std::abs(v) > 0.0) {
        l_rows_.push_back(r);
        l_vals_.push_back(v / d);
      }
      work[static_cast<std::size_t>(r)] = 0.0;
      in_stack[static_cast<std::size_t>(r)] = 0;
    }
    u_col_ptr_.push_back(static_cast<int>(u_rows_.size()));
    l_col_ptr_.push_back(static_cast<int>(l_rows_.size()));
    u_diag_[static_cast<std::size_t>(j)] = d;
    pivot_row_of_[static_cast<std::size_t>(j)] = pivot;
    row_perm_[static_cast<std::size_t>(pivot)] = j;
  }
  // The solves' shortcuts: the leading unit block, and the L columns that
  // hold any entry.
  n_unit_ = 0;
  while (n_unit_ < m_ && u_col_ptr_[static_cast<std::size_t>(n_unit_) + 1] == 0 &&
         l_col_ptr_[static_cast<std::size_t>(n_unit_) + 1] == 0 &&
         std::abs(u_diag_[static_cast<std::size_t>(n_unit_)]) == 1.0)
    ++n_unit_;
  l_nonempty_.clear();
  for (int k = 0; k < m_; ++k)
    if (l_col_ptr_[static_cast<std::size_t>(k) + 1] > l_col_ptr_[static_cast<std::size_t>(k)])
      l_nonempty_.push_back(k);
  if (deficiency != nullptr && deficiency->any()) {
    for (int r = 0; r < m_; ++r)
      if (row_perm_[static_cast<std::size_t>(r)] < 0) deficiency->rows.push_back(r);
    std::sort(deficiency->positions.begin(), deficiency->positions.end());
    return false;
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == m_);
  double* const xs = x.data();
  double* const y = scratch_.data();
  const int* const pivot_row = pivot_row_of_.data();
  const double* const diag = u_diag_.data();
  const int* const col_order = col_order_.data();
  // Forward: apply L^{-1} in original row space, in pivot order (empty L
  // columns skipped), then gather into pivot coordinates.
  const int* const l_ptr = l_col_ptr_.data();
  const int* const l_rows = l_rows_.data();
  const double* const l_vals = l_vals_.data();
  for (const int k : l_nonempty_) {
    const double xk = xs[pivot_row[k]];
    if (xk == 0.0) continue;
    for (int t = l_ptr[k]; t < l_ptr[k + 1]; ++t) xs[l_rows[t]] -= l_vals[t] * xk;
  }
  for (int k = 0; k < m_; ++k) y[k] = xs[pivot_row[k]];
  // Backward U solve in pivot coordinates. U column k touches only
  // positions before k, so position k is final when step k solves it and
  // is scattered straight to its basis position col_order_[k]. The unit
  // block has no U entries and goes last; its quotients by +-1 are the
  // exact products.
  const int* const u_ptr = u_col_ptr_.data();
  const int* const u_rows = u_rows_.data();
  const double* const u_vals = u_vals_.data();
  for (int k = m_ - 1; k >= n_unit_; --k) {
    const double t = y[k] / diag[k];
    xs[col_order[k]] = t;
    if (t == 0.0) continue;
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) y[u_rows[q]] -= u_vals[q] * t;
  }
  for (int k = 0; k < n_unit_; ++k) xs[col_order[k]] = y[k] * diag[k];
  // Eta updates, oldest first: B = B0 E1 ... Ek, so
  // x = Ek^{-1} ... E1^{-1} B0^{-1} b.
  const int* const eta_pos = eta_pos_.data();
  const double* const eta_val = eta_val_.data();
  for (std::size_t e = 0; e < eta_pivot_pos_.size(); ++e) {
    const int p = eta_pivot_pos_[e];
    const double t = xs[p] / eta_pivot_val_[e];
    if (t != 0.0) {
      for (int q = eta_begin_[e]; q < eta_begin_[e + 1]; ++q) xs[eta_pos[q]] -= eta_val[q] * t;
    }
    xs[p] = t;
  }
}

void BasisLu::btran(std::vector<double>& y) {
  assert(static_cast<int>(y.size()) == m_);
  double* const ys = y.data();
  // Eta transposes, newest first.
  const int* const eta_pos = eta_pos_.data();
  const double* const eta_val = eta_val_.data();
  for (std::size_t e = eta_pivot_pos_.size(); e-- > 0;) {
    const int p = eta_pivot_pos_[e];
    double acc = ys[p];
    for (int q = eta_begin_[e]; q < eta_begin_[e + 1]; ++q) acc -= eta_val[q] * ys[eta_pos[q]];
    ys[p] = acc / eta_pivot_val_[e];
  }
  // U^T forward solve into pivot coordinates (inputs gathered through the
  // column ordering: LU position k holds basis position col_order_[k]).
  double* const t = scratch_.data();
  const double* const diag = u_diag_.data();
  const int* const col_order = col_order_.data();
  const int* const u_ptr = u_col_ptr_.data();
  const int* const u_rows = u_rows_.data();
  const double* const u_vals = u_vals_.data();
  for (int k = 0; k < n_unit_; ++k) t[k] = ys[col_order[k]] * diag[k];  // exact: +-1
  for (int k = n_unit_; k < m_; ++k) {
    double acc = ys[col_order[k]];
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) acc -= u_vals[q] * t[u_rows[q]];
    t[k] = acc / diag[k];
  }
  // Scatter to original rows, then the L^T backward pass in place over the
  // nonempty L columns: column k reads only rows pivoted after k, which
  // are final by then.
  const int* const pivot_row = pivot_row_of_.data();
  const int* const l_ptr = l_col_ptr_.data();
  const int* const l_rows = l_rows_.data();
  const double* const l_vals = l_vals_.data();
  for (int k = 0; k < m_; ++k) ys[pivot_row[k]] = t[k];
  for (auto it = l_nonempty_.rbegin(); it != l_nonempty_.rend(); ++it) {
    const int k = *it;
    double acc = t[k];
    for (int q = l_ptr[k]; q < l_ptr[k + 1]; ++q) acc -= l_vals[q] * ys[l_rows[q]];
    ys[pivot_row[k]] = acc;
  }
}

bool BasisLu::update(int leaving_pos, const std::vector<double>& alpha,
                     std::span<const int> nonzeros, double pivot_tolerance) {
  const double pivot = alpha[static_cast<std::size_t>(leaving_pos)];
  if (std::abs(pivot) < pivot_tolerance) return false;
  eta_pivot_pos_.push_back(leaving_pos);
  eta_pivot_val_.push_back(pivot);
  for (const int i : nonzeros) {
    assert(alpha[static_cast<std::size_t>(i)] != 0.0);
    if (i == leaving_pos) continue;
    eta_pos_.push_back(i);
    eta_val_.push_back(alpha[static_cast<std::size_t>(i)]);
  }
  eta_begin_.push_back(static_cast<int>(eta_pos_.size()));
  return true;
}

}  // namespace titan::lp
