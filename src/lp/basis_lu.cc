#include "lp/basis_lu.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace titan::lp {
namespace {

// A sparse solve whose reach passes m / kDenseReach positions finishes
// with the dense passes, which cost less per position once the reach is a
// sizable share of m. Of m/5, m/10 and m/20, m/20 measured cheapest on
// perfbench `steady` (m ~ 1,700) and on cascading-drain (m ~ 6,800).
constexpr std::size_t kDenseReach = 20;

// The sparse btran applies only the etas its nonzeros reach while the eta
// file holds at most this many, one bit of BasisLu::eta_mask_ each; past
// it (refactor_interval above 64) it applies the whole file.
constexpr std::size_t kMaskedEtas = 64;

// Lists the nonzero entries of v[0, m) ascending in `nonzeros` and turns
// its zeros into +0: how a sparse solve that went dense ends.
void list_nonzeros(double* v, int m, std::vector<int>& nonzeros) {
  nonzeros.clear();
  for (int i = 0; i < m; ++i) {
    if (v[i] != 0.0)
      nonzeros.push_back(i);
    else
      v[i] = 0.0;  // +0
  }
}

// Calls f(i) for each marked i in [lo, hi), ascending (scan_up) or
// descending (scan_down). Marks hold 0 or 1, so an unmarked run of eight
// is one zero word, and a marked word's set bits, one per marked byte,
// are visited by count-trailing/leading-zeros.
template <class F>
void scan_up(const char* mark, int lo, int hi, F f) {
  int i = lo;
  for (; i < hi && (i & 7) != 0; ++i)
    if (mark[i]) f(i);
  for (; i + 8 <= hi; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, mark + i, 8);
    while (w != 0) {
      f(i + (std::countr_zero(w) >> 3));
      w &= w - 1;
    }
  }
  for (; i < hi; ++i)
    if (mark[i]) f(i);
}

template <class F>
void scan_down(const char* mark, int lo, int hi, F f) {
  int i = hi;
  for (; i > lo && (i & 7) != 0; --i)
    if (mark[i - 1]) f(i - 1);
  for (; i - 8 >= lo; i -= 8) {
    std::uint64_t w;
    std::memcpy(&w, mark + i - 8, 8);
    while (w != 0) {
      const int bit = 63 - std::countl_zero(w);
      f(i - 8 + (bit >> 3));
      w &= ~(std::uint64_t{1} << bit);
    }
  }
  for (; i > lo; --i)
    if (mark[i - 1]) f(i - 1);
}

}  // namespace

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
  eta_mask_.assign(static_cast<std::size_t>(m_), 0);
  scratch_.resize(static_cast<std::size_t>(m_));
  work_.resize(static_cast<std::size_t>(m_), 0.0);
  mark_.resize(static_cast<std::size_t>(m_), 0);

  // Factor sparse columns first: the unit slack/artificial columns pivot
  // without creating any fill, leaving a small structural kernel. A stable
  // counting sort by nonzero count.
  const auto col_nnz = [&](int k) {
    const int c = basis[static_cast<std::size_t>(k)];
    return a.col_end(c) - a.col_begin(c);
  };
  count_.assign(1, 0);
  for (int k = 0; k < m_; ++k) {
    const auto bucket = static_cast<std::size_t>(col_nnz(k)) + 1;
    if (bucket >= count_.size()) count_.resize(bucket + 1, 0);
    ++count_[bucket];
  }
  for (std::size_t c = 1; c < count_.size(); ++c) count_[c] += count_[c - 1];
  col_order_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k)
    col_order_[static_cast<std::size_t>(count_[static_cast<std::size_t>(col_nnz(k))]++)] = k;

  // Workspaces reused across columns; work_ and mark_ (rows on the DFS
  // stack or touched) are returned to zero after each column.
  std::vector<double>& work = work_;
  std::vector<char>& in_stack = mark_;
  std::vector<int>& touched = reach_;    // original rows with nonzero work
  std::vector<int>& stack = stack_;      // DFS state
  std::vector<int>& stack_k = stack_cursor_;
  std::vector<int>& topo = topo_;        // reached pivot positions, then sorted

  for (int j = 0; j < m_; ++j) {
    const int col = basis[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(j)])];

    // A single entry on an unpivoted row pivots there with empty L and U
    // columns: what the general path below computes for it.
    if (a.col_end(col) - a.col_begin(col) == 1) {
      const int r0 = a.row_index(a.col_begin(col));
      const double v = a.value(a.col_begin(col));
      if (row_perm_[static_cast<std::size_t>(r0)] < 0 && std::abs(v) > pivot_tolerance) {
        u_col_ptr_.push_back(static_cast<int>(u_rows_.size()));
        l_col_ptr_.push_back(static_cast<int>(l_rows_.size()));
        u_diag_[static_cast<std::size_t>(j)] = v;
        pivot_row_of_[static_cast<std::size_t>(j)] = r0;
        row_perm_[static_cast<std::size_t>(r0)] = j;
        continue;
      }
    }

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
          // Finished: pivoted rows go to topo, everything to touched.
          if (pk >= 0) topo.push_back(pk);
          touched.push_back(r);
          stack.pop_back();
          stack_k.pop_back();
        }
      }
    }
    // Eliminate in increasing pivot position: L column k only updates rows
    // pivoted after step k, so every update to a row lands before that
    // row's own column is applied. topo holds distinct positions, so the
    // sort alone fixes the order.
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
  // The sparse solves' indexes: the inverse column order, and the row-wise
  // patterns of U and L, each row's columns in ascending order.
  col_pos_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k)
    col_pos_[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(k)])] = k;
  const auto index_rows = [&](const std::vector<int>& col_ptr, const auto& row_of,
                              std::vector<int>& row_ptr, std::vector<int>& row_cols) {
    const int* const cp = col_ptr.data();
    row_ptr.assign(static_cast<std::size_t>(m_) + 1, 0);
    int* const rp = row_ptr.data();
    for (int q = 0; q < cp[m_]; ++q) ++rp[row_of(q) + 1];
    for (int i = 0; i < m_; ++i) rp[i + 1] += rp[i];
    row_cols.resize(static_cast<std::size_t>(rp[m_]));
    std::vector<int>& cursor = topo_;
    cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
    for (int k = 0; k < m_; ++k)
      for (int q = cp[k]; q < cp[k + 1]; ++q)
        row_cols[static_cast<std::size_t>(cursor[static_cast<std::size_t>(row_of(q))]++)] = k;
  };
  index_rows(u_col_ptr_, [&](int q) { return u_rows_[static_cast<std::size_t>(q)]; }, u_row_ptr_,
             u_row_cols_);
  index_rows(l_col_ptr_,
             [&](int q) {
               return row_perm_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(q)])];
             },
             l_row_ptr_, l_row_cols_);
  return true;
}

void BasisLu::ftran(std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == m_);
  double* const xs = x.data();
  double* const y = scratch_.data();
  const int* const pivot_row = pivot_row_of_.data();
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
  ftran_upper(xs, y);
}

void BasisLu::ftran_upper(double* xs, double* y) {
  const double* const diag = u_diag_.data();
  const int* const col_order = col_order_.data();
  // Backward U solve in pivot coordinates. U column k touches only
  // positions before k, so position k is final when step k solves it and
  // is scattered straight to its basis position col_order_[k]. The unit
  // block has no U entries and goes last; its quotients by +-1 are the
  // exact products. y is left all zero.
  const int* const u_ptr = u_col_ptr_.data();
  const int* const u_rows = u_rows_.data();
  const double* const u_vals = u_vals_.data();
  for (int k = m_ - 1; k >= n_unit_; --k) {
    const double t = y[k] / diag[k];
    y[k] = 0.0;
    xs[col_order[k]] = t;
    if (t == 0.0) continue;
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) y[u_rows[q]] -= u_vals[q] * t;
  }
  for (int k = 0; k < n_unit_; ++k) {
    xs[col_order[k]] = y[k] * diag[k];
    y[k] = 0.0;
  }
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
  btran_lower(ys, scratch_.data());
}

void BasisLu::btran_lower(double* ys, double* t) {
  // U^T forward solve into pivot coordinates (inputs gathered through the
  // column ordering: LU position k holds basis position col_order_[k]).
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

void BasisLu::ftran(std::vector<double>& x, std::vector<int>& nonzeros) {
  assert(static_cast<int>(x.size()) == m_);
  double* const xs = x.data();
  double* const y = work_.data();
  char* const mark = mark_.data();
  const int* const pivot_row = pivot_row_of_.data();
  const int* const perm = row_perm_.data();
  const double* const diag = u_diag_.data();
  const int* const col_order = col_order_.data();
  const int* const l_ptr = l_col_ptr_.data();
  const int* const l_rows = l_rows_.data();
  const double* const l_vals = l_vals_.data();
  const int* const u_ptr = u_col_ptr_.data();
  const int* const u_rows = u_rows_.data();
  const double* const u_vals = u_vals_.data();
  // The reach in pivot positions: the input rows, closed over the L
  // columns they fill. The L columns holding entries (all past the unit
  // block) are then applied in ascending pivot order, as the dense pass
  // applies them, by a scan of the marks.
  std::vector<int>& reach = reach_;
  reach.clear();
  for (const int r : nonzeros) {
    const int k = perm[r];
    mark[k] = 1;
    reach.push_back(k);
  }
  if (!l_nonempty_.empty()) {
    bool any_l = false;
    for (std::size_t i = 0; i < reach.size(); ++i) {
      const int k = reach[i];
      for (int t = l_ptr[k]; t < l_ptr[k + 1]; ++t) {
        any_l = true;
        const int k2 = perm[l_rows[t]];
        if (!mark[k2]) {
          mark[k2] = 1;
          reach.push_back(k2);
        }
      }
    }
    if (any_l)
      scan_up(mark, n_unit_, m_, [&](int k) {
        if (l_ptr[k] == l_ptr[k + 1]) return;
        const double xk = xs[pivot_row[k]];
        if (xk == 0.0) return;
        for (int t = l_ptr[k]; t < l_ptr[k + 1]; ++t) xs[l_rows[t]] -= l_vals[t] * xk;
      });
  }
  // Gather into pivot coordinates, clearing the row-space input, then
  // close the reach over U. The structural positions are solved in
  // descending order, as the dense pass solves them; the unit block,
  // which scatters nothing, last.
  for (const int k : reach) {
    y[k] = xs[pivot_row[k]];
    xs[pivot_row[k]] = 0.0;
  }
  const std::size_t dense_at = static_cast<std::size_t>(m_) / kDenseReach;
  for (std::size_t i = 0; i < reach.size(); ++i) {
    const int k = reach[i];
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) {
      const int k2 = u_rows[q];
      if (!mark[k2]) {
        mark[k2] = 1;
        reach.push_back(k2);
      }
    }
    if (reach.size() > dense_at) {
      for (const int k3 : reach) mark[k3] = 0;
      ftran_upper(xs, y);
      return list_nonzeros(xs, m_, nonzeros);
    }
  }
  scan_down(mark, n_unit_, m_, [&](int k) {
    const double t = y[k] / diag[k];
    y[k] = 0.0;
    xs[col_order[k]] = t;
    if (t == 0.0) return;
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) y[u_rows[q]] -= u_vals[q] * t;
  });
  for (const int k : reach) {
    mark[k] = 0;
    if (k < n_unit_) {
      xs[col_order[k]] = y[k] * diag[k];
      y[k] = 0.0;
    }
  }
  // Eta updates, oldest first, over basis positions, marking the positions
  // they fill.
  for (const int k : reach) mark[col_order[k]] = 1;
  const int* const eta_pos = eta_pos_.data();
  const double* const eta_val = eta_val_.data();
  for (std::size_t e = 0; e < eta_pivot_pos_.size(); ++e) {
    const int p = eta_pivot_pos_[e];
    if (xs[p] == 0.0) continue;
    const double t = xs[p] / eta_pivot_val_[e];
    if (t != 0.0) {
      for (int q = eta_begin_[e]; q < eta_begin_[e + 1]; ++q) {
        xs[eta_pos[q]] -= eta_val[q] * t;
        mark[eta_pos[q]] = 1;
      }
    }
    xs[p] = t;
  }
  finish(xs, nonzeros);
}

void BasisLu::btran(std::vector<double>& y, std::vector<int>& nonzeros) {
  assert(static_cast<int>(y.size()) == m_);
  double* const ys = y.data();
  double* const t = work_.data();
  char* const mark = mark_.data();
  // Eta transposes, newest first, adding the positions they fill. A
  // position outside the pattern is written only when its sum is
  // nonzero, so it stays +0. With at most kMaskedEtas etas, only the etas
  // whose support holds a nonzero are applied: `live` holds the mask bits
  // of every position in the pattern, and a position that joins it adds
  // the bits of the older etas that touch it. A skipped eta reads only
  // zeros, so it could write nothing but a zero over a zero.
  for (const int p : nonzeros) mark[p] = 1;
  const int* const eta_pos = eta_pos_.data();
  const double* const eta_val = eta_val_.data();
  const auto apply_eta = [&](std::size_t e) {
    const int p = eta_pivot_pos_[e];
    double acc = ys[p];
    for (int q = eta_begin_[e]; q < eta_begin_[e + 1]; ++q) acc -= eta_val[q] * ys[eta_pos[q]];
    if (mark[p]) {
      ys[p] = acc / eta_pivot_val_[e];
      return false;
    }
    if (acc == 0.0) return false;
    ys[p] = acc / eta_pivot_val_[e];
    mark[p] = 1;
    nonzeros.push_back(p);
    return true;
  };
  if (eta_pivot_pos_.size() <= kMaskedEtas) {
    const std::uint64_t* const eta_mask = eta_mask_.data();
    std::uint64_t live = 0;
    for (const int p : nonzeros) live |= eta_mask[p];
    while (live != 0) {
      const int e = 63 - std::countl_zero(live);
      const std::uint64_t older = (std::uint64_t{1} << e) - 1;
      live &= older;
      if (apply_eta(static_cast<std::size_t>(e))) live |= eta_mask[eta_pivot_pos_[e]] & older;
    }
  } else {
    for (std::size_t e = eta_pivot_pos_.size(); e-- > 0;) apply_eta(e);
  }
  // The U^T reach in pivot positions, closed over the row-wise U index.
  // The unit block reads nothing and is solved first; the structural
  // positions follow in ascending order, which solves each position after
  // every position its dot product reads.
  const int* const col_pos = col_pos_.data();
  const int* const ur_ptr = u_row_ptr_.data();
  const int* const ur_cols = u_row_cols_.data();
  std::vector<int>& reach = reach_;
  reach.clear();
  for (const int p : nonzeros) mark[p] = 0;
  for (const int p : nonzeros) {
    const int k = col_pos[p];
    mark[k] = 1;
    reach.push_back(k);
  }
  const std::size_t dense_at = static_cast<std::size_t>(m_) / kDenseReach;
  for (std::size_t i = 0; i < reach.size(); ++i) {
    const int k = reach[i];
    for (int q = ur_ptr[k]; q < ur_ptr[k + 1]; ++q) {
      const int k2 = ur_cols[q];
      if (!mark[k2]) {
        mark[k2] = 1;
        reach.push_back(k2);
      }
    }
    if (reach.size() > dense_at) {
      for (const int k3 : reach) mark[k3] = 0;
      btran_lower(ys, t);
      std::fill(work_.begin(), work_.begin() + m_, 0.0);
      return list_nonzeros(ys, m_, nonzeros);
    }
  }
  const double* const diag = u_diag_.data();
  const int* const col_order = col_order_.data();
  const int* const u_ptr = u_col_ptr_.data();
  const int* const u_rows = u_rows_.data();
  const double* const u_vals = u_vals_.data();
  for (const int k : reach)
    if (k < n_unit_) t[k] = ys[col_order[k]] * diag[k];  // exact: +-1
  scan_up(mark, n_unit_, m_, [&](int k) {
    double acc = ys[col_order[k]];
    for (int q = u_ptr[k]; q < u_ptr[k + 1]; ++q) acc -= u_vals[q] * t[u_rows[q]];
    t[k] = acc / diag[k];
  });
  // Scatter to original rows (clearing the position-space input first),
  // then the L^T pass over the reach closed through the row-wise L index,
  // in descending pivot order: L column k reads only rows pivoted after k.
  const int* const pivot_row = pivot_row_of_.data();
  for (const int k : reach) ys[col_order[k]] = 0.0;
  for (const int k : reach) ys[pivot_row[k]] = t[k];
  if (!l_nonempty_.empty()) {
    const int* const lr_ptr = l_row_ptr_.data();
    const int* const lr_cols = l_row_cols_.data();
    const int* const l_ptr = l_col_ptr_.data();
    const int* const l_rows = l_rows_.data();
    const double* const l_vals = l_vals_.data();
    bool any_l = false;
    for (std::size_t i = 0; i < reach.size(); ++i) {
      const int k = reach[i];
      any_l = any_l || l_ptr[k] < l_ptr[k + 1];
      for (int q = lr_ptr[k]; q < lr_ptr[k + 1]; ++q) {
        const int k2 = lr_cols[q];
        if (!mark[k2]) {
          mark[k2] = 1;
          reach.push_back(k2);
        }
      }
    }
    if (any_l)
      scan_down(mark, n_unit_, m_, [&](int k) {
        if (l_ptr[k] == l_ptr[k + 1]) return;
        double acc = t[k];
        for (int q = l_ptr[k]; q < l_ptr[k + 1]; ++q) acc -= l_vals[q] * ys[l_rows[q]];
        ys[pivot_row[k]] = acc;
      });
  }
  for (const int k : reach) {
    mark[k] = 0;
    t[k] = 0.0;
  }
  for (const int k : reach) mark[pivot_row[k]] = 1;
  finish(ys, nonzeros);
}

void BasisLu::finish(double* v, std::vector<int>& nonzeros) {
  char* const mark = mark_.data();
  nonzeros.clear();
  scan_up(mark, 0, m_, [&](int i) {
    mark[i] = 0;
    if (v[i] != 0.0)
      nonzeros.push_back(i);
    else
      v[i] = 0.0;  // +0
  });
}

bool BasisLu::update(int leaving_pos, const std::vector<double>& alpha,
                     std::span<const int> nonzeros, double pivot_tolerance) {
  const double pivot = alpha[static_cast<std::size_t>(leaving_pos)];
  if (std::abs(pivot) < pivot_tolerance) return false;
  if (eta_pivot_pos_.size() < kMaskedEtas) {
    const std::uint64_t bit = std::uint64_t{1} << eta_pivot_pos_.size();
    eta_mask_[static_cast<std::size_t>(leaving_pos)] |= bit;
    for (const int i : nonzeros) eta_mask_[static_cast<std::size_t>(i)] |= bit;
  }
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
