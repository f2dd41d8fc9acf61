// Sparse LU factorization of the simplex basis, with product-form updates.
//
// The revised simplex keeps a factorization of the current basis matrix B
// (one column of the computational-form constraint matrix per row). Basis
// columns here are extremely sparse (slacks are unit vectors, structural
// columns have a handful of entries), so we use a Gilbert-Peierls
// left-looking sparse LU with partial pivoting. Between refactorizations
// the factorization is extended with product-form eta updates: replacing
// the basis column at position r by a column whose FTRAN image is alpha
// appends an eta (r, alpha) and both solves apply it in O(nnz(alpha)).
//
// The etas live in one flat eta file (pivot positions and values, plus
// begin/pos/val arrays of the off-pivot entries) whose capacity survives
// refactorization, and both solves run in place through one member
// scratch vector, so ftran, btran and update allocate nothing once the
// first refactorization cycle has sized them. The solves skip what the
// factorization makes trivial: the leading unit block (the +-1 singleton
// columns, factored first, with empty L and U columns) is one gather or
// scatter pass, and only L columns that hold entries are visited.
//
// Every solve is bit for bit the plain sequence of operations it
// replaces, by three rules:
//  * summation order: each triangular and eta pass accumulates its terms
//    in the order of the stored entries; permutations are fused in or
//    split out, and empty columns skipped, without reordering any sum;
//  * exact divides only are replaced: a quotient by a +-1 diagonal (the
//    unit block's) equals the product by it, signed zeros included; every
//    other diagonal and eta pivot is divided;
//  * ascending nonzero order: update takes alpha's nonzero positions in
//    ascending order, the order a dense scan would visit them in.
#pragma once

#include <span>
#include <vector>

#include "lp/sparse.h"

namespace titan::lp {

class BasisLu {
 public:
  // Structural-rank diagnosis of a failed factorization: the basis
  // positions whose columns found no pivot (each was in the span of the
  // columns factored before it) and the rows left unpivoted, both in
  // ascending order and of equal length. A warm-start caller repairs the
  // candidate basis by replacing each failed position with the unit
  // (slack/artificial) column of an unpivoted row, then refactorizes.
  struct Deficiency {
    std::vector<int> positions;
    std::vector<int> rows;
    [[nodiscard]] bool any() const { return !positions.empty(); }
  };

  // Factorizes B = A(:, basis). Returns false when numerically singular.
  // With `deficiency`, a singular basis does not abort: the maximal
  // independent column subset is factored, the failures are reported, and
  // the return is still false (the factorization itself is NOT usable for
  // solves in that case — refactorize after repairing).
  bool factorize(const SparseMatrix& a, const std::vector<int>& basis,
                 double pivot_tolerance = 1e-10, Deficiency* deficiency = nullptr);

  // Solves B * x = b. `x` enters holding b (dense, length m) and exits
  // holding the solution *in basis-position coordinates*: x[k] multiplies
  // basis column k.
  void ftran(std::vector<double>& x);

  // Solves B^T * y = c. `y` enters holding c indexed by basis position and
  // exits holding the row-space solution (length m, original row indices).
  void btran(std::vector<double>& y);

  // Registers a basis change: position `leaving_pos` is replaced by a column
  // whose FTRAN image (before this update) is `alpha`, and `nonzeros` lists
  // exactly the positions i with alpha[i] != 0, in ascending order.
  // Returns false when the pivot element alpha[leaving_pos] is too small
  // (caller should refactorize instead).
  bool update(int leaving_pos, const std::vector<double>& alpha, std::span<const int> nonzeros,
              double pivot_tolerance = 1e-9);

  [[nodiscard]] int eta_count() const { return static_cast<int>(eta_pivot_pos_.size()); }
  [[nodiscard]] int dimension() const { return m_; }

 private:
  int m_ = 0;
  // L: unit lower triangular in pivot order; entries stored with
  // *original row* indices (they acquire pivot positions later). Column k
  // holds only rows pivoted after step k.
  std::vector<int> l_col_ptr_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  // U: strictly upper entries stored with *pivot position* row indices.
  std::vector<int> u_col_ptr_;
  std::vector<int> u_rows_;
  std::vector<double> u_vals_;
  std::vector<double> u_diag_;
  std::vector<int> pivot_row_of_;  // pivot position k -> original row
  std::vector<int> row_perm_;      // original row -> pivot position
  // Columns are factored in order of increasing nonzero count so the many
  // unit (slack/artificial) columns pivot first with zero fill-in;
  // col_order_[k] is the basis position factored at step k.
  std::vector<int> col_order_;
  // Positions [0, n_unit_) are the unit block: columns with one entry of
  // +-1, so empty L and U columns and a +-1 diagonal. Only the columns in
  // l_nonempty_ (ascending) hold L entries.
  int n_unit_ = 0;
  std::vector<int> l_nonempty_;
  // The eta file, oldest first: eta e pivots on basis position
  // eta_pivot_pos_[e] with value eta_pivot_val_[e] (alpha there), and its
  // off-pivot entries are (eta_pos_[q], eta_val_[q]) for q in
  // [eta_begin_[e], eta_begin_[e + 1]), ascending in position.
  std::vector<int> eta_pivot_pos_;
  std::vector<double> eta_pivot_val_;
  std::vector<int> eta_begin_;
  std::vector<int> eta_pos_;
  std::vector<double> eta_val_;
  // Pivot-coordinate workspace of the solves (length m).
  std::vector<double> scratch_;
};

}  // namespace titan::lp
