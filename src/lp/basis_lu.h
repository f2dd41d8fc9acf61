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
//
// The simplex's two per-pivot solves, FTRAN of a column a_q and BTRAN of
// a unit vector e_r, have hypersparse overloads that take the input's
// nonzero list and touch only the reach of those nonzeros: the positions
// the triangular passes can fill, found through the stored columns of L
// and U (FTRAN) or through row-wise indexes of them built at factorize
// (BTRAN). The reach is closed breadth-first over byte marks, and ordered
// by scanning the marks of the structural positions a word at a time,
// which measured cheaper than sorting it. A reach that grows past m/20
// positions is abandoned for the dense passes. They return the dense
// solves' values bit for bit, by three more rules:
//  * FTRAN's L and U passes are scatters, whose sums depend on the order
//    of the columns, so the reach is visited in the dense passes' order:
//    ascending pivot order for L, descending for U (the unit block, which
//    scatters nothing, last);
//  * BTRAN's U^T and L^T passes compute each output as one full dot
//    product over its stored column, so any topological order of the
//    reach gives the same bits (ascending for U^T, descending for L^T);
//  * the eta file is applied in its order, skipping only etas that read
//    nothing but zeros. Each basis position keeps a 64-bit mask of the
//    etas that pivot on it or hold an entry there (update sets the bit,
//    factorize clears the masks); BTRAN applies, newest first, the etas
//    in the masks of its nonzero positions, adding an older eta's bit
//    when a position it touches turns nonzero. A skipped eta could only
//    write a zero over a zero. The file never holds more than 64 etas
//    (kRefactorInterval), so one mask covers it. Outside the reach the dense
//    solve leaves +-0 and the sparse one +0; no reader depends on the
//    sign of a zero (the ratio tests, the nonzero lists and the eta file
//    skip zeros, and extraction clamps with max(0, .)).
#pragma once

#include <cstdint>
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

  // Hypersparse ftran/btran. `x` / `y` enter holding the right-hand side,
  // zero everywhere except at the indices `nonzeros` lists (rows for
  // ftran, basis positions for btran; distinct, any order). Both exit
  // holding the dense solve's nonzero values bit for bit, +0 everywhere
  // else, with `nonzeros` listing exactly the indices of the nonzero
  // entries in ascending order.
  void ftran(std::vector<double>& x, std::vector<int>& nonzeros);
  void btran(std::vector<double>& y, std::vector<int>& nonzeros);

  // Registers a basis change: position `leaving_pos` is replaced by a column
  // whose FTRAN image (before this update) is `alpha`, and `nonzeros` lists
  // exactly the positions i with alpha[i] != 0, in ascending order.
  // Returns false when the pivot element alpha[leaving_pos] is too small
  // (caller should refactorize instead). Requires eta_count() below
  // kRefactorInterval.
  bool update(int leaving_pos, const std::vector<double>& alpha, std::span<const int> nonzeros,
              double pivot_tolerance = 1e-9);

  // Eta updates between refactorizations: the caller refactorizes once
  // eta_count() reaches it. Each eta owns one bit of a position's 64-bit
  // mask (eta_mask_), which is what bounds it.
  static constexpr int kRefactorInterval = 64;
  [[nodiscard]] int eta_count() const { return static_cast<int>(eta_pivot_pos_.size()); }
  [[nodiscard]] int dimension() const { return m_; }

 private:
  // The dense solves' second halves, shared with the sparse solves' dense
  // fallback. ftran_upper takes pivot-coordinate values in y, writes the
  // U solve and the eta file into basis positions of xs, and leaves y all
  // zero; btran_lower takes eta-transformed values by basis position in
  // ys and writes the U^T and L^T solves into rows of ys, using t.
  void ftran_upper(double* xs, double* y);
  void btran_lower(double* ys, double* t);
  // Ends a sparse solve. On entry mark_ is set at exactly the indices the
  // solve may have written; on exit `nonzeros` lists the nonzero ones in
  // ascending order (by a scan of the marks), the zeros among them are +0
  // and the marks are clear.
  void finish(double* v, std::vector<int>& nonzeros);

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
  // col_order_[k] is the basis position factored at step k, and
  // col_pos_ its inverse.
  std::vector<int> col_order_;
  std::vector<int> col_pos_;
  // Row-wise pattern indexes for the sparse btran: u_row_cols_ lists, for
  // each pivot position i in [u_row_ptr_[i], u_row_ptr_[i + 1]), the U
  // columns holding an entry in row i; l_row_cols_ lists, for each pivot
  // position k, the L columns holding an entry in row pivot_row_of_[k].
  std::vector<int> u_row_ptr_;
  std::vector<int> u_row_cols_;
  std::vector<int> l_row_ptr_;
  std::vector<int> l_row_cols_;
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
  // Per basis position, bit e set when eta e pivots on it or holds an
  // entry there: update sets the bits, factorize clears them.
  std::vector<std::uint64_t> eta_mask_;
  // Pivot-coordinate workspace of the dense solves (length m).
  std::vector<double> scratch_;
  // Workspaces of factorize and the sparse solves, all of length m or
  // sized on demand. work_ and mark_ are all zero between calls.
  std::vector<double> work_;
  std::vector<char> mark_;
  std::vector<int> reach_;
  std::vector<int> stack_;
  std::vector<int> stack_cursor_;
  std::vector<int> topo_;
  std::vector<int> count_;
};

}  // namespace titan::lp
