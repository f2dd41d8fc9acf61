// Compressed sparse column matrix used by the LP solver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace titan::lp {

// CSC matrix. Built from triplets (duplicate entries are summed, zero
// sums dropped), then only ever extended by whole single-entry columns.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(int rows, int cols) : rows_(rows), cols_(cols), col_ptr_(cols + 1, 0) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return row_idx_.size(); }

  [[nodiscard]] int col_begin(int j) const { return col_ptr_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] int col_end(int j) const { return col_ptr_[static_cast<std::size_t>(j) + 1]; }
  [[nodiscard]] int row_index(int k) const { return row_idx_[static_cast<std::size_t>(k)]; }
  [[nodiscard]] double value(int k) const { return values_[static_cast<std::size_t>(k)]; }

  // y += alpha * A(:, j), dense y.
  void axpy_column(int j, double alpha, std::vector<double>& y) const {
    for (int k = col_begin(j); k < col_end(j); ++k)
      y[static_cast<std::size_t>(row_index(k))] += alpha * value(k);
  }

  // dot(A(:, j), y).
  [[nodiscard]] double dot_column(int j, const std::vector<double>& y) const {
    double acc = 0.0;
    for (int k = col_begin(j); k < col_end(j); ++k)
      acc += value(k) * y[static_cast<std::size_t>(row_index(k))];
    return acc;
  }

  // Appends a column whose one entry is (row, value), value != 0: the
  // simplex tableau's slack and artificial columns.
  void append_column(int row, double value) {
    row_idx_.push_back(row);
    values_.push_back(value);
    col_ptr_.push_back(static_cast<int>(row_idx_.size()));
    ++cols_;
  }

  // Reserves room for `count` more single-entry columns.
  void reserve_columns(int count) {
    const auto extra = static_cast<std::size_t>(count);
    row_idx_.reserve(row_idx_.size() + extra);
    values_.reserve(values_.size() + extra);
    col_ptr_.reserve(col_ptr_.size() + extra);
  }

  // The transpose, as a CSC: column i of the result is row i of this
  // matrix, its entries in ascending column order. The dual simplex reads
  // rows through it.
  [[nodiscard]] SparseMatrix transpose() const;

  struct Triplet {
    int row;
    int col;
    double value;
  };
  static SparseMatrix from_triplets(int rows, int cols, const std::vector<Triplet>& triplets);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> col_ptr_;
  std::vector<int> row_idx_;
  std::vector<double> values_;
};

inline SparseMatrix SparseMatrix::from_triplets(int rows, int cols,
                                                const std::vector<Triplet>& triplets) {
  SparseMatrix m(rows, cols);
  // Count, prefix-sum, scatter; then compact duplicates per column.
  std::vector<int> count(static_cast<std::size_t>(cols), 0);
  for (const auto& t : triplets) ++count[static_cast<std::size_t>(t.col)];
  m.col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
  for (int j = 0; j < cols; ++j)
    m.col_ptr_[static_cast<std::size_t>(j) + 1] =
        m.col_ptr_[static_cast<std::size_t>(j)] + count[static_cast<std::size_t>(j)];
  m.row_idx_.resize(triplets.size());
  m.values_.resize(triplets.size());
  // Done after the scatter when every column comes out strictly ascending
  // in row with no zero value, as when the rows were added in order with
  // distinct entries.
  bool canonical = true;
  std::vector<int> cursor(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  for (const auto& t : triplets) {
    const int pos = cursor[static_cast<std::size_t>(t.col)]++;
    canonical = canonical && t.value != 0.0 &&
                (pos == m.col_ptr_[static_cast<std::size_t>(t.col)] ||
                 m.row_idx_[static_cast<std::size_t>(pos) - 1] < t.row);
    m.row_idx_[static_cast<std::size_t>(pos)] = t.row;
    m.values_[static_cast<std::size_t>(pos)] = t.value;
  }
  if (canonical) return m;
  // Otherwise merge duplicates within each column (sort by row, then sum
  // runs).
  std::vector<int> new_ptr(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<int> out_rows;
  std::vector<double> out_vals;
  out_rows.reserve(m.row_idx_.size());
  out_vals.reserve(m.values_.size());
  std::vector<std::pair<int, double>> entries;  // one column's, reused
  for (int j = 0; j < cols; ++j) {
    const int b = m.col_ptr_[static_cast<std::size_t>(j)];
    const int e = m.col_ptr_[static_cast<std::size_t>(j) + 1];
    entries.clear();
    for (int k = b; k < e; ++k)
      entries.emplace_back(m.row_idx_[static_cast<std::size_t>(k)],
                           m.values_[static_cast<std::size_t>(k)]);
    std::sort(entries.begin(), entries.end());
    for (std::size_t k = 0; k < entries.size();) {
      int row = entries[k].first;
      double sum = 0.0;
      while (k < entries.size() && entries[k].first == row) sum += entries[k++].second;
      if (sum != 0.0) {
        out_rows.push_back(row);
        out_vals.push_back(sum);
      }
    }
    new_ptr[static_cast<std::size_t>(j) + 1] = static_cast<int>(out_rows.size());
  }
  m.col_ptr_ = std::move(new_ptr);
  m.row_idx_ = std::move(out_rows);
  m.values_ = std::move(out_vals);
  return m;
}

inline SparseMatrix SparseMatrix::transpose() const {
  // Count per row, prefix-sum, then scatter column by column, which leaves
  // each row's entries in ascending column order.
  SparseMatrix t(cols_, rows_);
  for (const int i : row_idx_) ++t.col_ptr_[static_cast<std::size_t>(i) + 1];
  for (int i = 0; i < rows_; ++i)
    t.col_ptr_[static_cast<std::size_t>(i) + 1] += t.col_ptr_[static_cast<std::size_t>(i)];
  t.row_idx_.resize(row_idx_.size());
  t.values_.resize(values_.size());
  std::vector<int> cursor(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (int j = 0; j < cols_; ++j)
    for (int k = col_begin(j); k < col_end(j); ++k) {
      const int pos = cursor[static_cast<std::size_t>(row_index(k))]++;
      t.row_idx_[static_cast<std::size_t>(pos)] = j;
      t.values_[static_cast<std::size_t>(pos)] = value(k);
    }
  return t;
}

}  // namespace titan::lp
