#include "codec/matrix.hpp"

#include <algorithm>
#include <cassert>

namespace ares::codec {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::mul(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      GF256::mul_add_row(at(r, c), rhs.row(c), out.row(r), rhs.cols_);
    }
  }
  return out;
}

std::optional<Matrix> Matrix::inverse() const {
  assert(rows_ == cols_);
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;  // singular
    std::swap_ranges(a.row(pivot), a.row(pivot) + n, a.row(col));
    std::swap_ranges(inv.row(pivot), inv.row(pivot) + n, inv.row(col));
    // Normalize the pivot row, then eliminate column `col` everywhere else.
    const GF256::Elem pinv = GF256::inv(a.at(col, col));
    for (std::size_t j = 0; j < n; ++j) {
      a.at(col, j) = GF256::mul(a.at(col, j), pinv);
      inv.at(col, j) = GF256::mul(inv.at(col, j), pinv);
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const GF256::Elem f = a.at(r, col);
      GF256::mul_add_row(f, a.row(col), a.row(r), n);
      GF256::mul_add_row(f, inv.row(col), inv.row(r), n);
    }
  }
  return inv;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] < rows_);
    for (std::size_t j = 0; j < cols_; ++j) out.at(i, j) = at(rows[i], j);
  }
  return out;
}

Matrix systematic_mds_matrix(std::size_t n, std::size_t k) {
  assert(k >= 1 && k <= n && n <= 255);
  // Vandermonde rows over distinct points 0..n-1: any k rows are linearly
  // independent. Post-multiplying by the inverse of the top k x k block
  // keeps that property (product with an invertible matrix) and makes the
  // first k rows the identity, i.e. a systematic MDS generator.
  Matrix v(n, k);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      v.at(r, c) = GF256::pow(static_cast<GF256::Elem>(r), c);
    }
  }
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  auto top_inv = v.select_rows(top).inverse();
  assert(top_inv.has_value());
  return v.mul(*top_inv);
}

}  // namespace ares::codec
