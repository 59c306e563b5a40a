// Dense matrices over GF(2^8) with the operations erasure coding needs:
// multiply, Gaussian-elimination inverse, and submatrix extraction.
#pragma once

#include "codec/gf256.hpp"

#include <cstddef>
#include <optional>
#include <vector>

namespace ares::codec {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] GF256::Elem at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  GF256::Elem& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  /// Row r as cols() contiguous elements.
  [[nodiscard]] const GF256::Elem* row(std::size_t r) const {
    return &data_[r * cols_];
  }
  GF256::Elem* row(std::size_t r) { return &data_[r * cols_]; }

  [[nodiscard]] static Matrix identity(std::size_t n);

  /// this * rhs. Requires cols() == rhs.rows().
  [[nodiscard]] Matrix mul(const Matrix& rhs) const;

  /// Inverse by Gauss-Jordan elimination; nullopt if singular.
  /// Requires square.
  [[nodiscard]] std::optional<Matrix> inverse() const;

  /// The submatrix consisting of the given rows (in the given order).
  [[nodiscard]] Matrix select_rows(const std::vector<std::size_t>& rows) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<GF256::Elem> data_;
};

/// An n x k matrix every k rows of which are linearly independent
/// (extended-Cauchy construction), with the first k rows equal to I_k so the
/// code is systematic. Requires n + k <= 257 ... in practice n <= 255.
[[nodiscard]] Matrix systematic_mds_matrix(std::size_t n, std::size_t k);

}  // namespace ares::codec
