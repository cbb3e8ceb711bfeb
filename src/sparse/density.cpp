#include "sparse/density.hpp"

#include <cmath>

namespace aoadmm {

DensityStats measure_density(const Matrix& a, real_t tol) {
  DensityStats stats;
  const std::size_t cols = a.cols();
  stats.column_nnz.assign(cols, 0);
  // Branchless counts through a local pointer, so the compiler keeps them
  // out of the vector's bookkeeping and vectorizes the compare. NaN
  // compares false, so it counts as zero.
  offset_t* __restrict counts = stats.column_nnz.data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const real_t* __restrict row = a.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      counts[j] += static_cast<offset_t>(std::abs(row[j]) > tol);
    }
  }
  for (const offset_t c : stats.column_nnz) {
    stats.nnz += c;
  }
  const std::size_t total = a.rows() * a.cols();
  stats.density = total == 0 ? real_t{0}
                             : static_cast<real_t>(stats.nnz) /
                                   static_cast<real_t>(total);
  if (a.cols() > 0) {
    const real_t mean_col =
        static_cast<real_t>(stats.nnz) / static_cast<real_t>(a.cols());
    for (const offset_t c : stats.column_nnz) {
      if (static_cast<real_t>(c) > mean_col) {
        ++stats.dense_columns;
      }
    }
  }
  return stats;
}

}  // namespace aoadmm
