// Density measurement of factor matrices — drives the dynamic decision of
// when to mirror a factor into a compressed format (paper §V.E: "a factor
// can be gainfully treated as sparse when its density falls below 20%").
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/types.hpp"

namespace aoadmm {

struct DensityStats {
  offset_t nnz = 0;
  /// nnz / (rows*cols).
  real_t density = 0;
  /// Non-zeros per column — the hybrid format sorts on this.
  std::vector<offset_t> column_nnz;
  /// Number of columns whose nnz exceeds the mean column nnz (the paper's
  /// definition of a "dense" column).
  std::size_t dense_columns = 0;
};

/// One serial, branchless pass over the matrix. Entries with |v| <= tol,
/// and NaN entries, count as zero.
DensityStats measure_density(const Matrix& a, real_t tol = 0);

}  // namespace aoadmm
