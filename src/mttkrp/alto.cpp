#include "mttkrp/alto.hpp"

#include <algorithm>

#include "mttkrp/isa.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

namespace aoadmm {

void mttkrp_alto(const AltoTensor& alto, cspan<const Matrix> factors,
                 std::size_t target_mode, Matrix& out,
                 MttkrpSchedule schedule) {
  AOADMM_MTTKRP_OBS("alto");
  const std::size_t order = alto.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(factors.size() == order);
  AOADMM_CHECK(target_mode < order);
  const std::size_t f = factors[target_mode].cols();
  for (std::size_t m = 0; m < order; ++m) {
    AOADMM_CHECK(factors[m].cols() == f);
    AOADMM_CHECK(factors[m].rows() == alto.dims()[m]);
  }

  const index_t out_rows = alto.dims()[target_mode];
  if (out.rows() != out_rows || out.cols() != f) {
    out.resize(out_rows, f);
  } else {
    out.zero();
  }

  const int planned = std::max(max_threads(), 1);
  const MttkrpSchedule sched =
      detail::resolve_nonroot_schedule(schedule, out_rows, f, planned);
  detail::active_mttkrp_kernels().alto(alto, factors, target_mode, out,
                                       sched, planned);
}

}  // namespace aoadmm
