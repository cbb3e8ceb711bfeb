#include "obs/snapshot.hpp"

#include <ostream>

#include "obs/json_util.hpp"

namespace aoadmm::obs {

void MetricsSnapshot::write_json(std::ostream& out) const {
  using detail::json_number;
  const auto num = [&out](const char* key, double v, bool comma = true) {
    out << '"' << key << "\": ";
    json_number(out, v);
    if (comma) {
      out << ", ";
    }
  };
  out << "{\"outer_iteration\": " << outer_iteration << ", ";
  num("seconds", seconds);
  num("iteration_seconds", iteration_seconds);
  num("relative_error", static_cast<double>(relative_error));
  out << "\"mode_mttkrp_seconds\": [";
  for (std::size_t m = 0; m < mode_mttkrp_seconds.size(); ++m) {
    if (m > 0) {
      out << ", ";
    }
    json_number(out, mode_mttkrp_seconds[m]);
  }
  out << "], ";
  num("admm_seconds", admm_seconds);
  out << "\"admm_inner_iterations\": " << admm_inner_iterations << ", ";
  num("worst_primal_residual", static_cast<double>(worst_primal_residual));
  num("mean_primal_residual", static_cast<double>(mean_primal_residual));
  num("worst_dual_residual", static_cast<double>(worst_dual_residual));
  num("mean_dual_residual", static_cast<double>(mean_dual_residual));
  num("thread_imbalance", thread_imbalance);
  num("mttkrp_imbalance", mttkrp_imbalance);
  num("mttkrp_max_busy_seconds", mttkrp_max_busy_seconds);
  num("mttkrp_mean_busy_seconds", mttkrp_mean_busy_seconds);
  out << "\"factor_density\": [";
  for (std::size_t m = 0; m < factor_density.size(); ++m) {
    if (m > 0) {
      out << ", ";
    }
    json_number(out, static_cast<double>(factor_density[m]));
  }
  out << "], \"mttkrp_count\": " << mttkrp_count
      << ", \"sparse_mttkrp_count\": " << sparse_mttkrp_count << ", ";
  num("shard_imbalance", shard_imbalance);
  out << "\"exchange_bytes\": " << exchange_bytes << "}";
}

}  // namespace aoadmm::obs
