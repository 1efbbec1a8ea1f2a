#include "stream/incremental_severity.hpp"

#include <stdexcept>

#include "core/band_pair_driver.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::stream {

IncrementalSeverity::IncrementalSeverity(const DelayMatrix& matrix)
    : view_(matrix),
      severities_(core::TivAnalyzer(matrix).all_severities(&view_)) {}

IncrementalSeverity::ApplyStats IncrementalSeverity::apply_epoch(
    const DelayMatrix& matrix, std::span<const HostId> dirty_hosts) {
  if (matrix.size() != view_.size()) {
    throw std::invalid_argument(
        "IncrementalSeverity::apply_epoch: matrix size changed");
  }
  ApplyStats stats;
  if (dirty_hosts.empty()) return stats;
  const core::ViewSource src(view_);
  const core::DirtyPairs dirty(matrix.size(), src.band_dim(), dirty_hosts);
  obs::Span span("view-repair");
  // Row repacks are independent; large epochs spread over the pool.
  parallel_for(dirty_hosts.size(), [&](std::size_t k) {
    view_.repack_row(matrix, dirty_hosts[k]);
  });
  stats.rows_repacked = dirty_hosts.size();
  // Unmeasured dirty pairs are selected too: an edge that went missing this
  // epoch gets the 0 a rebuild leaves there.
  stats.edges_recomputed = core::run_band_pairs<core::RatioKernel>(
      src, dirty, core::MatrixFinish(severities_));
  return stats;
}

}  // namespace tiv::stream
