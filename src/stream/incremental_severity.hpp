// Dirty-edge severity maintenance — the streaming engine's O(n^3) ->
// O(dirty * n^2) reduction.
//
// sev(x, y) depends on d(x, y) and on the witness legs d(x, w), d(w, y).
// The entry d(a, b) therefore appears in sev(x, y) iff a or b is an
// endpoint of (x, y): as the edge's own delay when {x, y} == {a, b}, or as
// a witness leg through w == b (resp. w == a) when x or y equals a (resp.
// b). An epoch that perturbed the host set H thus invalidates exactly the
// edges incident to H — |H|(n - 1) - |H|(|H| - 1)/2 distinct pairs — and
// every other severity is untouched.
//
// An epoch repacks the dirty hosts' rows of the packed view in place
// (DelayMatrixView::repack_row, byte-identical to a fresh build), then the
// band-pair driver's dirty-pair selection recomputes the invalidated edges
// straight into the SeverityMatrix: the same source, kernel and finish as
// all_severities, so the matrix is *bit-identical* to a full rebuild after
// every epoch (tests/test_stream_engine.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "core/severity.hpp"
#include "stream/delay_stream.hpp"

namespace tiv::stream {

using core::SeverityMatrix;
using delayspace::DelayMatrixView;

class IncrementalSeverity {
 public:
  /// Accounting for one apply_epoch call.
  struct ApplyStats {
    std::size_t rows_repacked = 0;
    std::size_t edges_recomputed = 0;  ///< 0 for a clean epoch
  };

  /// Packs the view and computes the full severity matrix once — the only
  /// O(n^3) step; every epoch after is proportional to the churn.
  explicit IncrementalSeverity(const DelayMatrix& matrix);

  /// Current severities, synchronized to the last applied epoch.
  const SeverityMatrix& severities() const { return severities_; }
  /// The packed view of the last applied epoch's matrix.
  const DelayMatrixView& view() const { return view_; }

  /// Repairs view and severities after an epoch that dirtied
  /// `dirty_hosts` (sorted, distinct — what DelayStream::commit_epoch
  /// returns). `matrix` must be the stream's mutated matrix; a matrix of
  /// another size or a host id out of range throws std::invalid_argument.
  ApplyStats apply_epoch(const DelayMatrix& matrix,
                         std::span<const HostId> dirty_hosts);

  /// Convenience: commit the stream's pending epoch and apply it.
  ApplyStats apply_epoch(DelayStream& stream) {
    const Epoch epoch = stream.commit_epoch();
    return apply_epoch(stream.matrix(), epoch.dirty_hosts);
  }

 private:
  DelayMatrixView view_;
  SeverityMatrix severities_;
};

}  // namespace tiv::stream
