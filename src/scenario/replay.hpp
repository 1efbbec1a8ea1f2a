// Trace replay — drives a DelayTrace through the live pipeline, epoch by
// epoch, maintaining the ground truth alongside and verifying that the
// incremental path stays bit-identical to direct ingestion at EVERY epoch.
//
// Per epoch the driver:
//   1. applies the truth stream to its ground-truth matrix and computes
//      the truth severities (all_severities on the instantaneous matrix —
//      the trace's definition of "truly TIV-violating");
//   2. ingests the sample stream into a DelayStream and commits the epoch
//      into either IncrementalSeverity (in-memory) or ShardStreamEngine
//      (out-of-core, optionally under FaultInjector rot);
//   3. recomputes severities of the monitor matrix from scratch and
//      bit-compares against the incrementally maintained ones — the
//      bench/CI-gated bit_mismatches == 0 contract;
//   4. hands both (truth, monitor) pairs to the caller — typically a
//      QualityScorer (score.hpp).
//
// Progress is published as scenario.* registry metrics and scenario-*
// spans so profiles attribute replay cost per phase.
#pragma once

#include <cstdint>
#include <functional>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "scenario/trace.hpp"
#include "stream/shard_stream.hpp"

namespace tiv::shard {
class FaultInjector;
}

namespace tiv::scenario {

using core::SeverityMatrix;

struct ReplayConfig {
  /// Smoothing the monitor applies to the trace's noisy samples. Default
  /// mirrors the live monitor example: EWMA with alpha 0.3.
  stream::EstimatorParams estimator{
      .policy = stream::SmoothingPolicy::kEwma, .ewma_alpha = 0.3f};

  enum class Engine {
    kInMemory,  ///< DelayStream -> IncrementalSeverity
    kShard,     ///< DelayStream -> ShardStreamEngine (out-of-core)
  };
  Engine engine = Engine::kInMemory;

  /// Tile/budget/path configuration for Engine::kShard.
  stream::ShardStreamConfig shard;
};

class ReplayDriver {
 public:
  /// Everything the caller can observe about one replayed epoch. The
  /// references are valid only during the callback.
  struct EpochView {
    std::uint64_t epoch = 0;
    const DelayMatrix& truth;
    const SeverityMatrix& truth_severities;
    const DelayMatrix& monitor;             ///< DelayStream's mutated matrix
    const SeverityMatrix& monitor_severities;  ///< incrementally maintained
    std::size_t bit_mismatches = 0;         ///< this epoch (0 when verified)
    const stream::Epoch& committed;         ///< dirty hosts + ingest stats
  };
  using EpochCallback = std::function<void(const EpochView&)>;

  struct Result {
    std::size_t epochs = 0;
    std::size_t samples = 0;          ///< trace samples ingested
    std::size_t bit_mismatches = 0;   ///< summed over all epochs
    std::size_t edges_recomputed = 0; ///< incremental repair work
    /// Engine::kShard only: the engine's cumulative self-healing counters
    /// at the end of the run (all zero for kInMemory).
    stream::ShardStreamEngine::RecoveryStats recovery;
  };

  /// Validates trace.hosts == base.size() (throws std::invalid_argument).
  /// `base` and `trace` must outlive the driver.
  ReplayDriver(const DelayMatrix& base, const DelayTrace& trace,
               ReplayConfig config = {});

  /// Engine::kShard only: attach deterministic rot to the stores of the
  /// NEXT run() (nullptr detaches). Injectors must outlive the run.
  void set_fault_injectors(shard::FaultInjector* input,
                           shard::FaultInjector* sink);

  /// Replays the whole trace. Reentrant: each call builds a fresh monitor
  /// from the base matrix and replays from epoch 0.
  Result run(const EpochCallback& on_epoch = {});

 private:
  const DelayMatrix& base_;
  const DelayTrace& trace_;
  ReplayConfig config_;
  shard::FaultInjector* input_fault_ = nullptr;
  shard::FaultInjector* sink_fault_ = nullptr;
};

}  // namespace tiv::scenario
