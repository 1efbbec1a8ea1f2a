#include "scenario/replay.hpp"

#include <bit>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/incremental_severity.hpp"

namespace tiv::scenario {
namespace {

obs::Counter& epochs_replayed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.epochs_replayed");
  return c;
}
obs::Counter& samples_replayed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.samples_replayed");
  return c;
}
obs::Counter& bit_mismatch_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.bit_mismatches");
  return c;
}

/// Float equality at the bit level — the same comparison the shard-stream
/// bench gates on: NaNs compare by payload and -0.0f != 0.0f, so "equal"
/// here means indistinguishable bytes on disk.
bool bits_equal(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

std::size_t count_mismatches(const SeverityMatrix& got,
                             const SeverityMatrix& want) {
  std::size_t mismatches = 0;
  const HostId n = want.size();
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      mismatches += !bits_equal(got.at(a, b), want.at(a, b));
    }
  }
  return mismatches;
}

}  // namespace

ReplayDriver::ReplayDriver(const DelayMatrix& base, const DelayTrace& trace,
                           ReplayConfig config)
    : base_(base), trace_(trace), config_(std::move(config)) {
  if (trace.hosts != base.size()) {
    throw std::invalid_argument(
        "ReplayDriver: trace host count does not match base matrix");
  }
}

void ReplayDriver::set_fault_injectors(shard::FaultInjector* input,
                                       shard::FaultInjector* sink) {
  input_fault_ = input;
  sink_fault_ = sink;
}

ReplayDriver::Result ReplayDriver::run(const EpochCallback& on_epoch) {
  const HostId n = base_.size();
  Result result;

  DelayMatrix truth = base_;
  stream::DelayStream live(base_, config_.estimator);

  std::optional<stream::IncrementalSeverity> inc;
  std::optional<stream::ShardStreamEngine> engine;
  SeverityMatrix engine_readback;  // kShard: row-read buffer for the sink
  if (config_.engine == ReplayConfig::Engine::kShard) {
    engine.emplace(live.matrix(), config_.shard);
    engine->attach_source(&live.matrix());
    engine->set_input_fault_injector(input_fault_);
    engine->set_sink_fault_injector(sink_fault_);
    engine_readback = SeverityMatrix(n);
  } else {
    inc.emplace(live.matrix());
  }

  std::vector<float> row(n);
  for (const auto& epoch : trace_.epochs) {
    obs::Span span("scenario-epoch");

    SeverityMatrix truth_sev;
    {
      obs::Span truth_span("scenario-truth");
      apply_truth(epoch, truth);
      truth_sev = core::TivAnalyzer(truth).all_severities();
    }

    stream::Epoch committed;
    {
      obs::Span ingest_span("scenario-ingest");
      live.ingest(epoch.samples);
      committed = live.commit_epoch();
      if (engine) {
        result.edges_recomputed +=
            engine->apply_epoch(live.matrix(), committed.dirty_hosts)
                .edges_recomputed;
      } else {
        result.edges_recomputed +=
            inc->apply_epoch(live.matrix(), committed.dirty_hosts)
                .edges_recomputed;
      }
    }

    std::size_t mismatches = 0;
    if (engine) {
      for (HostId a = 0; a < n; ++a) {
        engine->severity_row(a, row);
        for (HostId b = 0; b < n; ++b) engine_readback.set(a, b, row[b]);
      }
    }
    const SeverityMatrix& monitor_sev = engine ? engine_readback
                                               : inc->severities();
    {  // every epoch: the from-scratch recompute must match bit for bit
      obs::Span verify_span("scenario-verify");
      const SeverityMatrix direct =
          core::TivAnalyzer(live.matrix()).all_severities();
      mismatches = count_mismatches(monitor_sev, direct);
    }

    ++result.epochs;
    result.samples += epoch.samples.size();
    result.bit_mismatches += mismatches;
    epochs_replayed_counter().increment();
    samples_replayed_counter().add(epoch.samples.size());
    bit_mismatch_counter().add(mismatches);

    if (on_epoch) {
      on_epoch(EpochView{.epoch = result.epochs - 1,
                         .truth = truth,
                         .truth_severities = truth_sev,
                         .monitor = live.matrix(),
                         .monitor_severities = monitor_sev,
                         .bit_mismatches = mismatches,
                         .committed = committed});
    }
  }

  if (engine) result.recovery = engine->recovery_stats();
  return result;
}

}  // namespace tiv::scenario
