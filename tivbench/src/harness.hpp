// Measurement harness shared by the tivbench workloads: clocks, layer
// timers that also record effective cores, percentiles, the pool warm-up,
// span self times, environment probes and the result record.
//
// Layers are timed from outside: a workload wraps each call into a
// module's public function in a LayerClock, and reads the obs registry
// and the span tracer the library already has. Nothing here reaches into
// the library's internals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tivbench {

/// Steady-clock seconds since an arbitrary origin.
double wall_s();
/// CPU seconds used by the whole process (all threads).
double process_cpu_s();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);
/// `v` with every element multiplied by `factor` (unit conversion).
std::vector<double> scaled(std::vector<double> v, double factor);

/// Wall and CPU time of every call made through one layer. Effective
/// cores is process CPU time over wall time across the calls.
class LayerClock {
 public:
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    Stamp s = start();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      stop(s);
    } else {
      decltype(auto) out = fn();
      stop(s);
      return out;
    }
  }

  const std::vector<double>& wall() const { return wall_; }
  /// Seconds of the most recent call.
  double last_s() const { return wall_.empty() ? 0.0 : wall_.back(); }
  double median_s() const { return median(wall_); }
  /// CPU seconds of the most recent call over its wall seconds.
  double last_effective_cores() const { return last_cores_; }
  double effective_cores() const {
    return wall_total_ > 0.0 ? cpu_total_ / wall_total_ : 0.0;
  }
  /// Lowest per-call effective cores seen.
  double min_effective_cores() const;
  /// Forgets the most recent call (a rejected measurement).
  void drop_last();

 private:
  struct Stamp {
    double wall;
    double cpu;
  };
  static Stamp start() { return {wall_s(), process_cpu_s()}; }
  void stop(const Stamp& s);

  std::vector<double> wall_;
  std::vector<double> cpu_;
  double wall_total_ = 0.0;
  double cpu_total_ = 0.0;
  double last_cores_ = 0.0;
};

/// Keeps every pool thread spinning until aggregate throughput is steady
/// and at least `min_s` seconds have passed (new processes on the
/// reference VM get about one core in total for their first ~1.1 s).
struct WarmUp {
  double seconds = 0.0;
  double first_rate = 0.0;  ///< spin iterations per second, first slice
  double last_rate = 0.0;   ///< and last slice, all threads together
  bool steady = false;      ///< false if max_s ran out first
};
WarmUp warm_up(double min_s = 1.5, double max_s = 8.0);

/// Total self time (span duration minus its direct children on the same
/// thread) and call count per span name over `events`.
struct SpanSelf {
  double self_ns = 0.0;
  std::uint64_t count = 0;
};
std::map<std::string, SpanSelf> span_self_times(
    std::vector<tiv::obs::TraceEvent> events);

/// Host-wide CPU tick counters from /proc/stat, to report how much of a
/// run's wall time the hypervisor stole from this VM.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();

/// Round and lookup timings of one run. Each iteration (a round plus its
/// lookups) is tagged with the share of the VM's CPU time the hypervisor
/// stole while it ran; iterations that lost more than a tenth are not
/// averaged in, like passes that ran on too few cores. When fewer than a
/// tenth of the iterations are clean (a host busy for the whole run), all
/// of them count and filtered() says so.
class RoundLog {
 public:
  /// Call right before a round starts.
  void begin();
  /// Call right after the round's lookups: the round's latency and the
  /// lookup batches' times, in seconds.
  void end(double round_s, const std::vector<double>& lookups_s, bool traced);

  /// Round seconds of the iterations that count, traced or not.
  std::vector<double> rounds(bool traced) const;
  /// Lookup batch seconds of the iterations that count.
  std::vector<double> lookups() const;
  std::size_t iterations() const { return iters_.size(); }
  std::size_t stolen() const;
  bool filtered() const { return 10 * (iters_.size() - stolen()) >= iters_.size(); }

 private:
  struct Iteration {
    double round_s = 0.0;
    std::vector<double> lookups_s;
    bool traced = false;
    bool stolen = false;
  };

  std::vector<Iteration> iters_;
  CpuTicks ticks_;
  double start_s_ = 0.0;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// {"n":..,"p50":..,"p90":..,"p95":..,"p99":..,"max":..} of a sample.
std::string distribution_json(const std::vector<double>& v);

/// Threads this process may run on (sched_getaffinity), at least 1.
unsigned nproc();

/// One measured metric: a value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Key/value pairs for the environment record; values are JSON literals.
using EnvRecord = std::map<std::string, std::string>;
std::string json_string(const std::string& s);
std::string json_number(double v);

/// CPU model, ISA extensions, filesystem under `dir` and other host facts.
EnvRecord host_environment(const std::string& dir);

/// {"calls","median_s","effective_cores","min_effective_cores"} of a layer.
std::string layer_json(const LayerClock& clock);

/// What a workload reports: counts for error_rate, and the metrics.
struct Outcome {
  bool correct = true;        ///< false if a self-check failed to trip
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  EnvRecord params;           ///< workload parameters, for the record
  EnvRecord layers;           ///< layer_json() of every timed layer
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;  ///< scratch inside the checkout (tile files)
};

/// obs.{setup,round}_trace_overhead: traced over untraced median, minus 1,
/// from the alternating set-ups and rounds of a traced run.
void add_trace_overhead(Metrics& per_layer,
                        const std::vector<double>& setup_plain,
                        const std::vector<double>& setup_traced,
                        const std::vector<double>& round_plain,
                        const std::vector<double>& round_traced);

/// A counter's value in `snap` (0 if never registered).
std::uint64_t counter_of(const tiv::obs::MetricsSnapshot& snap,
                         const std::string& name);

}  // namespace tivbench
