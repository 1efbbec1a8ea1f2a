// Shared scaffolding for the figure-regeneration benches.
//
// Every figure bench accepts:
//   --hosts=N   host count for the main dataset (default: bench-specific
//               reduced scale; the TIV analysis is O(N^3))
//   --full      run at the paper's full dataset sizes instead
//   --seed=S    xor-ed into the generator seeds
//
// Every bench writes one output: a BenchReport JSON record stream on
// stdout, one flat record per line behind a {"section":"meta"} envelope.
// `python3 -m json.tool` or `jq` is the human view; tools/benchdiff diffs
// and gates it.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tiv::bench {

struct BenchConfig {
  std::uint32_t hosts = 0;  ///< 0 = dataset full size
  std::uint64_t seed = 0;
};

/// Parses the standard flags. default_hosts is the reduced scale used when
/// neither --hosts nor --full is given.
inline BenchConfig parse_config(const Flags& flags,
                                std::uint32_t default_hosts) {
  BenchConfig c;
  const bool full = flags.get_bool("full", false);
  c.hosts = flags.get_uint<std::uint32_t>("hosts", full ? 0 : default_hosts);
  c.seed = flags.get_uint<std::uint64_t>("seed", 0);
  return c;
}

/// Generates a dataset preset at the configured scale.
inline delayspace::DelaySpace make_space(delayspace::DatasetId id,
                                         const BenchConfig& c) {
  auto params = delayspace::dataset_params(id, c.hosts);
  params.topology.seed ^= c.seed;
  params.hosts.seed ^= c.seed;
  return delayspace::generate_delay_space(params);
}

/// Repeated-timing summary: min-of-k (the regression-gate number — least
/// noise-contaminated), plus mean and relative spread so a baseline diff
/// can tell a real regression from a noisy box.
struct Timing {
  double best_ms = 0.0;  ///< minimum over reps — the gated metric
  double mean_ms = 0.0;
  double spread = 0.0;  ///< (max - min) / min; 0 when min is 0
  int reps = 1;
};

/// Streaming emitter for every bench's output: a JSON array of flat
/// records, one object per measurement and one per line, so runs diff
/// with jq or tools/benchdiff.
///
///   JsonArrayWriter json(std::cout);
///   json.object().field("n", n).field("ms", ms, 3).field_sig("err", e, 3);
///
/// The Object temporary closes itself at the end of the full expression;
/// the writer closes the array on destruction.
class JsonArrayWriter {
 public:
  class Object {
   public:
    explicit Object(std::ostream& out) : out_(out) { out_ << "{"; }
    /// Move transfers the close-brace duty (lets factories like
    /// BenchReport::meta return a prefilled record for the caller to
    /// extend); the moved-from object writes nothing.
    Object(Object&& o) noexcept : out_(o.out_), first_(o.first_) {
      o.active_ = false;
    }
    ~Object() {
      if (active_) out_ << "}";
    }
    Object(const Object&) = delete;
    Object& operator=(const Object&) = delete;
    Object& operator=(Object&&) = delete;

    /// One template for every integer type (size_t is unsigned long on
    /// LP64 glibc but unsigned long long elsewhere; per-type overloads
    /// would be ambiguous on one platform or the other). bool is excluded
    /// — use field_bool.
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Object& field(const std::string& key, T v) {
      if constexpr (std::is_signed_v<T>) {
        sep() << quoted(key) << ":" << static_cast<std::int64_t>(v);
      } else {
        sep() << quoted(key) << ":" << static_cast<std::uint64_t>(v);
      }
      return *this;
    }
    /// Fixed-point with `decimals` fractional digits (timings, fractions).
    Object& field(const std::string& key, double v, int decimals = 3) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
      sep() << quoted(key) << ":" << buf;
      return *this;
    }
    /// Significant-digit form (errors spanning decades; emits e.g. 1.2e-09).
    Object& field_sig(const std::string& key, double v, int significant = 3) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*g", significant, v);
      sep() << quoted(key) << ":" << buf;
      return *this;
    }
    Object& field(const std::string& key, const std::string& v) {
      sep() << quoted(key) << ":" << quoted(v);
      return *this;
    }
    /// An array of counts (fig03's cluster sizes).
    Object& field(const std::string& key, const std::vector<std::size_t>& v) {
      sep() << quoted(key) << ":[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        out_ << (i == 0 ? "" : ",") << v[i];
      }
      out_ << "]";
      return *this;
    }
    Object& field_bool(const std::string& key, bool v) {
      sep() << quoted(key) << ":" << (v ? "true" : "false");
      return *this;
    }
    /// The standard repeated-timing fields: "ms" is min-of-reps (the
    /// number benchdiff gates), mean/spread qualify the measurement.
    Object& timing(const Timing& t) {
      return field("ms", t.best_ms, 3)
          .field("ms_mean", t.mean_ms, 3)
          .field("ms_spread", t.spread, 3)
          .field("reps", t.reps);
    }

   private:
    std::ostream& sep() {
      if (!first_) out_ << ",";
      first_ = false;
      return out_;
    }
    static std::string quoted(const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return out;
    }

    std::ostream& out_;
    bool first_ = true;
    bool active_ = true;  ///< false once moved-from: dtor writes nothing
  };

  explicit JsonArrayWriter(std::ostream& out) : out_(out) { out_ << "[\n"; }
  ~JsonArrayWriter() { out_ << "\n]\n"; }
  JsonArrayWriter(const JsonArrayWriter&) = delete;
  JsonArrayWriter& operator=(const JsonArrayWriter&) = delete;

  /// Starts the next record (indented, comma-separated from the previous).
  Object object() {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << "  ";
    return Object(out_);
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// The unified bench JSON envelope (docs/OBSERVABILITY.md, "Benchmark
/// methodology & baselines"). A BenchReport is a JsonArrayWriter whose
/// first record is a {"section":"meta"} envelope carrying everything a
/// baseline differ needs to refuse apples-to-oranges comparisons:
///
///   {"section":"meta","schema_version":1,"bench":"bench_severity_kernel",
///    "build":"release","obs_enabled":true,"hw_threads":4,
///    "hosts":0,"seed":7, ...bench-specific config chained by the caller}
///
/// Usage:
///   BenchReport report(std::cout, "bench_severity_kernel");
///   report.meta(cfg).field("reps", reps).field("quick", ...);
///   report.object().field("section", "engine")...;   // as before
///
/// tools/benchdiff keys on schema_version (mismatch = structural error,
/// exit 2) and on bench to reject diffing unrelated runs.
class BenchReport : public JsonArrayWriter {
 public:
  /// Bump when the envelope or the shared record conventions change
  /// incompatibly; benchdiff refuses to diff across versions.
  static constexpr int kSchemaVersion = 1;

  BenchReport(std::ostream& out, std::string bench)
      : JsonArrayWriter(out), bench_(std::move(bench)) {}

  /// Opens the meta record — call exactly once, before any other record.
  /// Returns the still-open Object so callers chain bench-specific config
  /// (sizes, thread sweeps, tile dims); it closes at the end of the full
  /// expression like any other record.
  Object meta(const BenchConfig& cfg) {
    Object o = object();
    o.field("section", std::string("meta"))
        .field("schema_version", kSchemaVersion)
        .field("bench", bench_)
        .field("build", std::string(
#ifdef NDEBUG
                            "release"
#else
                            "debug"
#endif
                            ))
        .field_bool("obs_enabled", obs::kEnabled)
        .field("hw_threads", std::thread::hardware_concurrency())
        .field("hosts", cfg.hosts)
        .field("seed", cfg.seed);
    return o;
  }

 private:
  std::string bench_;
};

/// Embeds a registry metrics snapshot into a bench's JSON record stream:
/// one flat {"section":"metrics",...} record per metric, so regressions in
/// telemetry totals (I/O volume, cache hit rates, repair counts) are as
/// diffable as the timing records. Pass a delta_since() snapshot to scope
/// the records to one bench phase.
inline void emit_metrics_json(JsonArrayWriter& json,
                              const obs::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("counter"))
        .field("name", name)
        .field("value", value);
  }
  for (const auto& [name, value] : snap.gauges) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("gauge"))
        .field("name", name)
        .field("value", value);
  }
  for (const auto& [name, h] : snap.histograms) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("histogram"))
        .field("name", name)
        .field("count", h.count)
        .field("sum", h.sum)
        .field("mean", h.mean(), 1)
        .field("p50", h.quantile(0.5), 1)
        .field("p90", h.quantile(0.9), 1)
        .field("p99", h.quantile(0.99), 1);
  }
}

/// Several named CDFs sampled on a fixed x grid: one record per
/// (series, x) with the fraction at-most x — the orientation the paper's
/// CDF figures use.
inline void emit_cdf_grid_json(JsonArrayWriter& json,
                               const std::string& section,
                               const std::vector<std::string>& names,
                               const std::vector<Cdf>& cdfs,
                               const std::vector<double>& grid,
                               int x_decimals = 3) {
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (const double x : grid) {
      json.object()
          .field("section", section)
          .field("series", names[s])
          .field("x", x, x_decimals)
          .field("fraction", cdfs[s].fraction_at_most(x), 4);
    }
  }
}

/// The transposed view of the same CDFs: one record per (series, quantile),
/// readable as "the q-th percentile penalty of scheme X is ...".
inline void emit_cdf_quantiles_json(JsonArrayWriter& json,
                                    const std::string& section,
                                    const std::vector<std::string>& names,
                                    const std::vector<Cdf>& cdfs) {
  for (std::size_t s = 0; s < names.size(); ++s) {
    if (cdfs[s].empty()) continue;
    for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
      json.object()
          .field("section", section)
          .field("series", names[s])
          .field("quantile", q, 2)
          .field("value", cdfs[s].quantile(q), 4);
    }
  }
}

/// A binned error-bar series (the paper's Figs. 4-8, 11, 13, 19): one
/// record per bin.
inline void emit_bins_json(JsonArrayWriter& json, const std::string& section,
                           const std::vector<Bin>& bins, int x_decimals = 2) {
  for (const Bin& b : bins) {
    json.object()
        .field("section", section)
        .field("x", b.x_center, x_decimals)
        .field("p10", b.p10, 4)
        .field("median", b.median, 4)
        .field("p90", b.p90, 4)
        .field("mean", b.mean, 4)
        .field("count", b.count);
  }
}

/// Synthetic uniform-random RTT matrix for the kernel benches: cost
/// depends only on n and the missing pattern, and this keeps large-n
/// setups cheap compared to generating a full delay space.
inline delayspace::DelayMatrix random_matrix(delayspace::HostId n,
                                             double missing_fraction,
                                             std::uint64_t seed) {
  delayspace::DelayMatrix m(n);
  Rng rng(seed);
  for (delayspace::HostId i = 0; i < n; ++i) {
    for (delayspace::HostId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(missing_fraction)) continue;
      m.set(i, j, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
  }
  return m;
}

/// Cells a < b whose float bits differ between two severity matrices of the
/// same size (0 = bit-identical).
inline std::size_t severity_bit_mismatches(const core::SeverityMatrix& got,
                                           const core::SeverityMatrix& want) {
  std::size_t bad = 0;
  for (delayspace::HostId a = 0; a < got.size(); ++a) {
    for (delayspace::HostId b = a + 1; b < got.size(); ++b) {
      bad += std::bit_cast<std::uint32_t>(got.at(a, b)) !=
             std::bit_cast<std::uint32_t>(want.at(a, b));
    }
  }
  return bad;
}

/// Wall time of one invocation of fn, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-reps wall time of fn, which must assign its result out of the
/// timed region so the work is not optimized away.
inline double best_ms(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, time_ms(fn));
  return best;
}

/// Min, mean and (max-min)/min relative spread of per-rep timings.
inline Timing summarize_ms(const std::vector<double>& samples) {
  Timing t;
  t.reps = static_cast<int>(samples.size());
  if (samples.empty()) return t;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double ms : samples) sum += ms;
  t.best_ms = *lo;
  t.mean_ms = sum / static_cast<double>(samples.size());
  t.spread = *lo > 0.0 ? (*hi - *lo) / *lo : 0.0;
  return t;
}

/// best_ms plus dispersion: runs fn `reps` times and keeps min, mean and
/// the (max-min)/min relative spread. The min is what the regression gate
/// compares (least contaminated by scheduler noise); the spread is how a
/// reader judges whether the box was quiet.
inline Timing repeat_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < std::max(reps, 1); ++r) samples.push_back(time_ms(fn));
  return summarize_ms(samples);
}

/// repeat_ms over two workloads timed in alternation (a, b, a, b, ...), so
/// both see the same machine state — CPU quota, frequency, a neighbour's
/// load. What a gated ratio of the two timings needs.
inline std::pair<Timing, Timing> repeat_pair_ms(
    int reps, const std::function<void()>& fa,
    const std::function<void()>& fb) {
  std::vector<double> a;
  std::vector<double> b;
  for (int r = 0; r < std::max(reps, 1); ++r) {
    a.push_back(time_ms(fa));
    b.push_back(time_ms(fb));
  }
  return {summarize_ms(a), summarize_ms(b)};
}

/// Log-spaced grid (the paper's percentage-penalty CDFs use a log x axis
/// from 10^0 to 10^4).
inline std::vector<double> log_grid(double lo, double hi,
                                    std::size_t points_per_decade = 2) {
  std::vector<double> grid;
  for (double x = lo; x <= hi * 1.0001;
       x *= std::pow(10.0, 1.0 / static_cast<double>(points_per_decade))) {
    grid.push_back(x);
  }
  return grid;
}

}  // namespace tiv::bench
