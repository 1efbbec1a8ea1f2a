#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/parallel.hpp"

namespace tivbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::vector<double> scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

void LayerClock::stop(const Stamp& s) {
  const double wall = wall_s() - s.wall;
  const double cpu = process_cpu_s() - s.cpu;
  wall_.push_back(wall);
  cpu_.push_back(cpu);
  wall_total_ += wall;
  cpu_total_ += cpu;
  last_cores_ = wall > 0.0 ? cpu / wall : 0.0;
}

double LayerClock::min_effective_cores() const {
  double lo = 0.0;
  for (std::size_t i = 0; i < wall_.size(); ++i) {
    if (wall_[i] <= 0.0) continue;
    const double c = cpu_[i] / wall_[i];
    if (i == 0 || c < lo) lo = c;
  }
  return lo;
}

void LayerClock::drop_last() {
  if (wall_.empty()) return;
  wall_total_ -= wall_.back();
  cpu_total_ -= cpu_.back();
  wall_.pop_back();
  cpu_.pop_back();
}

WarmUp warm_up(double min_s, double max_s) {
  constexpr double kSlice = 0.1;
  constexpr std::size_t kSteadySlices = 4;
  constexpr double kSteadySpread = 0.05;
  const std::size_t threads = tiv::parallel_thread_count();
  WarmUp out;
  std::vector<double> rates;
  const double t0 = wall_s();
  for (;;) {
    std::atomic<std::uint64_t> spins{0};
    const double s0 = wall_s();
    tiv::parallel_for(threads, [&](std::size_t) {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      std::uint64_t n = 0;
      while (wall_s() < s0 + kSlice) {
        for (int k = 0; k < 256; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        asm volatile("" : "+r"(x));
        ++n;
      }
      spins.fetch_add(n, std::memory_order_relaxed);
    });
    rates.push_back(static_cast<double>(spins.load()) / (wall_s() - s0));
    out.seconds = wall_s() - t0;
    if (rates.size() >= kSteadySlices && out.seconds >= min_s) {
      const auto tail = std::vector<double>(rates.end() - kSteadySlices,
                                            rates.end());
      const auto [lo, hi] = std::minmax_element(tail.begin(), tail.end());
      if (*hi <= *lo * (1.0 + kSteadySpread)) {
        out.steady = true;
        break;
      }
    }
    if (out.seconds >= max_s) break;
  }
  out.first_rate = rates.front();
  out.last_rate = rates.back();
  return out;
}

std::map<std::string, SpanSelf> span_self_times(
    std::vector<tiv::obs::TraceEvent> events) {
  // Spans on one thread nest (RAII), so after sorting by (thread, start,
  // longest first) each span's parent is the innermost open span that
  // contains it.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<double> child_ns(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid && e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns)
        break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += static_cast<double>(e.dur_ns);
    open.push_back(i);
  }
  std::map<std::string, SpanSelf> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& s = out[events[i].name];
    s.self_ns += static_cast<double>(events[i].dur_ns) - child_ns[i];
    ++s.count;
  }
  return out;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void RoundLog::begin() {
  ticks_ = cpu_ticks();
  start_s_ = wall_s();
}

void RoundLog::end(double round_s, const std::vector<double>& lookups_s,
                   bool traced) {
  constexpr double kMaxStealShare = 0.1;
  // /proc/stat sums steal over every online CPU, in clock ticks.
  static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  static const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const CpuTicks now = cpu_ticks();
  const double cpu_s = (wall_s() - start_s_) * cpus;
  const double stolen_s = (now.steal - ticks_.steal) * tick_s;
  iters_.push_back({round_s, lookups_s, traced, stolen_s > kMaxStealShare * cpu_s});
}

std::size_t RoundLog::stolen() const {
  std::size_t n = 0;
  for (const auto& it : iters_) n += it.stolen;
  return n;
}

std::vector<double> RoundLog::rounds(bool traced) const {
  const bool filter = filtered();
  std::vector<double> out;
  for (const auto& it : iters_) {
    if (it.traced == traced && !(filter && it.stolen)) out.push_back(it.round_s);
  }
  return out;
}

std::vector<double> RoundLog::lookups() const {
  const bool filter = filtered();
  std::vector<double> out;
  for (const auto& it : iters_) {
    if (!(filter && it.stolen)) {
      out.insert(out.end(), it.lookups_s.begin(), it.lookups_s.end());
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string distribution_json(const std::vector<double>& v) {
  std::ostringstream out;
  out << "{\"n\":" << v.size() << ",\"p50\":" << json_number(quantile(v, 0.5))
      << ",\"p90\":" << json_number(quantile(v, 0.9))
      << ",\"p95\":" << json_number(quantile(v, 0.95))
      << ",\"p99\":" << json_number(quantile(v, 0.99))
      << ",\"max\":" << json_number(quantile(v, 1.0)) << "}";
  return out.str();
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

/// First "key : value" line of /proc/cpuinfo with this key.
std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    return line.substr(std::min(colon + 2, line.size()));
  }
  return "unknown";
}

/// Device and type of the filesystem holding `dir` (longest /proc/mounts
/// mount point that prefixes its canonical path).
std::pair<std::string, std::string> filesystem_of(const std::string& dir) {
  std::error_code ec;
  const std::string path = std::filesystem::canonical(dir, ec).string();
  std::ifstream in("/proc/mounts");
  std::string dev, mnt, type, rest;
  std::size_t best = 0;
  std::pair<std::string, std::string> out{"unknown", "unknown"};
  while (in >> dev >> mnt >> type && std::getline(in, rest)) {
    const bool prefix =
        path.rfind(mnt, 0) == 0 &&
        (mnt == "/" || path.size() == mnt.size() || path[mnt.size()] == '/');
    if (prefix && mnt.size() >= best) {
      best = mnt.size();
      out = {dev, type};
    }
  }
  return out;
}

}  // namespace

EnvRecord host_environment(const std::string& dir) {
  EnvRecord env;
  env["cpu_model"] = json_string(cpuinfo_field("model name"));
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  std::string isa;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f",
                        "avx512bw", "avx512vl", "avx512_vnni"}) {
    if (flags.find(std::string(" ") + f + " ") == std::string::npos) continue;
    isa += isa.empty() ? f : std::string(",") + f;
  }
  env["cpu_isa"] = json_string(isa);
  env["hardware_concurrency"] =
      json_number(std::thread::hardware_concurrency());
  utsname u{};
  if (uname(&u) == 0) env["kernel"] = json_string(u.release);
  const auto [dev, type] = filesystem_of(dir);
  env["tile_fs_device"] = json_string(dev);
  env["tile_fs_type"] = json_string(type);
  env["page_cache"] = json_string("not dropped: tile reads may hit it");
  return env;
}

std::string layer_json(const LayerClock& clock) {
  std::ostringstream out;
  out << "{\"calls\":" << clock.wall().size()
      << ",\"median_s\":" << json_number(clock.median_s())
      << ",\"effective_cores\":" << json_number(clock.effective_cores())
      << ",\"min_effective_cores\":"
      << json_number(clock.min_effective_cores()) << "}";
  return out.str();
}

void add_trace_overhead(Metrics& per_layer,
                        const std::vector<double>& setup_plain,
                        const std::vector<double>& setup_traced,
                        const std::vector<double>& round_plain,
                        const std::vector<double>& round_traced) {
  // A run too short to hold both kinds reports nothing (read as 0).
  if (!setup_plain.empty() && !setup_traced.empty()) {
    per_layer["obs.setup_trace_overhead"] = {
        median(setup_traced) / median(setup_plain) - 1.0, "ratio"};
  }
  if (!round_plain.empty() && !round_traced.empty()) {
    per_layer["obs.round_trace_overhead"] = {
        median(round_traced) / median(round_plain) - 1.0, "ratio"};
  }
}

std::uint64_t counter_of(const tiv::obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace tivbench
