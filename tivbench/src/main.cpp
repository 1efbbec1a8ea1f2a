// tivbench: runs one workload and prints one JSON line with the
// environment, the correctness counts and every metric it measured.
// tivbench/run.py builds this binary, runs it and turns that line into the
// benchmark's result line; see tivbench/README.md.
//
//   tivbench --workload=paper_batch --seed=1 --seconds=20 --trace=0
//            --work-dir=.bench_build/work
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using tivbench::json_number;
using tivbench::json_string;

void write_object(std::ostream& out, const tivbench::EnvRecord& rec) {
  out << "{";
  const char* sep = "";
  for (const auto& [k, v] : rec) {
    out << sep << json_string(k) << ":" << v;
    sep = ",";
  }
  out << "}";
}

void write_metrics(std::ostream& out, const tivbench::Metrics& metrics) {
  out << "{";
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    out << sep << json_string(name) << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
    sep = ",";
  }
  out << "}";
}

}  // namespace

int main(int argc, char** argv) {
  tivbench::Options opt;
  try {
    const tiv::Flags flags(argc, argv);
    opt.workload = flags.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    opt.seconds = flags.get_double("seconds", 20.0);
    opt.trace = flags.get_int("trace", 0) != 0;
    opt.work_dir = flags.get_string("work-dir", "");
    tiv::reject_unknown_flags(flags);
  } catch (const std::exception& e) {
    std::cerr << "tivbench: " << e.what() << "\n";
    return 2;
  }
  if (opt.work_dir.empty() || opt.seconds <= 0.0) {
    std::cerr << "tivbench: --work-dir and a positive --seconds are required\n";
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  // Anything the library spills without an explicit path stays in the
  // work directory too.
  setenv("TMPDIR", opt.work_dir.c_str(), 1);

  const unsigned threads = tivbench::nproc();
  tiv::set_parallel_thread_count(threads);
  const tivbench::WarmUp warm = tivbench::warm_up();
  const double rss_after_warmup = tivbench::peak_rss_mb();
  const tivbench::CpuTicks ticks0 = tivbench::cpu_ticks();

  tivbench::Outcome out;
  try {
    if (opt.workload == "paper_batch") {
      out = tivbench::run_paper_batch(opt);
    } else if (opt.workload == "live_outcore") {
      out = tivbench::run_live(opt, /*outcore=*/true);
    } else if (opt.workload == "live_inmem") {
      out = tivbench::run_live(opt, /*outcore=*/false);
    } else {
      std::cerr << "tivbench: unknown workload '" << opt.workload
                << "' (paper_batch, live_outcore, live_inmem)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "tivbench: invalid run: " << e.what() << "\n";
    return 3;
  }

  const tivbench::CpuTicks ticks1 = tivbench::cpu_ticks();
  out.end_to_end["peak_rss_mb"] = {tivbench::peak_rss_mb(), "MB"};

  tivbench::EnvRecord env = tivbench::host_environment(opt.work_dir);
  env["workload"] = json_string(opt.workload);
  env["seed"] = json_number(static_cast<double>(opt.seed));
  env["seconds"] = json_number(opt.seconds);
  env["trace"] = opt.trace ? "true" : "false";
  env["nproc"] = json_number(threads);
  env["pool_threads"] = json_number(static_cast<double>(tiv::parallel_thread_count()));
  env["caller_threads"] = "1";
  env["loop"] = json_string("closed");
  env["obs_enabled"] = tiv::obs::kEnabled ? "true" : "false";
  env["build_type"] = json_string(TIVBENCH_BUILD_TYPE);
  env["march_native"] = TIVBENCH_MARCH_NATIVE ? "true" : "false";
  env["warmup_s"] = json_number(warm.seconds);
  env["warmup_steady"] = warm.steady ? "true" : "false";
  env["warmup_first_rate"] = json_number(warm.first_rate);
  env["warmup_last_rate"] = json_number(warm.last_rate);
  env["peak_rss_mb_after_warmup"] = json_number(rss_after_warmup);
  env["host_steal_share"] = json_number(
      ticks1.total > ticks0.total
          ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0);

  std::cout << "{\"env\":";
  write_object(std::cout, env);
  std::cout << ",\"params\":";
  write_object(std::cout, out.params);
  std::cout << ",\"layers\":";
  write_object(std::cout, out.layers);
  std::cout << ",\"correct\":" << (out.correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
            << ",\"end_to_end\":";
  write_metrics(std::cout, out.end_to_end);
  std::cout << ",\"per_layer\":";
  write_metrics(std::cout, out.per_layer);
  std::cout << "}" << std::endl;
  return 0;
}
