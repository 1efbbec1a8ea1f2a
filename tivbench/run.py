#!/usr/bin/env python3
"""Build and run one tivbench workload; print its result as one JSON line.

    python3 tivbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (the library plus tivbench/src) under .bench_build/; later runs
only re-check the build. Standard output ends with two lines: the
environment record, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and
every per_layer metric with --trace 1. A per-layer metric of a layer the
workload does not run reads 0. Exits non-zero, printing no result, if the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"tivbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    build_dir = BUILD_DIR / "tivbench"
    steps = []
    if not (ROOT / build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "tivbench", "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "tivbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError(f"build step failed ({code}): {' '.join(step)}")
    return ROOT / build_dir / "tivbench"


def source_digest():
    """sha256 over the sources the benchmark builds, for the record."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tivbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        code, top = run(["git", "rev-parse", "--show-toplevel"], 10,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True)
        if code != 0 or Path(top.strip()).resolve() != ROOT:
            return "unavailable (not a git checkout)"
        _, head = run(["git", "rev-parse", "HEAD"], 10,
                      stdout=subprocess.PIPE, text=True)
        return head.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable (git not found)"


def build_record():
    cache = {}
    for line in (ROOT / BUILD_DIR / "tivbench" / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "cxx_flags_release": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "native_arch_option": cache.get("TIV_NATIVE_ARCH", "unknown"),
        "obs_disable_option": cache.get("TIV_OBS_DISABLE", "unknown"),
    }


def result_metrics(spec, measured, trace):
    """The metrics BENCHMARK.json declares for this mode, from measured."""
    section = "per_layer" if trace else "end_to_end"
    values = measured[section]
    declared = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"undeclared {section} metrics: {unknown}")
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            if values[name]["unit"] != unit:
                raise RuntimeError(f"{name}: unit {values[name]['unit']} "
                                   f"is not the declared {unit}")
            metrics[name] = {"value": values[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not run here
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RuntimeError(f"unknown workload {args.workload}")
    binary = build()

    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    try:
        code, out = run([str(binary), f"--workload={args.workload}",
                         f"--seed={args.seed}", f"--seconds={args.seconds}",
                         f"--trace={args.trace}", f"--work-dir={work_dir}"],
                        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"tivbench exited with {code}")
    measured = json.loads(out.strip().splitlines()[-1])

    env = {key: measured[key] for key in ("env", "params", "layers")}
    env["build"] = build_record()
    print(json.dumps(env))
    print(json.dumps({
        "correct": measured["correct"] and measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": result_metrics(spec, measured, args.trace),
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # any failure: non-zero exit, no result line
        log(f"error: {e}")
        sys.exit(1)
