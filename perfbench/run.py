#!/usr/bin/env python3
"""Builds duplexd and perfbench_driver from source, runs one workload
against the real daemon over loopback, and prints the result.

    python3 perfbench/run.py --workload query_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer ones. The full report (every metric with its unit, direction and
measured/modelled tag, sample counts, daemon flags and provenance) is
written under .bench_build/perfbench/results/, never to the repository.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
BUILD_DIR = BUILD_ROOT / "cmake"
RESULTS_DIR = BUILD_ROOT / "results"
BUILD_TYPE = "Release"
TARGETS = ["duplexd", "perfbench_driver", "perfbench_selftest"]
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for required in ("CMakeLists.txt", "src", "tools/duplexd.cpp"):
        if not (ROOT / required).exists():
            fail(f"no duplex sources here ({required} is missing); "
                 "run from a full checkout of the repository")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     "-DCMAKE_PROJECT_duplex_INCLUDE="
                     f"{BENCH_DIR / 'cmake' / 'project_hook.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *TARGETS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                tail = log_path.read_text()[-4000:]
                fail(f"build failed:\n{tail}", code=1)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unavailable"


def source_digest():
    """sha256 over the sources the run was built from, so a result can be
    tied to its code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_driver(args):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = RESULTS_DIR / f"{stem}.json"
    work_dir = BUILD_ROOT / "work" / stem
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(BUILD_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--duplexd", str(BUILD_DIR / "tools" / "duplexd"),
           "--work-dir", str(work_dir), "--report", str(report_path)]
    # Write back what the build and earlier runs left dirty, so that
    # writeback does not compete with this run's WAL fsyncs.
    os.sync()
    # Own process group: on a timeout perfbench_driver and every daemon it
    # started are killed together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"perfbench_driver exceeded {DRIVER_TIMEOUT_S}s", code=1)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if proc.returncode != 0 and not lines:
        fail(f"perfbench_driver exited with {proc.returncode}", code=1)
    result_line = gated(lines.pop() if lines else "{}", args.trace)
    for line in lines:
        print(line)
    if report_path.exists():
        annotate(report_path, args)
    shutil.rmtree(work_dir, ignore_errors=True)
    print(result_line, flush=True)
    return proc.returncode


def gated(result_line, trace):
    """Keeps in the result line exactly the metrics BENCHMARK.json lists
    for this mode; the report keeps every metric the run measured."""
    result = json.loads(result_line)
    if not result.get("metrics"):
        return result_line
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    result["metrics"] = {n: result["metrics"][n] for n in names
                         if n in result["metrics"]}
    return json.dumps(result)


def annotate(report_path, args):
    report = json.loads(report_path.read_text())
    report["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_unix": time.time(),
    }
    if args.trace == 1:
        untraced = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text()).get("end_to_end", {})
            traced = report.get("end_to_end", {})
            report["tracing_overhead"] = {
                name: {"traced_minus_untraced": traced[name]["value"] -
                       base[name]["value"], "unit": traced[name]["unit"]}
                for name in traced if name in base}
    report_path.write_text(json.dumps(report, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["query_zipf", "ingest_daily", "live_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build()
    if args.selftest:
        sys.exit(subprocess.call(
            [str(BUILD_DIR / "perfbench_selftest")]))
    sys.exit(run_driver(args))


if __name__ == "__main__":
    main()
