#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 pipebench/run.py --workload peak_day --seed 1 --seconds 25 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root. The first call configures and builds
pipebench/ (which compiles ../src) into .bench_build/pipebench; later calls
only check that the build is current. The build log goes to stderr. The
benchmark's own output goes to stdout, and its last line is one JSON object
with the keys correct, attempted, failed and metrics.

Exit status: the benchmark's (0 when every operation and check passed,
1 otherwise), 2 on bad usage, 3 when the build fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "pipebench"
RUNS = OUT / "runs"
TRACES = OUT / "traces"
WORKLOADS = ("peak_day", "five_years", "query_mix")


def build() -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"pipebench: no sources at {ROOT / 'src'}", file=sys.stderr)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        compile_ = ["cmake", "--build", str(BUILD), "--target", "pipebench",
                    "-j", str(os.cpu_count() or 1)]
        return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def git_rev() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def run_one(workload: str, args: argparse.Namespace, rev: str) -> tuple[int, str]:
    """Run one workload, echoing its output; return its status and last line."""
    RUNS.mkdir(parents=True, exist_ok=True)
    TRACES.mkdir(parents=True, exist_ok=True)
    trace_out = TRACES / f"{workload}-seed{args.seed}-{os.getpid()}.json"
    cmd = [str(BUILD / "pipebench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(RUNS), "--trace-out", str(trace_out), "--git-rev", rev]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        status = child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
        # The benchmark removes its own directory; this catches a crash.
        for leftover in RUNS.glob(f"{child.pid}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    return status, last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and cleans up its benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 3
    rev = git_rev()
    if args.workload != "all":
        return run_one(args.workload, args, rev)[0]

    # Every workload in turn; the last line merges their results, with each
    # metric prefixed by its workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, last = run_one(workload, args, rev)
        status = status or code
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            return code or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
