#!/usr/bin/env python3
"""End-to-end query benchmark for the BlossomTree engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload <path_scan|flwor_join|service_mix>
        --seed <n> --seconds <s> --trace <0|1>

Builds the engine sources under src/ together with the benchmark program in
perfbench/ (CMake, Release) into .bench_build/ (or $CARGO_TARGET_DIR), runs
one workload in its own process, and prints the program's output. The last
line is one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 replays every query through the engine's public
functions with a span around each call, reports the per-layer metrics and
writes the spans to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("path_scan", "flwor_join", "service_mix")
# The program is given this long for set-up, reference computation and
# clean-up, plus twice the measured window.
SETUP_ALLOWANCE_S = 110


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)


def configured_for(cache, source_dir):
    """True when the CMake cache was configured from `source_dir`."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(source_dir)
    return False


def build(base):
    out = os.path.join(base, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(base, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and not configured_for(cache, HERE):
        shutil.rmtree(out)
        os.makedirs(out)
    if not os.path.exists(cache):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log_path) != 0:
            fail("cmake configure failed; see " + log_path)
    if run_logged(["cmake", "--build", out, "--target", "perfbench",
                   "-j", jobs], log_path) != 0:
        fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench")


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "engine", "engine.h")):
        fail("engine sources not found at " + src)
    base = build_dir()
    binary = build(base)
    work = os.path.join(base, "work")
    traces = os.path.join(base, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--commit", commit_id(),
           "--src-digest", src_digest(src)]
    if args.trace:
        # One file per workload: the latest traced run of each is kept.
        cmd += ["--trace-file", os.path.join(traces, args.workload + ".json")]
    timeout_s = SETUP_ALLOWANCE_S + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %.0f s"
             % (args.workload, timeout_s))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
