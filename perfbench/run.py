#!/usr/bin/env python3
"""Runs one workload of the pullmon end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload select_heavy --seed 1 --seconds 10 --trace 0

Builds the benchmark from the sources next to this directory (Release,
into $CARGO_TARGET_DIR or .bench_build), runs it, checks that the run's
deterministic outcome matches every earlier run of the same binary at
the same workload and seed, and prints one JSON line as the last line of
standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Exits 1 without a result line when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("select_heavy", "fetch_heavy", "churn_durable", "adaptive_feeds")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(out_dir, "CMakeCache.txt")
        if not os.path.exists(cache):
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
            if configure.returncode != 0:
                if os.path.exists(cache):
                    os.remove(cache)
                raise RuntimeError("cmake configure failed")
        compile_ = subprocess.run(
            ["cmake", "--build", out_dir, "--target", "pullmon_perfbench",
             "-j", jobs],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
        if compile_.returncode != 0:
            raise RuntimeError("build failed")
    return os.path.join(out_dir, "pullmon_perfbench")


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_determinism(out_dir, binary, workload, fingerprints):
    """Records each epoch's deterministic outcome by seed; False if one
    differs from an earlier run of the same binary and workload."""
    records = os.path.join(out_dir, "fingerprints")
    os.makedirs(records, exist_ok=True)
    digest = file_digest(binary)
    same = True
    for seed, fingerprint in fingerprints.items():
        path = os.path.join(records, f"{digest}-{workload}-{seed}.txt")
        if not os.path.exists(path):
            with open(path, "w") as f:
                f.write(fingerprint)
            continue
        with open(path) as f:
            earlier = f.read()
        if earlier != fingerprint:
            log(f"nondeterministic outcome for {workload} at seed {seed}:\n"
                f"  earlier: {earlier}\n  now:     {fingerprint}")
            same = False
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(f"cannot build the benchmark: {error}")
        return 1

    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    checkpoints = os.path.join(run_dir, "checkpoints")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--checkpoint-dir={checkpoints}"]
    # Its own process group, so a timeout also stops the processes it forks.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if not lines:
        log(f"run printed no result (exit code {run.returncode})")
        return 1
    result = json.loads(lines[-1])
    fingerprints = result.pop("fingerprints")
    if not check_determinism(out_dir, binary, args.workload, fingerprints):
        result["correct"] = False
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
