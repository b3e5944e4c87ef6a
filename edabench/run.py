#!/usr/bin/env python3
"""Builds edabench from the checkout's sources and runs one workload.

Usage (from the repository root):

    python3 edabench/run.py --workload route_pipeline --seed 1 \
        --seconds 20 --trace 0

Prints a detail line (machine and build fingerprint, workload make-up,
sample counts, check problems, every metric) and then, as the last line
of stdout, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Build output goes to stderr. Exits non-zero without a result
line when the sources are missing, the build fails or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
BINARY = os.path.join(BUILD_DIR, "edabench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print("edabench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the edabench target into .bench_build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no edadb sources next to the benchmark (src/ is missing)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "edabench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_type(path):
    """Type of the filesystem holding `path` (longest mount-point match)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as mounts:
            for line in mounts:
                fields = line.split()
                sep = fields.index("-")
                mount_point = fields[4]
                prefix = mount_point.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(prefix) > len(best):
                    best, fstype = prefix, fields[sep + 1]
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the
    code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def fingerprint(data_dir):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "data_fs": filesystem_type(data_dir),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["route_pipeline", "filter_fanout",
                                 "capture_cq"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    os.makedirs(DATA_DIR, exist_ok=True)
    data_dir = os.path.join(DATA_DIR, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("workload exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparsable workload output: " + lines[-1][:200])

    result["fingerprint"] = fingerprint(DATA_DIR)
    print(json.dumps(result, sort_keys=True))
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in chosen.items()}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
