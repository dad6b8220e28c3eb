#!/usr/bin/env python3
"""Benchmark of record for bbmodelgen: build, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The tree is configured and built
with its tier-1 defaults (RelWithDebInfo, BBMG_OBS=ON, BBMG_ALLOC_TRACK=ON)
into .bench_build/perfbench; only the targets the benchmark needs are
compiled.  The last stdout line is the JSON result; the exit code
is non-zero when the build, an output check or an exact-count check fails.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("offline_gm_b64", "served_ingest_b1", "served_query_b16")
# A run is killed (with its daemon) if it takes longer than this.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the benchmark program and the daemon."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def binary_key(paths):
    """Identity of the built code: exact counts are compared per key."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no bbmodelgen source tree at " + ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    driver = os.path.join(BUILD, "perfbench")
    served = os.path.join(BUILD, "bbmg_served")
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    counts = os.path.join(BUILD, "counts", "%s-%s-s%d-t%d.txt" % (
        binary_key([driver, served]), args.workload, args.seed, args.trace))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", served, "--work-dir", work, "--counts-file", counts]
    sys.stdout.flush()
    # Own process group, so a timeout also reaps any daemon it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
