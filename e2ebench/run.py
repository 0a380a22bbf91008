#!/usr/bin/env python3
"""End-to-end benchmark of potluckd.

    python3 e2ebench/run.py --workload recog_uds|hot_shm|cold_tier \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. Builds potluckd and the load driver
from source into .bench_build/ (first run only; later runs rebuild
incrementally), runs the driver in a scratch directory under
.bench_run/, and prints its result as the last line of stdout: one JSON
object with the keys correct, attempted, failed and metrics. Every
process the run starts is killed and reaped, and the scratch directory
(sockets, daemon log, store directories) is removed, whether the run
passes, fails or times out. Traced runs (--trace 1) keep their
benchmark spans in .bench_out/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
OUT = os.path.join(ROOT, ".bench_out")
DAEMON = os.path.join(BUILD, "potluck", "tools", "potluckd")
DRIVER = os.path.join(BUILD, "potluck_e2e")
WORKLOADS = ("recog_uds", "hot_shm", "cold_tier")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build the targets incrementally."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise RuntimeError("no potluck sources at " + ROOT +
                               " (missing " + required + ")")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True)


def run_driver(args):
    """Run the driver in its own session and scratch directory; return
    its stdout, or None when it failed."""
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [DRIVER, "--daemon", DAEMON, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s; killed" % RUN_TIMEOUT_S)
        out = None
    finally:
        # The driver leads its own process group; potluckd children are
        # in it too. Kill whatever is left and reap the driver.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if args.trace:
            spans = os.path.join(run_dir, "spans.jsonl")
            if os.path.isfile(spans):
                os.makedirs(OUT, exist_ok=True)
                shutil.move(spans, os.path.join(
                    OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    if out is None or proc.returncode != 0:
        log("driver failed (exit status %s)" % proc.returncode)
        return None
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the oracle's own tests")
    args = p.parse_args()
    try:
        if args.self_test:
            build(["oracle_test"])
            return subprocess.run([os.path.join(BUILD, "oracle_test")]).returncode
        if args.workload is None:
            p.error("--workload is required")
        build(["potluckd", "potluck_e2e"])
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    out = run_driver(args)
    if out is None:
        return 1
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        log("driver printed no result")
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
