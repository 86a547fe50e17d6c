#!/usr/bin/env python3
"""Build the benchmark harness from source and run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload exact-mix --seed 1 --seconds 20 --trace 0

The harness (perfbench/svcbench.ml) is built with dune into .bench_build/,
with the dune cache off and TMPDIR under .bench_work/, so nothing is
written outside the checkout.  Its
cold-start inputs go to a fresh directory under .bench_work/, removed at
exit.  The harness's standard output is passed through: notes, then the
result JSON as the last line.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("exact-mix", "sample-scale", "serve-delta")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "svcbench.exe")
# The harness abandons a stalled operation on its own; this guards the
# process as a whole: the measured time, plus this much for the warm-up,
# the cold starts and the reference answers.
RUN_SLACK_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache=disabled", "-j", "2",
        "./perfbench/svcbench.exe",
    ]
    # the compiler's temporary files stay inside the checkout too
    tmp = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, env=env)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("building the harness failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    # The harness is single-threaded and waits while a cold start runs, so
    # one CPU serves both: pinned, every operation and every cold start
    # runs on the same vCPU, rather than the starts on whichever one is
    # idle, which on a shared host may run at another speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=WORK_DIR)
    cmd = [
        EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", work,
    ]
    # its own process group, so a stop also reaches its cold starts; a
    # SIGTERM to this script stops the group too
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    proc = subprocess.Popen(cmd, start_new_session=True)
    timeout = args.seconds + RUN_SLACK_S
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = 3
        print("run.py: the harness overran %g s and was stopped" % timeout,
              file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
