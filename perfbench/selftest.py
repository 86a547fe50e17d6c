#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

At the shortest run length, every workload must print every metric of
BENCHMARK.json by name with its unit, the attempted and failed counts,
and the population holding each rank; the traced run's replayed values
must equal the engine's, its counts must repeat exactly from seed to
seed, and each per-layer metric must be measured (non-zero) on some
workload; equal seeds must give byte-identical inputs; a
wrong answer, or an operation past its deadline, must fail the run with a
non-zero exit; and outside a
checkout of the repository the benchmark must exit non-zero without a
result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
EXE = os.path.join(".bench_build", "default", "perfbench", "svcbench.exe")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT):
    p = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    return p.returncode, p.stdout.splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def notes(lines, prefix):
    return [l for l in lines if l.startswith("# " + prefix)]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    counts = {}
    measured = set()  # per-layer metrics some traced run measured as non-zero
    for w in (w["name"] for w in bench["workloads"]):
        for trace, seed in ((0, 7), (1, 7), (1, 8)):
            code, lines = run(RUN + ["--workload", w, "--seed", str(seed),
                                     "--seconds", "1", "--trace", str(trace)])
            r = result(lines)
            tag = "%s --trace %d --seed %d" % (w, trace, seed)
            check(code == 0, tag + ": exits 0")
            check(r is not None and set(r) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": last line is the result object")
            if r is None:
                continue
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  tag + ": every check passed (%d attempted, %d failed)"
                  % (r["attempted"], r["failed"]))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == expected[trace], tag + ": every metric by name with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                  tag + ": every value is a number")
            check(len(notes(lines, "workload")) == 1, tag + ": prints the input digest")
            if trace == 0:
                check(len(notes(lines, "p50: rank")) == 1 and len(notes(lines, "tail: p")) == 1,
                      tag + ": names the population of the p50 and tail ranks")
                check(all(v["value"] > 0 for v in r["metrics"].values()),
                      tag + ": end-to-end metrics are never 0")
                check(len(notes(lines, "host speed:")) == 1
                      and len(notes(lines, "unscaled wall clock:")) == 1,
                      tag + ": prints the host-speed calibration and the unscaled figures")
            else:
                c = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                if w in counts:
                    check(c == counts[w], tag + ": counts repeat exactly across seeds")
                counts[w] = c
                measured |= {k for k, v in r["metrics"].items() if v["value"] != 0}

    # the harness takes the per-layer names from BENCHMARK.json: each one
    # must be one the replay actually measures
    missing = sorted(set(expected[1]) - measured)
    check(not missing, "every per-layer metric is measured on some workload"
          + (" (never: %s)" % ", ".join(missing) if missing else ""))

    # equal seeds, byte-identical inputs; another seed, other inputs
    digests = []
    for seed in (3, 3, 4):
        _, lines = run(RUN + ["--workload", "serve-delta", "--seed", str(seed),
                              "--seconds", "1", "--trace", "0"])
        digests.append(notes(lines, "workload")[0].split()[-1])
    check(digests[0] == digests[1] != digests[2], "inputs are a function of the seed")

    # a wrong answer fails the run
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        code, lines = run([EXE, "run", "--workload", "exact-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--dir", work,
                           "--corrupt-last-answer"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    r = result(lines)
    check(code != 0 and r is not None and r["correct"] is False and r["failed"] >= 1,
          "a wrong answer is counted as failed and exits non-zero")

    # an operation past its deadline is abandoned and fails the run
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        code, lines = run([EXE, "run", "--workload", "exact-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--dir", work,
                           "--deadline", "0.0005"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    r = result(lines)
    check(code != 0 and r is not None and r["failed"] >= 1
          and any("deadline" in l for l in notes(lines, "FAILED")),
          "an operation past its deadline is abandoned and counted as failed")

    # outside a checkout: non-zero exit, no result line
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        code, lines = run(RUN + ["--workload", "exact-mix", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result(lines) is None,
          "without the repository it exits non-zero and prints no result")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
