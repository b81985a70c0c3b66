#!/usr/bin/env python3
"""Clone-and-validate benchmark of the Ditto reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe with dune, runs the output checks' self-test,
then runs the workload in fresh worker processes, each of which clones
the service and validates the clone once (see main.ml).

--trace 0 runs a batch of repetitions, one per input seed derived from
--seed, sized from --seconds, and reports the end-to-end metrics: medians
of the timings over the batch and the mean fidelity. --trace 1 runs the
first input seed twice, untraced and then traced stage by stage, and
reports the per-layer metrics; the two must agree exactly on fidelity and
simulated counts (determinism, and the stage-by-stage clone equals
Pipeline.clone).

Metric names and units come from BENCHMARK.json. Detail goes to stderr;
the last line of stdout is the JSON result. The exit code is 0 only when
every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# Seconds one repetition takes on a 2-vCPU x86-64 host. They size a batch
# from --seconds alone, so the batch (and the inputs it covers) does not
# depend on how fast the program under test is.
NOMINAL_S = {"tune-redis": 7.5, "surge-memcached": 13.5, "fanout-social": 17.5}
# Extra processes per run that stop at the first pipeline call: set-up
# time is a few milliseconds, so it takes many samples to be steady.
SETUP_SAMPLES = 15
# Environment variables that change the measured program.
PINNED_ENV = ("DITTO_DOMAINS", "DITTO_MEMO")
WORKER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build():
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        # The OCaml toolchain is in an opam switch that is not on PATH.
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    r = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def self_test():
    """The output checks must reject a corrupted comparison: the worker's
    self-test exits 1 and names the failed checks."""
    r = subprocess.run(
        [EXE, "self-test"], cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    ok = r.returncode == 1 and "CHECK FAILED" in r.stderr
    log("self-test: %s (exit %d)" % ("checks reject a corrupted comparison" if ok else "FAILED",
                                     r.returncode))
    return ok


def worker(workload, seed, mode=None):
    """One fresh process, one clone-and-validate (mode "--trace": traced;
    "--setup-only": set-up alone). Returns its record, or None when it
    printed none."""
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed)]
    if mode:
        cmd.append(mode)
    t0 = time.time()
    r = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        log("worker %s seed %d exited %d without a result" % (workload, seed, r.returncode))
        return None
    rec = json.loads(lines[-1])
    rec["exit"] = r.returncode
    if mode != "--setup-only":
        log("%s seed %d: %s" % (mode or "run", seed, " ".join(
            "%s=%.4g" % kv for kv in rec["timings"].items())))
    return rec


def input_seeds(workload, seed, seconds):
    """The batch: as many repetitions as --seconds holds at the nominal
    pace (at least 2), each on its own input seed."""
    nominal = NOMINAL_S[workload]
    k = max(2, min(round(seconds / nominal), int(150 // nominal)))
    return [seed * 1000 + i for i in range(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for v in PINNED_ENV:
        if v in os.environ:
            fail("refusing to run with %s set: it changes the measured program" % v)
    if args.seed < 0:
        fail("--seed must be >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    attempted, failed, problems = 0, 0, []

    def check(name, ok):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(name)

    check("self-test", self_test())
    seeds = input_seeds(args.workload, args.seed, args.seconds)
    if args.trace:
        plan = [(seeds[0], False), (seeds[0], True)]
    else:
        plan = [(s, False) for s in seeds]
    recs = []
    for s, traced in plan:
        rec = worker(args.workload, s, "--trace" if traced else None)
        check("repetition on seed %d printed a result" % s, rec is not None)
        if rec is None:
            break
        recs.append(rec)
        attempted += rec["attempted"]
        failed += len(rec["failed"])
        problems += rec["failed"]
        if rec["exit"] != 0 and not rec["failed"]:
            check("worker exit code", False)

    values = {}
    if recs and not args.trace:
        for k in recs[0]["timings"]:
            values[k] = statistics.median(r["timings"][k] for r in recs)
        setups = [r["timings"]["setup_s"] for r in recs]
        for i in range(SETUP_SAMPLES):
            rec = worker(args.workload, seeds[i % len(seeds)], "--setup-only")
            check("set-up sample printed a result", rec is not None and rec["exit"] == 0)
            if rec is not None:
                setups.append(rec["setup_s"])
        values["setup_s"] = statistics.median(setups)
        # Fidelity is exact for an input seed; the batch gives its mean.
        mean_err = statistics.fmean(r["fidelity"]["mean_err_pct"] for r in recs)
        values["mean_accuracy_pct"] = 100.0 - mean_err
    if len(recs) == 2 and args.trace:
        plain, traced = recs
        same = {k: plain[k] for k in ("fidelity", "counts")} == {
            k: traced[k] for k in ("fidelity", "counts")
        }
        check("untraced and traced runs of one seed agree on fidelity and counts", same)
        values.update(traced["layers"])
        for k, v in plain["fidelity"].items():
            values["fidelity." + k] = v
        values["trace.overhead_pct"] = 100.0 * (
            traced["timings"]["wall_s"] / plain["timings"]["wall_s"] - 1.0
        )

    info = recs[0] if recs else {}
    print("perfbench: workload=%s seed=%d input_seeds=%s trace=%d pool_size=%s nproc=%s ocaml=%s"
          % (args.workload, args.seed, ",".join(str(s) for s, _ in plan), args.trace,
             info.get("pool_size"), info.get("nproc"), info.get("ocaml")))
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            if recs:
                check("metric %s produced" % m["name"], False)
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        log("  %-28s %16.6g %s" % (m["name"], v, m["unit"]))
    for name in problems:
        log("FAILED: " + name)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
