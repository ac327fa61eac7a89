#!/usr/bin/env python3
"""Fast self-check of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload at its smallest size and checks that
- each run emits every metric BENCHMARK.json names, with its unit, and no other;
- every op passes its gate;
- an untraced run leaves every wqalg module and class attribute as it found
  it, and its SIGALRM handler and interval timer too; a traced run puts back
  every wrapper it installed;
- two traced runs, each in a fresh process, give identical counts;
- a tampered expected digest shows up as a failed op, not as a crash.
Prints one line per check and exits 1 if any fails.
"""

import json
import os
import signal
import subprocess
import sys

import run
import tracer

FAILED = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILED.append(what)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def traced_in_fresh_process(workload):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0",
                           "--trace", "1", "--size", "small"],
                          cwd=run.ROOT, capture_output=True, check=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")
    run.load_program()
    for workload in run.WORKLOADS:
        before = tracer.snapshot()
        _, plain = run.run_workload(workload, 1, 0, 0, "small")
        check(tracer.snapshot() == before,
              "%s: untraced run leaves every attribute as it was" % workload)
        check(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
              and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
              "%s: untraced run stops its sampling timer" % workload)
        check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
              "%s: every op passes its gate" % workload)
        check(units(plain) == want[0], "%s: every end-to-end metric emitted" % workload)
        _, traced = run.run_workload(workload, 1, 0, 1, "small")
        check(tracer.snapshot() == before,
              "%s: traced run restores every attribute" % workload)
        check(units(traced) == want[1], "%s: every per-layer metric emitted" % workload)
        counts = [{name: m["value"] for name, m in r["metrics"].items()
                   if m["unit"] not in ("s", "ratio")}
                  for r in (traced_in_fresh_process(workload) for _ in range(2))]
        check(counts[0] == counts[1] and any(counts[0].values()),
              "%s: two traced runs give identical counts" % workload)

    with open(run.EXPECTED) as fh:
        tampered = json.load(fh)
    tampered["pairs"]["g2"][0] = "0" * 16
    tampered["cli"][" ".join(run.cli_argvs("small")[0])][1] = "0" * 16
    for workload in ("exceptional_session", "cli_batch"):
        _, result = run.run_workload(workload, 1, 0, 0, "small", expected=tampered)
        check(not result["correct"] and result["failed"] == 1,
              "%s: a tampered digest is one failed op" % workload)
    print("selfcheck: %s" % ("FAILED: %d checks" % len(FAILED) if FAILED else "all checks pass"))
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
