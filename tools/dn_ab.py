#!/usr/bin/env python3
"""Compare the verify_all stages of this checkout and another, as paired ratios.

It copies the src/wqalg tree of this checkout and of OTHER_CHECKOUT into a
temporary directory, as the packages wqalg_this and wqalg_other, and runs
the stages of tools/dn_stages.py (stage_seconds) on each, alternately in
this one process: rounds of both checkouts per algebra, the first one in
turn.  An algebra is a D_n rank, e6 or g2, as in dn_stages.py.  The
first round, one call per side, sets two numbers.  Each later round calls
stage_seconds on the two sides in turn, as many times each as fill
ROUND_S seconds and at least once, and averages each stage over the
calls: a stage of a few microseconds is timed over many calls, not one.
Each call builds fresh presets, so no call reads what another stored.
The rounds are as many as fill BUDGET_S seconds, at least MIN_ROUNDS and
at most MAX_ROUNDS.  The first round carries the cold start, so it can
only lower both numbers.  For each algebra and stage it prints the median
over the rounds of the ratio this / other of one round's seconds, the
interquartile range of those ratios, the median seconds per call of each
side and the number of rounds.  A ratio below 1 means this checkout is
faster.  Single runs on a shared host drift by 20-60% from one minute to
the next, while ratios of runs made side by side hold within a few
percent, so compare two checkouts with this, not with two dn_stages.py
runs.  A stage that does not apply to an algebra (build_t2 on
E6) has no line.

It exits 1, naming the checkout, algebra and stage on stderr, when a
verifier does not pass in either checkout.

Usage: python3 tools/dn_ab.py OTHER_CHECKOUT [ALGEBRA ...]   e.g. ../parent 32 64 g2
(default: 32).  Standard library only; both checkouts must export the
calls dn_stages.py imports from wqalg.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET_S = 5.0
# five rounds gave ratio IQRs of 0.05-0.58 at d16-d32 on a shared 2-vCPU
# host; the cap keeps a d4 run, some 6 ms a round, to a fraction of a second
MIN_ROUNDS, MAX_ROUNDS = 5, 51
# timed once a round, the g2 stages of 9-700 us a call gave ratio IQRs of
# 0.04-0.26 over 51 rounds on a shared 2-vCPU host, and about half that when a
# round repeats them to fill 20 ms; an e6 round, some 13 ms, is not repeated
ROUND_S = 0.02
SIDES = ("this", "other")


def _stages_module(package: str):
    """A fresh copy of tools/dn_stages.py whose wqalg calls are those of package."""
    spec = importlib.util.spec_from_file_location("dn_stages_" + package,
                                                  os.path.join(HERE, "tools", "dn_stages.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    program = importlib.import_module(package)
    for name in ("bracket_sum", "build_preset", "build_t1", "build_t2", "verify_all",
                 "verify_cartan", "verify_closure"):
        setattr(module, name, getattr(program, name))
    return module


def paired_ratios(modules: dict, algebra: tuple, failures: list) -> dict:
    """{side: [seconds per call of each stage] per round} for one algebra, the sides
    alternating first.

    algebra is (label, kind, n), from dn_stages.algebra.  The first round's
    time sets the calls per round and the number of rounds (see the module
    notes).  A stage that does not pass adds (side, label, stage, failure)
    to failures.
    """
    runs = {side: [] for side in SIDES}
    name, kind, n = algebra

    def one_round(r, calls):
        each = {side: [] for side in SIDES}
        for _ in range(calls):
            for side in SIDES[::-1] if r % 2 else SIDES:
                found = []
                each[side].append(modules[side].stage_seconds(kind, n, found))
                failures.extend((side, name, stage, failure) for stage, failure in found)
        for side, times in each.items():
            runs[side].append([None if col[0] is None else sum(col) / calls
                               for col in zip(*times)])

    start = time.perf_counter()
    one_round(0, 1)
    seconds = time.perf_counter() - start
    calls = max(1, int(ROUND_S / seconds))
    fill = int(BUDGET_S / (calls * seconds))
    for r in range(1, max(MIN_ROUNDS, min(MAX_ROUNDS, fill))):
        one_round(r, calls)
    return runs


def summary(this: list, other: list) -> tuple:
    """(median ratio, IQR of the ratios, median this, median other) of paired seconds."""
    ratios = [a / b for a, b in zip(this, other)]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return statistics.median(ratios), q3 - q1, statistics.median(this), statistics.median(other)


def _usage() -> int:
    print("usage: dn_ab.py OTHER_CHECKOUT [ALGEBRA ...]   (a checkout with src/wqalg; "
          "each ALGEBRA a rank N >= 4, e6 or g2)", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[1:] or ["32"]
    if not argv or not os.path.isdir(os.path.join(argv[0], "src", "wqalg")):
        return _usage()
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in zip(SIDES, (HERE, argv[0])):
            shutil.copytree(os.path.join(root, "src", "wqalg"),
                            os.path.join(tmp, "wqalg_" + side),
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            modules = {side: _stages_module("wqalg_" + side) for side in SIDES}
        finally:
            sys.path.remove(tmp)
        algebras = [modules["this"].algebra(a) for a in names]
        if None in algebras:
            return _usage()
        stages = modules["this"].STAGES
        print("%-6s %-16s %10s %10s %10s %10s %6s"
              % ("rank", "stage", "ratio", "ratio_iqr", "this_s", "other_s", "rounds"))
        failures = []
        for algebra in algebras:
            label, runs = algebra[0], paired_ratios(modules, algebra, failures)
            for i, stage in enumerate(stages):
                if runs["this"][0][i] is None:
                    continue
                row = summary([r[i] for r in runs["this"]], [r[i] for r in runs["other"]])
                print("%-6s %-16s %10.3f %10.3f %10.6f %10.6f %6d"
                      % (label, stage, *row, len(runs["this"])), flush=True)
        for side, name, stage, failure in dict.fromkeys(failures):
            print("%s %s did not pass in the %s checkout: %s" % (name, stage, side, failure),
                  file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
