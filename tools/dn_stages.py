#!/usr/bin/env python3
"""Time the stages of verify_all on D_n, E6 and G2 presets, one line per algebra.

Each argument names an algebra: a rank n >= 4 for d<n>, or e6 or g2.  For
each it prints the seconds of build_preset, then on that preset of
verify_cartan, of the first read of m_parity, of bracket_sum(T1, T1) and
of build_t2, and then of verify_closure and of verify_all, each on a new
build of the preset, so that neither reads a split the bracket before it
has stored.  The last column is the process's peak RSS so far.
The m_parity column reads the Cartan residual
(AlgebraPreset.cartan_residual) that the verify_cartan column computed,
and derives the parity of M from it.  bracket_sum reads the m_parity timed
before it, and that residual, whose lowering steps it derives its splits
along; verify_closure and
verify_all compute their own, so the verify_closure column includes the
residual.  The bracket_sum column times the accumulation only: the report
holds each delta series as a pair sum and builds it when it is read, and
verify_closure on D_n builds neither C(-2) nor T2 (it compares their pair
sums), so the build_t2 column is a stage that verify_closure runs only on
a mismatch.  E6 has no closed-form T2 (its closure spec has no pair rule),
so its build_t2 column reads "-".  It exits 1, naming the algebra and the
stage on stderr, when verify_cartan, verify_closure or verify_all does not
pass.

Usage: python3 tools/dn_stages.py ALGEBRA [ALGEBRA ...]   e.g. 64 128 256 e6 g2
Run it from a checkout; it imports wqalg from src/.  Standard library and
the public wqalg calls only.  Single raw runs: on a shared host, repeat an
algebra and read the spread before comparing two checkouts.
"""

from __future__ import annotations

import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from wqalg import (bracket_sum, build_preset, build_t1, build_t2, verify_all,  # noqa: E402
                   verify_cartan, verify_closure)

STAGES = ("build", "verify_cartan", "m_parity", "bracket_sum", "build_t2",
          "verify_closure", "verify_all")


def algebra(arg: str):
    """(label, kind, n) for the algebra arg names, build_preset(kind, n); None if none."""
    if arg in ("e6", "g2"):
        return arg, arg, None
    if arg.isdigit() and int(arg) >= 4:
        return "d%d" % int(arg), "dn", int(arg)
    return None


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _verified(failures, stage, verify, preset):
    """The seconds of verify(preset); a failed outcome adds (stage, failure) to failures."""
    start = time.perf_counter()
    outcome = verify(preset)
    seconds = time.perf_counter() - start
    if not outcome.passed:
        failures.append((stage, outcome.failure))
    return seconds


def stage_seconds(kind: str, n: int | None, failures: list) -> list:
    """The seconds of each of STAGES on build_preset(kind, n), in that order.

    build_t2 is None where the closure spec has no T2 pair rule (E6).  Each
    verifier stage that does not pass adds (stage, failure) to failures.
    """
    start = time.perf_counter()
    preset = build_preset(kind, n)
    times = [time.perf_counter() - start,
             _verified(failures, "verify_cartan", verify_cartan, preset),
             _seconds(lambda: preset.m_parity)]
    t1 = build_t1(preset)
    times += [_seconds(bracket_sum, t1, t1, preset),
              _seconds(build_t2, preset) if preset.closure.t2_pairs else None]
    del preset, t1
    for stage, verify in ("verify_closure", verify_closure), ("verify_all", verify_all):
        times.append(_verified(failures, stage, verify, build_preset(kind, n)))
    return times


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    algebras = [algebra(a) for a in argv]
    if not argv or None in algebras:
        print("usage: dn_stages.py ALGEBRA [ALGEBRA ...]   (each a rank N >= 4, e6 or g2)",
              file=sys.stderr)
        return 2
    print("%-6s" % "rank" + "".join(" %14s" % s for s in STAGES) + " %8s" % "rss_mb")
    ok = True
    for name, kind, n in algebras:
        failures = []
        times = stage_seconds(kind, n, failures)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("%-6s" % name + "".join(" %14s" % "-" if s is None else " %14.6f" % s
                                      for s in times) + " %8.1f" % rss_mb, flush=True)
        for stage, failure in failures:
            print("%s %s did not pass: %s" % (name, stage, failure), file=sys.stderr)
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
