#!/usr/bin/env python3
"""Build and check D_n presets at the given ranks, one line per rank.

For each rank n it prints the seconds of build_preset("dn", n) and of
verify_all on that preset with its verdict, the process's peak RSS so far
as verify_all returns (verify_rss_mb), the verdicts of the two power-of-two
oracles of tests/oracle.py (the Cartan identity and the pair table's closed
forms, each with its K), and the peak RSS so far after them (rss_mb).  Past
d512 the oracles, not verify_all, set rss_mb; verify_rss_mb is the peak of
the build and verify_all alone.
This is the large-rank check (d128 and past it) kept out of the test suite.

Usage: python3 tools/dn_ranks.py N [N ...]   e.g. 127 128 255 256 512
Run it from a checkout; it imports wqalg from src/ and the oracles from
tests/.  Standard library only.  d512 takes about 50 s and 0.35 GB, d1024
about 5 minutes and 2.2 GB.
"""

from __future__ import annotations

import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from oracle import cartan_identity_at_two_to_the_k, pair_table_at_two_to_the_k  # noqa: E402
from wqalg import build_preset, verify_all  # noqa: E402


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not all(a.isdigit() and int(a) >= 4 for a in argv):
        print("usage: dn_ranks.py N [N ...]   (each N >= 4)", file=sys.stderr)
        return 2
    print("%-6s %9s %12s %-6s %13s %-10s %-10s %8s"
          % ("rank", "build_s", "verify_all_s", "passed", "verify_rss_mb", "cartan@2^K",
             "pairs@2^K", "rss_mb"))
    ok = True
    for n in map(int, argv):
        preset, build_s = _timed(build_preset, "dn", n)
        outcome, verify_s = _timed(verify_all, preset)
        verify_rss_mb = _peak_rss_mb()
        cartan, cartan_k = cartan_identity_at_two_to_the_k(preset)
        pairs, pairs_k = pair_table_at_two_to_the_k(preset)
        ok = ok and outcome.passed and cartan and pairs
        print("d%-5d %9.3f %12.3f %-6s %13.1f %-10s %-10s %8.1f"
              % (n, build_s, verify_s, outcome.passed, verify_rss_mb,
                 "%s K=%d" % (cartan, cartan_k), "%s K=%d" % (pairs, pairs_k), _peak_rss_mb()),
              flush=True)
        del preset, outcome
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
