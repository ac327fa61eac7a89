"""Run one wqalg command under the benchmark's tracer.

Usage: PYTHONPATH=src python3 perfbench/cli_child.py <wqalg arguments...>

Stdout and the exit status are those of ``python -m wqalg.cli`` with the same
arguments.  The trace counters follow on stderr, as one line that starts
with ``tracer.TRACE_PREFIX``.
"""

import json
import sys

import tracer
import wqalg.cli


def main() -> int:
    t = tracer.Tracer()
    t.install()
    try:
        rc = wqalg.cli.main(sys.argv[1:])
    finally:
        t.uninstall()
    sys.stdout.flush()
    payload = t.counters()
    payload["pair_table_entries"] = tracer.pair_table_entries()
    sys.stderr.write(tracer.TRACE_PREFIX + json.dumps(payload) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
