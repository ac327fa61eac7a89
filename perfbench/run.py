#!/usr/bin/env python3
"""wqalg benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
Every op's result passes a correctness gate, and a failed gate is counted,
never fatal.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("dn_scale", "exceptional_session", "cli_batch")
DN_SIZES = {"full": (16, 24, 32), "small": (4, 5)}
SESSION_ALGEBRAS = {"full": ("e6", "g2"), "small": ("g2",)}
CLI_ALGEBRAS = {"full": (("g2",), ("e6",), ("dn", "4"), ("dn", "6")), "small": (("g2",),)}
CLI_COMMANDS = ("matrices", "verify-cartan", "lambda", "bracket", "closure", "dual",
                "emit-t2", "verify-all")
CLI_FORMATS = ("text", "json", "latex")
SETUP_REPEATS = 9
# Passes in a traced run: fixed, so that two traced runs count the same work.
TRACE_PASSES = {"dn_scale": 1, "exceptional_session": 2, "cli_batch": 1}
MAX_REPORTED_FAILURES = 10
# Untraced runs read peak RSS after this many passes, so that it does not
# depend on how many passes the host's speed let into --seconds.
RSS_PASSES = {"dn_scale": 1, "exceptional_session": 20, "cli_batch": 1}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_program():
    """Import wqalg from this checkout's src/, or exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "wqalg", "__init__.py")):
        sys.exit("perfbench: no program at %s/wqalg" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module("wqalg." + name)
            for name in ("algebras", "poisson", "cli")}
    if not mods["poisson"].__file__.startswith(SRC + os.sep):
        sys.exit("perfbench: wqalg was imported from %s, not from %s"
                 % (mods["poisson"].__file__, SRC))
    return mods


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def decomposition_digest(dec) -> str:
    return digest([[dec.base_coeff.numerator, dec.base_coeff.denominator],
                   [[a, c.numerator, c.denominator] for a, c in dec.sorted_deltas()]])


def cli_argvs(size):
    out = []
    for alg in CLI_ALGEBRAS[size]:
        algebra = ["--algebra", alg[0]] + (["--n", alg[1]] if len(alg) > 1 else [])
        for cmd in CLI_COMMANDS:
            if cmd == "dual" and alg[0] == "dn":
                continue   # the dual identity is defined for e6 and g2 only
            extra = ["--i", "1", "--j", "2"] if cmd == "bracket" else []
            out += [[cmd] + algebra + extra + ["--format", fmt] for fmt in CLI_FORMATS]
    return out


def run_cli(argv, traced):
    """One fresh interpreter per invocation: (exit status, stdout bytes, trace or None)."""
    head = [os.path.join(HERE, "cli_child.py")] if traced else ["-m", "wqalg.cli"]
    proc = subprocess.run([sys.executable] + head + argv, cwd=ROOT, env=_env(),
                          capture_output=True, check=False)
    trace = None
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith(tracer.TRACE_PREFIX):
            trace = json.loads(line[len(tracer.TRACE_PREFIX):])
    return proc.returncode, proc.stdout, trace


class Run:
    """Latencies, gate results and CLI child traces of one benchmark run."""

    def __init__(self, mods, rng, size, expected):
        self.mods, self.rng, self.size, self.expected = mods, rng, size, expected
        self.cli_traced = False
        self.speed = None       # a Speedometer while an untraced run samples host speed
        self.spans = []         # (start, end) of every op
        self.passes = []        # (first op, end op) index range of every pass
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.child_trace = tracer.Tracer().counters()
        self.child_pair_table_entries = 0
        self.stdout_bytes = 0

    def op(self, label, fn, gate):
        """Time fn(), then gate its result; an exception or a false gate is a failure."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:   # a failing op is counted, never fatal
            self.spans.append((t0, perf_counter()))
            self._fail(label, "raised %s: %s" % (type(exc).__name__, exc))
            return None
        self.spans.append((t0, perf_counter()))
        try:
            ok = gate(result)
        except Exception as exc:
            ok = False
            label += " (gate raised %s: %s)" % (type(exc).__name__, exc)
        if not ok:
            self._fail(label, "result failed its gate")
        return result

    def _fail(self, label, why):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print("perfbench: FAILED %s: %s" % (label, why), file=sys.stderr)

    def timed_pass(self, workload):
        """One pass as measured, in seconds; its ops' index range goes to self.passes."""
        first = len(self.spans)
        t0 = perf_counter()
        PASSES[workload](self)
        elapsed = perf_counter() - t0
        self.passes.append((first, len(self.spans)))
        return elapsed


def dn_pass(run):
    algebras, poisson = run.mods["algebras"], run.mods["poisson"]
    for n in DN_SIZES[run.size]:
        def verify_fresh(n=n):
            t0 = perf_counter()
            preset = algebras.build_preset("dn", n)
            t1 = perf_counter()
            out = poisson.verify_all(preset)
            run.notes.append(("d%d" % n, t1 - t0, perf_counter() - t1))
            return out
        run.op("verify_all d%d" % n, verify_fresh, lambda out: out.passed is True)


def session_round(run):
    algebras, poisson = run.mods["algebras"], run.mods["poisson"]
    presets = {}
    for alg in SESSION_ALGEBRAS[run.size]:
        presets[alg] = run.op("build_preset " + alg, lambda alg=alg: algebras.build_preset(alg),
                              lambda p, alg=alg: p.name == alg)
    sizes = {alg: math.isqrt(len(run.expected["pairs"][alg])) for alg in presets}
    queries = [(alg, None, None) for alg in presets]
    queries += [(alg, i, j) for alg, k in sizes.items() for i in range(k) for j in range(k)]
    run.rng.shuffle(queries)
    for alg, i, j in queries:
        p = presets[alg]
        if i is None:
            run.op("verify_all " + alg, lambda p=p: poisson.verify_all(p),
                   lambda out: out.passed is True)
            continue
        want = run.expected["pairs"][alg][i * sizes[alg] + j]
        run.op("pair %s (%d, %d)" % (alg, i + 1, j + 1),
               lambda p=p, i=i, j=j: poisson.decompose(
                   poisson.symbol(p.lambdas[i], p.lambdas[j], p), p),
               lambda dec, want=want: decomposition_digest(dec) == want)


def _cli_gate(run, key):
    def gate(result):
        rc, stdout, trace = result
        run.stdout_bytes += len(stdout)
        if trace is not None:
            tracer.merge(run.child_trace, trace)
            run.child_pair_table_entries = max(run.child_pair_table_entries,
                                               trace["pair_table_entries"])
        ok = [rc, digest(stdout)] == run.expected["cli"][key]
        if key == "emit-t2 --algebra e6 --format json":
            # The derived E6 second series: 351 terms, 324 at +1 and 27 at +2.
            t2 = json.loads(stdout)
            ok = ok and t2["termCount"] == 351 and t2["coefficientCounts"] == {"1": 324, "2": 27}
        return ok
    return gate


def cli_pass(run):
    argvs = cli_argvs(run.size)
    run.rng.shuffle(argvs)
    for argv in argvs:
        key = " ".join(argv)
        run.op("wqalg " + key, lambda argv=argv: run_cli(argv, run.cli_traced),
               _cli_gate(run, key))


PASSES = {"dn_scale": dn_pass, "exceptional_session": session_round, "cli_batch": cli_pass}


def measure_setup(workload, size, speed):
    """Median over SETUP_REPEATS fresh processes of the work before the first op.

    Library workloads: a cold ``import wqalg`` plus build_preset for every
    preset the workload uses, timed inside the child.  cli_batch: the wall
    time of a bare ``python -c "import wqalg.cli"`` process.  Each time is
    scaled by the reference samples taken while its child ran.
    """
    if workload == "cli_batch":
        argv = [sys.executable, "-c", "import wqalg.cli"]
    else:
        presets = ([("dn", n) for n in DN_SIZES[size]] if workload == "dn_scale"
                   else [(alg, None) for alg in SESSION_ALGEBRAS[size]])
        argv = [sys.executable, "-c",
                "import time\nt0 = time.perf_counter()\nimport wqalg\n"
                "for kind, n in %r:\n    wqalg.algebras.build_preset(kind, n)\n"
                "print(time.perf_counter() - t0)\n" % (presets,)]
    times = []
    speed.arm()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, check=True)
            t1 = perf_counter()
            took = float(proc.stdout) if proc.stdout.strip() else t1 - t0
            times.append(took * speed.scaled(t0, t1, concurrent=True) / (t1 - t0))
    finally:
        speed.disarm()
    return statistics.median(times)


def percentiles(xs):
    """(p50, p90, samples beyond p90)."""
    if len(xs) < 2:
        return xs[0], xs[0], 0
    p90 = statistics.quantiles(xs, n=10, method="inclusive")[8]
    return statistics.median(xs), p90, sum(x > p90 for x in xs)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, size="full", expected=None):
    """Run one workload; returns (summary lines, result object)."""
    mods = load_program()
    if expected is None:
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    lines = ["workload %s  seed %d  trace %d  size %s  python %s  cpus %s"
             % (workload, seed, trace, size, sys.version.split()[0], os.cpu_count())]
    run = Run(mods, random.Random(seed), size, expected)
    if trace:
        metrics = _traced(run, workload, lines)
    else:
        metrics = _untraced(run, workload, seconds, size, lines)
    lines.append("ops attempted %d  failed %d  fail_ratio %.6g"
                 % (run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    for name, (value, unit) in metrics.items():
        lines.append("%-34s %.6g %s" % (name, value, unit))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def _untraced(run, workload, seconds, size, lines):
    """Times scaled to reference host speed (hostspeed.py); RSS as measured."""
    speed = hostspeed.Speedometer()
    setup_s = measure_setup(workload, size, speed)
    run.speed = hostspeed.Speedometer()
    walls, rss = [], None
    run.speed.arm()
    try:
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            walls.append(run.timed_pass(workload))
            if len(walls) == RSS_PASSES[workload]:
                rss = peak_rss_mb(workload)
    finally:
        run.speed.disarm()
    in_child = workload == "cli_batch"
    ops = [run.speed.scaled(t0, t1, concurrent=in_child) for t0, t1 in run.spans]
    pass_s = [sum(ops[i:j]) for i, j in run.passes]
    p50, p90, beyond = percentiles(ops)
    lines.append("passes %d  op samples %d  samples beyond p90 %d%s"
                 % (len(walls), len(ops), beyond,
                    "  (fewer than 10: percentiles are indicative)" if beyond < 10 else ""))
    raw_p50, raw_p90, _ = percentiles([t1 - t0 for t0, t1 in run.spans])
    lines.append("as measured: wall_s %.6g  op_p50_s %.6g  op_p90_s %.6g  "
                 "reference samples %d, median %.4g ms against %.4g ms"
                 % (statistics.median(walls), raw_p50, raw_p90, len(run.speed.durations),
                    1e3 * statistics.median(run.speed.durations), 1e3 * hostspeed.REF_S))
    for name, build_s, verify_s in run.notes:
        lines.append("  %s as measured: build_preset %.4f s  verify_all %.4f s"
                     % (name, build_s, verify_s))
    return {"setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(pass_s), "s"),
            "op_p50_s": (p50, "s"),
            "op_p90_s": (p90, "s"),
            "peak_rss_mb": (rss if rss is not None else peak_rss_mb(workload), "MB")}


COUNTED = ("exactfield.rf_new", "exactfield.laurent_mul", "exactfield.laurent_divide",
           "rflinalg.inverse", "rflinalg.matmul", "genexpr.mono_mul", "genexpr.shift_arg",
           "poisson.bracket_sum", "poisson.symbol", "poisson.decompose")


def _traced(run, workload, lines):
    """TRACE_PASSES traced passes from a cold process, then as many untraced ones."""
    passes = TRACE_PASSES[workload]
    if workload == "cli_batch":
        run.cli_traced = True
        traced = [run.timed_pass(workload) for _ in range(passes)]
        counters, entries = run.child_trace, run.child_pair_table_entries
        run.cli_traced = False
    else:
        t = tracer.Tracer()
        t.install()
        try:
            traced = [run.timed_pass(workload) for _ in range(passes)]
        finally:
            t.uninstall()
        counters, entries = t.counters(), tracer.pair_table_entries()
    stdout_bytes = run.stdout_bytes
    plain = [run.timed_pass(workload) for _ in range(passes)]
    lines.append("traced passes %d, then untraced passes %d" % (passes, passes))
    metrics = {}
    for name in tracer.SPANS:
        if name in COUNTED:
            metrics[name + ".count"] = (counters["count"][name], "count")
        metrics[name + ".self_s"] = (counters["self_s"][name], "s")
    metrics["exactfield.max_den_degree"] = (counters["max_den_degree"], "degree")
    metrics["exactfield.max_coeff_bits"] = (counters["max_coeff_bits"], "bits")
    metrics["poisson.bracket_pairs"] = (counters["bracket_pairs"], "count")
    metrics["poisson.pair_table_entries"] = (entries, "count")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    return metrics


def record_expected():
    """Write expected.json from the program as it is: only at a commit known correct."""
    mods = load_program()
    algebras, poisson = mods["algebras"], mods["poisson"]
    pairs = {}
    for alg in SESSION_ALGEBRAS["full"]:
        p = algebras.build_preset(alg)
        pairs[alg] = [decomposition_digest(poisson.decompose(poisson.symbol(a, b, p), p))
                      for a in p.lambdas for b in p.lambdas]
    cli = {}
    for argv in cli_argvs("full"):
        rc, stdout, _ = run_cli(argv, traced=False)
        cli[" ".join(argv)] = [rc, digest(stdout)]
    with open(EXPECTED, "w") as fh:
        json.dump({"pairs": pairs, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="shuffles op order; nothing else")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="untraced runs repeat whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs each workload on its smallest inputs (self-check)")
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite perfbench/expected.json from the current program")
    args = ap.parse_args(argv)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
