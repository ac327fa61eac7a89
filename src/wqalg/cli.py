"""Command-line front end.

Exit status: 0 on success/verified, 1 on mathematical mismatch, 2 on usage
errors, an unwritable --out path included.  Output is deterministic:
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .algebras import build_preset, verify_cartan
from .genexpr import build_t2
from .poisson import ClosureOutcome, decompose, dual_identity, symbol, verify_all, verify_closure

SCHEMA = 1


class _UsageError(Exception):
    pass


def _add_common(p):
    p.add_argument("--algebra", required=True, choices=["dn", "e6", "g2"])
    p.add_argument("--n", type=int, default=None,
                   help="rank parameter, required for --algebra dn")
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p.add_argument("--out", default=None, help="write the report to a file")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="wqalg",
        description="Exact bracket and matrix verification for the dn/e6/g2 presets")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (doc, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "bracket":
            p.add_argument("--i", type=int, required=True)
            p.add_argument("--j", type=int, required=True)
    return ap


def _get_preset(args):
    if args.algebra == "dn" and args.n is None:
        raise _UsageError("--algebra dn requires --n")
    if args.algebra != "dn" and args.n is not None:
        raise _UsageError("--n is only valid with --algebra dn")
    try:
        return build_preset(args.algebra, args.n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit(args, text_lines, json_obj, latex_lines=None):
    if args.format == "json":
        import json
        payload = {"schema": SCHEMA}
        payload.update(json_obj)
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "latex":
        body = "\n".join(latex_lines if latex_lines is not None else text_lines) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            reason = exc.strerror or exc
            raise _UsageError("cannot write %s: %s" % (args.out, reason)) from None
    else:
        sys.stdout.write(body)


def _emit_outcome(args, preset):
    """Run verify-cartan, closure or verify-all and print its verdict; return the exit status."""
    # read from the module globals on each call, so a patched verifier is the one run
    verify = {"verify-cartan": verify_cartan, "closure": verify_closure,
              "verify-all": verify_all}[args.command]
    outcome = verify(preset)
    lines = ["%s %s: %s" % (args.command, preset.name, "PASS" if outcome.passed else "FAIL")]
    lines += outcome.details
    if outcome.failure:
        prefix = "first failure: " if args.command == "verify-all" else "mismatch: "
        lines.append(prefix + outcome.failure)
    obj = {"algebra": preset.name, "passed": outcome.passed,
           "details": outcome.details, "failure": outcome.failure}
    latex = None
    if isinstance(outcome, ClosureOutcome):
        report = outcome.report
        obj["report"] = report.to_json() if report is not None else None
        if report is not None:
            lines += ["", report.to_text()]
            latex = [report.to_latex()]
    _emit(args, lines, obj, latex)
    return 0 if outcome.passed else 1


def _cmd_matrices(args, preset):
    names = [("M", preset.M), ("D", preset.D), ("Mtilde", preset.expected_mtilde)]
    _emit(args,
          sum((["%s(t):" % k, str(m), ""] for k, m in names), []),
          {"algebra": preset.name, **{k: m.to_json() for k, m in names}},
          sum((["%s(t) =" % k, m.to_latex(), ""] for k, m in names), []))
    return 0


def _cmd_lambda(args, preset):
    lines = ["Lambda_%d(z) = %s" % (i, m)
             for i, m in enumerate(preset.lambdas, start=1)]
    _emit(args, lines,
          {"algebra": preset.name,
           "lambdas": [m.to_json() for m in preset.lambdas]},
          ["\\Lambda_{%d}(z) = %s" % (i, m.to_latex())
           for i, m in enumerate(preset.lambdas, start=1)])
    return 0


def _cmd_bracket(args, preset):
    k = len(preset.lambdas)
    if not (1 <= args.i <= k and 1 <= args.j <= k):
        raise _UsageError("monomial indices must lie in 1..%d" % k)
    a, b = preset.lambdas[args.i - 1], preset.lambdas[args.j - 1]
    s = symbol(a, b, preset)
    dec = decompose(s, preset)
    deltas = dec.sorted_deltas()
    lines = [
        "pair (%d, %d): %s  |  %s" % (args.i, args.j, a, b),
        "symbol(t) = %s" % s,
        "base coefficient (times M_11): %s" % dec.base_coeff,
        "deltas: " + (", ".join("Delta(%+d): %s" % (sh, c) for sh, c in deltas)
                      if deltas else "none"),
    ]
    _emit(args, lines,
          {"algebra": preset.name, "i": args.i, "j": args.j,
           "symbol": s.to_json(),
           "baseCoeff": [dec.base_coeff.numerator, dec.base_coeff.denominator],
           "deltas": [{"shift": sh, "coeff": [c.numerator, c.denominator]}
                      for sh, c in deltas]})
    return 0


def _cmd_dual(args, preset):
    try:
        label, t1_dual, ok = dual_identity(preset)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    lines = ["dual %s: %s" % (preset.name, "PASS" if ok else "FAIL"),
             "dual_transform(T1) = %s(zq^12): %s" % (label, ok)]
    _emit(args, lines, {"algebra": preset.name, "passed": ok,
                        "identity": "dual_transform(T1) = %s(zq^12)" % label,
                        "t1Dual": t1_dual.to_json()})
    return 0 if ok else 1


def _cmd_emit_t2(args, preset):
    if preset.closure.t2_pairs is None:
        outcome = verify_closure(preset)
        if not outcome.passed:
            lines = ["emit-t2 %s: FAIL" % preset.name, "mismatch: %s" % outcome.failure]
            _emit(args, lines, {"algebra": preset.name, "passed": False,
                                "failure": outcome.failure})
            return 1
        derived = outcome.derived
        counts = {str(k): v for k, v in sorted(derived.coefficient_counts.items())}
        lines = ["derived T2 for %s (delta shift %+d): %d distinct terms, "
                 "coefficient counts %s" % (preset.name, derived.shift, derived.term_count, counts),
                 str(derived.series)]
        _emit(args, lines,
              {"algebra": preset.name, "shift": derived.shift,
               "termCount": derived.term_count, "coefficientCounts": counts,
               "series": derived.series.to_json()})
        return 0
    t2 = build_t2(preset)
    lines = ["T2 for %s: %d distinct terms" % (preset.name, len(t2)), str(t2)]
    _emit(args, lines, {"algebra": preset.name, "termCount": len(t2),
                        "series": t2.to_json()})
    return 0


# name -> (help, handler), in --help order; the parser and main both read it
_COMMANDS = {
    "matrices": ("print the preset matrices M, D and the deformed Cartan matrix",
                 _cmd_matrices),
    "verify-cartan": ("check D M^-1 D against the deformed Cartan matrix",
                      _emit_outcome),
    "lambda": ("print the fundamental-series monomial table", _cmd_lambda),
    "bracket": ("decompose the bracket symbol of one monomial pair", _cmd_bracket),
    "closure": ("bracket T1 with itself and verify every delta coefficient",
                _emit_outcome),
    "dual": ("check the dual transform identity on T1", _cmd_dual),
    "emit-t2": ("print the second series (derived from the closure for e6)",
                _cmd_emit_t2),
    "verify-all": ("run the full verification suite", _emit_outcome),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][1](args, _get_preset(args))
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
