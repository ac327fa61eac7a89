"""Per-layer counters and self times, recorded by wrappers around wqalg callables.

The wrappers exist only while a Tracer is installed.  A callable is wrapped
wherever its name can be looked up: in the defining module or class and in
every wqalg module or class that holds the same object under any name (for
example ``poisson.laurent_divide``, ``cli.verify_all`` or
``LaurentPoly.__rmul__``).  Patching only the defining module would miss
calls made through those imported names.

Self time is a span's duration minus the durations of the spans it caused.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("wqalg", "wqalg.exactfield", "wqalg.rflinalg", "wqalg.algebras",
           "wqalg.genexpr", "wqalg.poisson", "wqalg.cli")

# (span name, defining module, attribute path); a target missing from the
# program is skipped and its counters read 0.
TARGETS = (
    ("exactfield.rf_new", "wqalg.exactfield", "RationalFunction.__init__"),
    ("exactfield.laurent_mul", "wqalg.exactfield", "LaurentPoly.__mul__"),
    ("exactfield.laurent_divide", "wqalg.exactfield", "laurent_divide"),
    ("rflinalg.inverse", "wqalg.rflinalg", "FieldMatrix.inverse"),
    ("rflinalg.matmul", "wqalg.rflinalg", "FieldMatrix.__mul__"),
    ("algebras.build_preset", "wqalg.algebras", "build_preset"),
    ("algebras.verify_cartan", "wqalg.algebras", "verify_cartan"),
    ("genexpr.mono_mul", "wqalg.genexpr", "YMonomial.__mul__"),
    ("genexpr.shift_arg", "wqalg.genexpr", "YMonomial.shift_arg"),
    ("genexpr.build_series", "wqalg.genexpr", "build_t1"),
    ("genexpr.build_series", "wqalg.genexpr", "build_t2"),
    ("genexpr.build_series", "wqalg.genexpr", "build_t5_e6"),
    ("poisson.bracket_sum", "wqalg.poisson", "bracket_sum"),
    ("poisson.symbol", "wqalg.poisson", "symbol"),
    ("poisson.decompose", "wqalg.poisson", "decompose"),
    ("poisson.verify_closure", "wqalg.poisson", "verify_closure"),
    ("poisson.verify_all", "wqalg.poisson", "verify_all"),
    ("cli.main", "wqalg.cli", "main"),
)

SPANS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

TRACE_PREFIX = "PERFBENCH_TRACE "


def pair_table_entries() -> int:
    """Entries in poisson's pair-table cache, or 0 if the program has none."""
    table = getattr(sys.modules.get("wqalg.poisson"), "_pair_table", None)
    info = getattr(table, "cache_info", None)
    return info().currsize if info is not None else 0


def _owners():
    """Every wqalg module and every class defined in one, each once."""
    seen, out = set(), []
    for modname in MODULES:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for obj in [mod] + [v for v in vars(mod).values()
                            if inspect.isclass(v) and v.__module__.startswith("wqalg")]:
            if id(obj) not in seen:
                seen.add(id(obj))
                out.append(obj)
    return out


def snapshot():
    """Identity of every attribute of every wqalg module and class."""
    return {(repr(owner), name): id(value)
            for owner in _owners() for name, value in list(vars(owner).items())}


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """Counters and self times for the spans in SPANS, plus a few size maxima."""

    def __init__(self):
        self.count = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.max_den_degree = 0
        self.max_coeff_bits = 0
        self.bracket_pairs = 0
        self._stack = []      # time covered by child spans, one slot per open span
        self._patches = []    # (owner, attribute, original value)

    def _wrap(self, name, fn, after=None):
        stack, count, self_s = self._stack, self.count, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                count[name] += 1
                if after is not None:
                    t1 = perf_counter()
                    after(args)
                    dt += perf_counter() - t1
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_rf_new(self, args):
        rf = args[0]
        den = getattr(rf, "den", None)
        if den is None or not den.terms:
            return
        self.max_den_degree = max(self.max_den_degree, den.max_exp)
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(rf.num), _coeff_bits(den))

    def _after_bracket_sum(self, args):
        self.bracket_pairs += len(args[0]) * len(args[1])

    def install(self):
        for modname in MODULES:
            importlib.import_module(modname)
        owners = _owners()
        hooks = {"exactfield.rf_new": self._after_rf_new,
                 "poisson.bracket_sum": self._after_bracket_sum}
        for name, modname, path in TARGETS:
            obj = sys.modules[modname]
            for part in path.split("."):
                obj = vars(obj).get(part) if obj is not None else None
            if obj is None:
                continue
            wrapper = self._wrap(name, obj, hooks.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is obj:
                        self._patches.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def counters(self) -> dict:
        """Raw counters, mergeable across processes with merge()."""
        return {"count": dict(self.count), "self_s": dict(self.self_s),
                "max_den_degree": self.max_den_degree,
                "max_coeff_bits": self.max_coeff_bits,
                "bracket_pairs": self.bracket_pairs}


def merge(total: dict, part: dict) -> dict:
    """Add the counters of part into total: sums, except maxima for sizes."""
    for key in ("count", "self_s"):
        acc = total.setdefault(key, {})
        for name, v in part[key].items():
            acc[name] = acc.get(name, 0) + v
    for key in ("max_den_degree", "max_coeff_bits"):
        total[key] = max(total.get(key, 0), part[key])
    total["bracket_pairs"] = total.get("bracket_pairs", 0) + part["bracket_pairs"]
    return total
