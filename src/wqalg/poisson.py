"""Poisson bracket engine for Y-monomial generating series.

For monomials A(z) = prod_k Y_{i_k}^{e_k}(zq^{a_k}) and
B(w) = prod_l Y_{j_l}^{f_l}(wq^{b_l}) the bracket of logarithms is the
generating distribution of a single rational function, the symbol:

    symbol(A, B)(t) = sum_{k,l} e_k f_l M_{i_k j_l}(t) t^{b_l - a_k},

and {A(z), B(w)} = A(z)B(w) sum_n symbol(q^n) (w/z)^n.

Delta convention, fixed once for every report:

    Delta(a) := delta(q^a w/z),  symbol t^a,  support w = zq^{-a};

so delta(w/zq^k) is Delta(-k) and delta(wq^k/z) is Delta(+k).  A symbol
decomposes uniquely as alpha * M_11(t) + Laurent part because M_11 is not
a Laurent polynomial; the Laurent part is the delta content.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import AlgebraPreset, VerificationOutcome, verify_cartan
from .exactfield import (LaurentPoly, RationalFunction, _int_valued, laurent_divide,
                         laurent_divmod)
from .genexpr import SeriesExpr, YMonomial, build_t1, build_t2, build_t5_e6

log = logging.getLogger(__name__)


class NotDecomposableError(ValueError):
    """No rational alpha makes (symbol - alpha * M_11) a Laurent polynomial."""


class NonUniformBaseError(ValueError):
    """A term pair produced a base coefficient differing from the rest of the sum."""


@dataclass
class DeltaDecomposition:
    base_coeff: Fraction
    deltas: dict[int, Fraction]

    def sorted_deltas(self):
        return sorted(self.deltas.items())


def symbol(a: YMonomial, b: YMonomial, preset: AlgebraPreset) -> RationalFunction:
    """Exact bracket symbol of two monomials over the preset, canonical form."""
    return RationalFunction(_symbol_numerator(a, b, preset), preset.pair_table[0])


def _symbol_numerator(a: YMonomial, b: YMonomial, preset: AlgebraPreset) -> LaurentPoly:
    nums = preset.pair_table[1]
    rank = preset.rank
    acc = {}
    for (i, ash), e in a.items():
        for (j, bsh), f in b.items():
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise ValueError("node index out of range for rank %d" % rank)
            coeff = e * f
            shift = bsh - ash
            for exp, c in nums[i - 1][j - 1].terms.items():
                k = exp + shift
                s = acc.get(k, 0) + coeff * c
                if s:
                    acc[k] = s
                else:
                    del acc[k]
    return LaurentPoly._raw(acc)


def _split_numerator(num: LaurentPoly, preset: AlgebraPreset):
    """(alpha, deltas) with num / Q = alpha * M_11 + sum_e deltas[e] t^e.

    One division with remainder by Q: num = quo * Q + rem.  Since
    alpha * N_11 = alpha * (quo11 * Q + rem11), the split exists iff
    rem = alpha * rem11, and then the delta part is quo - alpha * quo11.
    The arithmetic stays in ints wherever the coefficients are integral;
    alpha and the nonzero deltas are ints when integral, else Fractions.
    """
    q = preset.pair_table[0]
    quo11, rem11 = preset.m11_split
    if not rem11:
        raise ValueError("M_11 of %s is a Laurent polynomial; "
                         "delta decompositions would not be unique" % preset.name)
    quo, rem = laurent_divmod(num, q)
    top = max(rem11)
    alpha = Fraction(rem.get(top, 0), rem11[top])
    alpha = alpha.numerator if alpha.denominator == 1 else alpha
    if rem != ({e: alpha * c for e, c in rem11.items()} if alpha else {}):
        raise NotDecomposableError(
            "no rational base coefficient leaves a pure delta part for symbol (%s)/(%s)"
            % (num, q))
    deltas = {e: quo.get(e, 0) - alpha * quo11.get(e, 0) for e in quo.keys() | quo11.keys()}
    return alpha, _int_valued({e: c for e, c in sorted(deltas.items()) if c})


def _decompose_numerator(num: LaurentPoly, preset: AlgebraPreset) -> DeltaDecomposition:
    """Decompose num / Q as alpha * M_11 + (Laurent delta part), as Fractions."""
    alpha, deltas = _split_numerator(num, preset)
    return DeltaDecomposition(Fraction(alpha), {e: Fraction(c) for e, c in deltas.items()})


def decompose(s: RationalFunction, preset: AlgebraPreset) -> DeltaDecomposition:
    """Unique splitting of a bracket symbol into alpha * M_11 plus delta terms.

    s = alpha * M_11 + L with L Laurent forces den(s) | Q, so the symbol is
    brought onto the denominator Q and split by one division with remainder.
    Raises NotDecomposableError when no rational alpha works, which signals
    a wrong monomial table or a wrong convention.
    """
    cofactor = laurent_divide(preset.pair_table[0], s.den)
    if cofactor is None:
        raise NotDecomposableError("symbol %s does not decompose over %s"
                                   % (s, preset.name))
    return _decompose_numerator(s.num * cofactor, preset)


@dataclass
class BracketReport:
    """Result of a bracketed pair of series: base times M_11 plus delta terms.

    delta_terms maps shift a to C_a(z), the coefficient of Delta(a) after the
    substitution w = zq^{-a}.
    """
    algebra: str
    base_coeff: Fraction
    delta_terms: dict[int, SeriesExpr]

    @property
    def shifts(self):
        return sorted(self.delta_terms)

    def antisymmetry_ok(self):
        """(ok, message): every C_a must pair with C_{-a} = -shift_arg(C_a, a)."""
        for a, series in sorted(self.delta_terms.items()):
            partner = self.delta_terms.get(-a)
            if partner is None:
                return False, "shift %d has no partner at %d" % (a, -a)
            if partner != -series.shift_arg(a):
                return False, "shift %d breaks the antisymmetry pairing" % a
        return True, None

    def nonunit_terms(self):
        out = []
        for a, series in sorted(self.delta_terms.items()):
            for m, c in series.sorted_terms():
                if c not in (1, -1):
                    out.append((a, m, c))
        return out

    def to_json(self):
        return {
            "algebra": self.algebra,
            "baseCoeff": [self.base_coeff.numerator, self.base_coeff.denominator],
            "deltas": [{"shift": a, "series": s.to_json()}
                       for a, s in sorted(self.delta_terms.items())],
        }

    def to_text(self):
        lines = ["{T(z), S(w)} = %s * MM_11(w/z) T(z)S(w) + delta terms:"
                 % self.base_coeff]
        for a, series in sorted(self.delta_terms.items()):
            name = "delta(w/zq^%d)" % -a if a < 0 else (
                "delta(wq^%d/z)" % a if a > 0 else "delta(w/z)")
            lines.append("  Delta(%+d) = %s:  %s" % (a, name, series))
        return "\n".join(lines)

    def to_latex(self):
        parts = ["%s\\,\\mathcal{M}_{11}(w/z)\\,T(z)S(w)" % self.base_coeff]
        for a, series in sorted(self.delta_terms.items()):
            arg = "w/zq^{%d}" % -a if a < 0 else ("wq^{%d}/z" % a if a > 0 else "w/z")
            parts.append("\\delta\\!\\left(%s\\right)\\left[%s\\right]" % (arg, series))
        return " + ".join(parts)


def bracket_sum(t_series: SeriesExpr, s_series: SeriesExpr,
                preset: AlgebraPreset) -> BracketReport:
    """Bracket two monomial sums; all pairs must share one base coefficient.

    Each term pair (m_i, m_j) with coefficients (u, v) contributes
    u*v*c * m_i * shift_arg(m_j, -a) to C_a for every delta (a, c) of its
    symbol decomposition.  Delta series that cancel to zero are pruned.
    """
    base = None
    acc: dict[int, dict[YMonomial, int | Fraction]] = {}
    # accumulate in ints wherever the coefficients are integral
    t_terms = _int_valued(dict(t_series.sorted_terms())).items()
    s_terms = _int_valued(dict(s_series.sorted_terms())).items()
    for mi, u in t_terms:
        for mj, v in s_terms:
            num = _symbol_numerator(mi, mj, preset)
            try:
                alpha, deltas = _split_numerator(num, preset)
            except NotDecomposableError as exc:
                raise NotDecomposableError(
                    "pair (%s, %s): %s" % (mi, mj, exc)) from None
            if base is None:
                base = alpha
            elif alpha != base:
                raise NonUniformBaseError(
                    "pair (%s, %s) has base %s, expected %s"
                    % (mi, mj, alpha, base))
            uv = u * v
            for a, c in deltas.items():
                series = acc.setdefault(a, {})
                key = mi * mj.shift_arg(-a)
                s = series.get(key, 0) + uv * c
                if s:
                    series[key] = s
                else:
                    del series[key]
    delta_terms = {a: SeriesExpr._raw({m: Fraction(c) for m, c in d.items()})
                   for a, d in acc.items() if d}
    report = BracketReport(algebra=preset.name, base_coeff=Fraction(base or 0),
                           delta_terms=delta_terms)
    nonunit = report.nonunit_terms()
    if nonunit:
        # informational: verify_closure matches every coefficient against its series
        log.info("%s bracket: %d delta-series coefficients are not +-1 "
                 "(first: shift %d, coefficient %s)",
                 preset.name, len(nonunit), nonunit[0][0], nonunit[0][2])
    return report


@dataclass
class DerivedSeries:
    shift: int
    series: SeriesExpr
    term_count: int
    coefficient_counts: dict[Fraction, int]


def extract_t2_e6(report: BracketReport) -> DerivedSeries:
    """The derived E6 second series: the magnitude-2 delta coefficient.

    The carrying shift is the one whose series has all-positive coefficients;
    non-unit coefficients are reported at warn level (they arise when distinct
    weight vectors share a monomial).
    """
    for shift in (-2, 2):
        series = report.delta_terms.get(shift)
        if series is not None and all(c > 0 for c in series.terms.values()):
            counts: dict[Fraction, int] = {}
            for c in series.terms.values():
                counts[c] = counts.get(c, 0) + 1
            if set(counts) != {Fraction(1)}:
                log.warning("derived series at shift %d has non-unit coefficients: %s",
                            shift, {str(k): v for k, v in sorted(counts.items())})
            return DerivedSeries(shift=shift, series=series,
                                 term_count=len(series), coefficient_counts=counts)
    raise NotDecomposableError("no magnitude-2 delta series with positive coefficients")


@dataclass
class ClosureOutcome:
    passed: bool
    details: list[str] = field(default_factory=list)
    failure: str | None = None
    report: BracketReport | None = None
    derived_t2: SeriesExpr | None = None
    t2_shift: int | None = None


def _check(outcome: ClosureOutcome, ok: bool, good: str, bad: str) -> bool:
    if ok:
        outcome.details.append(good)
    else:
        outcome.passed = False
        if outcome.failure is None:
            outcome.failure = bad
    return ok


def _match_series(outcome, report, shift, expected, label):
    got = report.delta_terms.get(shift, SeriesExpr.zero())
    if got == expected:
        outcome.details.append("C(%+d) = %s" % (shift, label))
        return True
    keys = sorted(set(got.terms) | set(expected.terms), key=YMonomial.sort_key)
    first = next(m for m in keys if got.terms.get(m, 0) != expected.terms.get(m, 0))
    outcome.passed = False
    if outcome.failure is None:
        outcome.failure = ("shift %+d: expected %s; first differing monomial %s "
                           "(got %s, want %s)"
                           % (shift, label, first,
                              got.terms.get(first, 0), expected.terms.get(first, 0)))
    return False


def verify_closure(preset: AlgebraPreset) -> ClosureOutcome:
    """Bracket the first series with itself and match every delta coefficient.

    D_n and G_2 compare against their displayed second series; E6 records its
    second series as derived output and matches the magnitude-8 coefficients
    against the dual-transform construction.  The orientation of each delta
    pair is computed, never assumed.
    """
    t1 = build_t1(preset)
    try:
        report = bracket_sum(t1, t1, preset)
    except (NotDecomposableError, NonUniformBaseError) as exc:
        return ClosureOutcome(passed=False, failure=str(exc))
    out = ClosureOutcome(passed=True, report=report)

    _check(out, report.base_coeff == 1,
           "base coefficient is exactly 1",
           "base coefficient is %s, expected 1" % report.base_coeff)

    if preset.kind == "dn":
        edge = 2 * preset.n - 2
        expected_support = {-2, 2, -edge, edge}
    elif preset.kind == "g2":
        expected_support = {-2, 2, -8, 8, -12, 12}
    else:
        expected_support = {-2, 2, -8, 8}
    _check(out, set(report.delta_terms) == expected_support,
           "delta support is exactly %s" % sorted(expected_support),
           "delta support %s differs from expected %s"
           % (report.shifts, sorted(expected_support)))

    one = SeriesExpr.one()
    if preset.kind in ("dn", "g2"):
        t2 = build_t2(preset)
        if _match_series(out, report, -2, t2, "T2(z)"):
            out.details.append("orientation: delta(w/zq^2) carries T2(z), "
                               "delta(wq^2/z) carries -T2(w)")
        _match_series(out, report, 2, -t2.shift_arg(-2), "-T2(zq^-2)")
        out.derived_t2, out.t2_shift = t2, -2
        if preset.kind == "dn":
            edge = 2 * preset.n - 2
            _match_series(out, report, -edge, one, "1")
            _match_series(out, report, edge, -one, "-1")
        else:
            _match_series(out, report, -8, t1.shift_arg(4), "T1(zq^4)")
            _match_series(out, report, 8, -t1.shift_arg(-4), "-T1(zq^-4)")
            _match_series(out, report, -12, one, "1")
            _match_series(out, report, 12, -one, "-1")
    else:
        t5 = build_t5_e6(preset)
        if report.delta_terms.get(-8) == t5.shift_arg(4):
            out.details.append("orientation: delta(w/zq^8) carries T5(zq^4), "
                               "same orientation as the D_n and G_2 closures")
            _match_series(out, report, 8, -t5.shift_arg(-4), "-T5(zq^-4)")
        elif report.delta_terms.get(8) == t5.shift_arg(4):
            out.details.append("orientation: delta(wq^8/z) carries T5(zq^4)")
            _match_series(out, report, -8, -t5.shift_arg(12), "-T5(zq^12)")
        else:
            _check(out, False, "",
                   "neither magnitude-8 delta coefficient equals T5(zq^4)")
        try:
            derived = extract_t2_e6(report)
        except NotDecomposableError as exc:
            _check(out, False, "", str(exc))
        else:
            out.derived_t2, out.t2_shift = derived.series, derived.shift
            side = "w/zq^2" if derived.shift == -2 else "wq^2/z"
            out.details.append(
                "derived T2 recorded from delta(%s): %d distinct terms, "
                "coefficient counts %s"
                % (side, derived.term_count,
                   {str(k): v for k, v in sorted(derived.coefficient_counts.items())}))

    ok, msg = report.antisymmetry_ok()
    _check(out, ok, "antisymmetry pairing C(-a) = -shift_arg(C(a), a) holds",
           msg or "antisymmetry pairing failed")
    return out


def verify_all(preset: AlgebraPreset) -> VerificationOutcome:
    """Aggregate verification: matrices, dualities, diagonal brackets, closure."""
    out = VerificationOutcome(passed=True)

    def check(ok, good, bad):
        if ok:
            out.details.append("PASS " + good)
        else:
            out.passed = False
            out.details.append("FAIL " + bad)
            if out.failure is None:
                out.failure = bad
        return ok

    # one residual check proves D M^-1 D = Mtilde and D Mtilde^-1 D = M together
    cartan = verify_cartan(preset)
    check(cartan.passed, "deformed Cartan identity D M^-1 D",
          cartan.failure or "deformed Cartan identity")
    check(preset.M == preset.M.transpose(), "M is symmetric", "M is not symmetric")
    check(preset.expected_mtilde == preset.expected_mtilde.transpose(),
          "expected deformed Cartan matrix is symmetric",
          "expected deformed Cartan matrix is not symmetric")
    odd = True
    for mat in (preset.M, preset.D, preset.expected_mtilde):
        for row in mat.rows:
            for e in row:
                if e.invert_var() != -e:
                    odd = False
    check(odd, "all matrix entries are odd under t -> 1/t",
          "some matrix entry is not odd under t -> 1/t")
    check(cartan.identity_holds, "dual identity D Mtilde^-1 D = M", "dual identity fails")

    diag_pure = []
    for i, lam in enumerate(preset.lambdas, start=1):
        try:
            dec = _decompose_numerator(_symbol_numerator(lam, lam, preset), preset)
        except NotDecomposableError as exc:
            check(False, "", "diagonal bracket %d does not decompose: %s" % (i, exc))
            continue
        pure = dec.base_coeff == 1 and not dec.deltas
        diag_pure.append((i, pure, dec))
    if preset.kind == "dn":
        bad = [i for i, p, _ in diag_pure if not p]
        check(not bad, "every diagonal bracket is exactly MM_11 (pure)",
              "diagonal bracket not pure at index %s" % bad)
    else:
        impure = [(i, d.sorted_deltas()) for i, p, d in diag_pure if not p]
        if impure:
            rendered = "; ".join(
                "index %d: %s" % (i, ", ".join("Delta(%+d): %s" % (sh, c)
                                               for sh, c in ds))
                for i, ds in impure)
            out.details.append("NOTE diagonal brackets with delta terms: " + rendered)
        else:
            out.details.append("NOTE every diagonal bracket is pure")

    closure = verify_closure(preset)
    check(closure.passed, "closure of {T1(z), T1(w)}",
          closure.failure or "closure of {T1(z), T1(w)}")
    out.details.extend("  " + d for d in closure.details)

    t1 = build_t1(preset)
    if preset.kind == "e6":
        t5 = build_t5_e6(preset)
        check(t1.dual() == t5.shift_arg(12),
              "duality: dual_transform(T1) = T5(zq^12)",
              "duality: dual_transform(T1) != T5(zq^12)")
        check(t5 != t1, "T5 and T1 are distinct series", "T5 equals T1")
    elif preset.kind == "g2":
        check(t1.dual() == t1.shift_arg(12),
              "duality: dual_transform(T1) = T1(zq^12)",
              "duality: dual_transform(T1) != T1(zq^12)")
    return out
