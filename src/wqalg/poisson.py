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

The numerator of symbol(A, B) over Q, where M = N / Q, is
sum_l f_l t^{b_l} R_A[j_l], from A's node rows
R_A[j] = sum_k e_k t^{-a_k} N_{i_k j}, each summed once on first use.  One
function sums it (_numerator_terms), for symbol() and bracket_sum alike.
symbol() keeps the rows of each fundamental monomial in the preset's row
memo (AlgebraPreset.node_rows), whose keys are the preset's lambdas; the
rows of any other left monomial are built per call.  bracket_sum keeps its
rows per outer root, and verify_all's own diagonal splits per bracket, so
neither fills the memo.

Each preset splits each distinct symbol numerator once: _split_numerator
keeps the preset's split table (AlgebraPreset.splits), keyed by the
frozenset of the numerator's term items.  It stores successful splits
only, and stops storing at _SPLIT_TABLE_CAP entries; a new preset starts
with an empty table.

bracket_sum makes no monomial product, and, where the preset's Cartan
residual holds (AlgebraPreset.cartan_residual), sums almost no numerator.
The monomials of T1 are linked by lowering steps y = p * A_i(zq^b)^-1, and
N Z = Q L D, with Z = L D^-1 Mtilde, makes each step exact on symbols:
symbol(x, y) = symbol(x, p) - L d_i sum_{Y_i(zq^a)^e in x} e t^(b-a), the
same alpha and a Laurent part moved by a few terms.  So it splits only the
pairs of roots of the lowering forest of its monomials (each preset's T1
has one root, so its 2,080 pairs at D_32 take one split), gets a root
column by antisymmetry, and derives every other split along the steps,
with no numerator and no division.  Where the residual fails, every
monomial is a root with no step, so every pair is split.  A pair splits
iff its roots' pair does, with the same alpha, so a failure names the
first pair, with a nonzero coefficient, whose roots' pair does not split
or has another alpha, and splits that pair's own numerator for its text.
Each distinct split leaves one plan, the pair-sum map and signed
coefficient of each kept delta, which every pair with that split applies.  It accumulates each
C(a) as a pair sum, whose key stands for the product of two of its
monomials, and its report builds C(a) only when it is read.  The report keeps the split of each diagonal pair (x, x),
which verify_all reads for its diagonal brackets, so a verification where
the residual holds sums and divides the one numerator of T1's root pair.
Of a self-bracket it keeps the half on a <= 0 only: each
C(+b) = -C(-b)(zq^-b), which M symmetric and odd makes exact, is built
from C(-b).  The report's shifts build only the pair sums whose
coefficients add up to zero, to see whether they cancel.  verify_closure
matches C(-2) against T2 of D_n and G2 as pair sums, building only the
pairs where they differ, and matches C(+b) through the check of C(-b); so
on D_n and G2 a verification builds neither T2, nor C(-2), nor a mirrored
series.  Each other row is one comparison of C(a) with the shifted series
it names.

verify_closure and verify_all record every check through
VerificationOutcome.check (ClosureOutcome is a VerificationOutcome that
also carries the bracket report and, for e6, the derived second series).
The closure keeps each series it builds, and verify_all's duality checks
read them from it: one verify_all(e6) builds T1 once for the bracket and
T5 once (which builds T1 once more).

Records go to the wqalg.poisson logger, at INFO: from bracket_sum when
some delta-series coefficient is not +-1, and from extract_t2_e6 when the
derived series has such a coefficient.  This module never imports logging.
A record is computed only when logging is already imported (until then no
handler can be added nor a level lowered) and the logger is enabled for
INFO; the one from bracket_sum builds every delta series.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from . import genexpr
from .algebras import AlgebraPreset, VerificationOutcome, verify_cartan
from .exactfield import (LaurentPoly, RationalFunction, _add_scaled, _exact_quotient,
                         _int_valued, laurent_divide, laurent_divmod)
from .genexpr import SeriesExpr, YMonomial, build_t1, build_t5_e6


def _info_logger():
    """The wqalg.poisson logger if it is enabled for INFO, else None.

    It is None while logging is not imported (see the module notes), so a
    record that no handler could see is not even computed.
    """
    logging = sys.modules.get("logging")
    logger = logging and logging.getLogger(__name__)
    return logger if logger and logger.isEnabledFor(logging.INFO) else None


class NotDecomposableError(ValueError):
    """No unique rational alpha makes (symbol - alpha * M_11) a Laurent polynomial.

    Raised when no alpha works, and when M_11 is itself a Laurent polynomial,
    so that a split would not be unique.
    """


# Entries of a preset's split table.  decompose fills it, verify_all's diagonal
# brackets where the closure keeps no split for them, and bracket_sum with the
# pairs of roots it splits: one per preset's T1
# where the Cartan residual holds, each distinct numerator of every pair where it
# fails (about 260 at d256)
_SPLIT_TABLE_CAP = 4096

_LAURENT_M11 = "M_11 of %s is a Laurent polynomial; delta decompositions would not be unique"
_M_NOT_SYMMETRIC_ODD = ("M of %s is not both symmetric and odd under t -> 1/t; "
                        "brackets over unordered pairs would not be exact")


class NonUniformBaseError(ValueError):
    """A term pair produced a base coefficient differing from the rest of the sum."""


class DeltaDecomposition:
    """alpha * M_11 plus delta terms; ints where integral, else Fractions."""

    def __init__(self, base_coeff: int | Fraction, deltas: dict[int, int | Fraction]):
        self.base_coeff = base_coeff
        self.deltas = deltas

    def __eq__(self, other):
        if not isinstance(other, DeltaDecomposition):
            return NotImplemented
        return self.base_coeff == other.base_coeff and self.deltas == other.deltas

    def sorted_deltas(self):
        return sorted(self.deltas.items())


def symbol(a: YMonomial, b: YMonomial, preset: AlgebraPreset) -> RationalFunction:
    """Exact bracket symbol of two monomials over the preset, stored as N / Q.

    Its canonical form is computed only when it is read (printed, compared).
    """
    num = _symbol_numerator(a, b, preset, preset.node_rows.get(a, {}))
    return RationalFunction(num, preset.pair_table[0])


def _symbol_numerator(a: YMonomial, b: YMonomial, preset: AlgebraPreset,
                      rows: dict) -> LaurentPoly:
    """The numerator over Q of symbol(a, b); rows maps node j to R_a[j]."""
    _check_nodes((a, b), preset.rank)
    return LaurentPoly._raw(_numerator_terms(a, b, preset.pair_table[1], rows))


def _check_nodes(monos, rank: int) -> None:
    """Raise ValueError unless every factor of every monomial is on a node 1..rank."""
    for m in monos:
        # factors are sorted by node: the first and last bound every node
        f = m.factors
        if f and not (f[0][0] >= 1 and f[-1][0] <= rank):
            raise ValueError("node index out of range for rank %d" % rank)


def _numerator_terms(a: YMonomial, b: YMonomial, nums, rows: dict) -> dict:
    """The term map of the numerator over Q of symbol(a, b), for checked nodes.

    It is summed from a's node rows: rows maps node j to R_a[j], built from
    the table N (nums) on first use.
    """
    acc = {}
    for j, bsh, f in b.factors:
        row = rows.get(j)
        if row is None:
            row = rows[j] = {}
            for i, ash, e in a.factors:
                _add_scaled(row, -ash, e, nums[i - 1][j - 1].terms)
        _add_scaled(acc, bsh, f, row)
    return acc


def _split_numerator(num: LaurentPoly, preset: AlgebraPreset):
    """(alpha, deltas) with num / Q = alpha * M_11 + sum_e deltas[e] t^e.

    One division with remainder by Q: num = quo * Q + rem.  Since
    alpha * N_11 = alpha * (quo11 * Q + rem11), the split exists iff
    rem = alpha * rem11, and then the delta part is quo - alpha * quo11.
    The arithmetic stays in ints wherever the coefficients are integral;
    alpha and the nonzero deltas are ints when integral, else Fractions.

    Each distinct numerator is divided once per preset: a success is stored
    in preset.splits while it holds fewer than _SPLIT_TABLE_CAP entries, and
    the stored pair itself is returned, so callers read deltas and never
    change it (decompose copies it).  The table's key is the frozenset of
    num's term items.
    """
    splits = preset.splits
    key = frozenset(num.terms.items())
    hit = splits.get(key)
    if hit is not None:
        return hit
    q = preset.pair_table[0]
    quo11, rem11 = preset.m11_split
    if not rem11:
        raise NotDecomposableError(_LAURENT_M11 % preset.name)
    quo, rem = laurent_divmod(num, q)
    top = max(rem11)
    alpha = _exact_quotient(rem.get(top, 0), rem11[top])
    if rem != {e: alpha * c for e, c in rem11.items() if alpha}:
        raise NotDecomposableError(
            "no rational base coefficient leaves a pure delta part for symbol (%s)/(%s)"
            % (num, q))
    if alpha:
        _add_scaled(quo, 0, -alpha, quo11)
    split = alpha, _int_valued(quo)
    if len(splits) < _SPLIT_TABLE_CAP:
        splits[key] = split
    return split


def decompose(s: RationalFunction, preset: AlgebraPreset) -> DeltaDecomposition:
    """Unique splitting of a bracket symbol into alpha * M_11 plus delta terms.

    Reads the stored (num, den) of s, never its canonical form, so no gcd is
    taken.  s = alpha * M_11 + L with L Laurent makes s * Q Laurent, so a
    stored denominator other than Q is brought onto Q by one exact division
    num * Q / den; a symbol's own denominator is Q already and its numerator
    is split as it is, by one division with remainder.  Raises
    NotDecomposableError when no rational alpha works, which signals a wrong
    monomial table or a wrong convention.
    """
    q = preset.pair_table[0]
    num, den = s.stored
    if den is not q and den != q:
        num = laurent_divide(num * q, den)
        if num is None:
            raise NotDecomposableError("symbol %s does not decompose over %s"
                                       % (s, preset.name))
    alpha, deltas = _split_numerator(num, preset)
    return DeltaDecomposition(alpha, dict(deltas))


class BracketReport:
    """Result of a bracketed pair of series: base times M_11 plus delta terms.

    delta_terms maps shift a to C_a(z), the coefficient of Delta(a) after the
    substitution w = zq^{-a}.  A report built through the constructor holds
    delta_terms exactly as given.  A report from bracket_sum holds each C(a)
    as a pair sum over its monomials (genexpr.pair_series), and builds the
    series the first time it is read, through series(a) or delta_terms; a
    self-bracket's report stores the C(a) with a <= 0 only, and builds each
    C(+b) = -C(-b)(zq^-b) from C(-b).  What is built is kept.
    """

    def __init__(self, algebra: str, base_coeff: int | Fraction,
                 delta_terms: dict[int, SeriesExpr]):
        self.algebra = algebra
        self.base_coeff = base_coeff
        self._terms = delta_terms
        self._monos = ()        # the monomials that the pair-sum keys index
        self._sums = {}         # shift a -> the pair sum of C(a), kept once C(a) is built
        self._mirrored = set()  # the shifts b whose C(b) is built from C(-b)
        self._diagonal = {}     # the factors of x -> the deltas of symbol(x, x), or None

    @property
    def delta_terms(self) -> dict[int, SeriesExpr]:
        for a in self.shifts:
            self.series(a)
        return self._terms

    @property
    def shifts(self):
        """The support, decided without building where it can.

        A series that cancels to zero has coefficients that add up to zero,
        so a pair sum whose coefficients do not (one whose coefficients share
        one sign, for one) is on the support; only the others are built to
        see whether they vanish.
        """
        for a, pairs in list(self._sums.items()):
            if not sum(pairs.values()):
                self.series(a)
        return sorted(self._terms.keys() | self._sums.keys() | self._mirrored)

    def series(self, shift: int) -> SeriesExpr | None:
        """C(shift), or None off the support; built on first read."""
        got = self._terms.get(shift)
        if got is None and shift in self._sums:
            got = genexpr.pair_series(self._monos, self._sums[shift], shift)
            if not got:     # off the support
                del self._sums[shift]
                self._mirrored.discard(-shift)
                return None
            self._terms[shift] = got
        elif got is None and shift in self._mirrored and self.series(-shift):
            got = self._terms[shift] = self._mirror(shift)
        return got

    def diagonal_split(self, x: YMonomial):
        """(base_coeff, deltas) of symbol(x, x), for a monomial x of the bracketed series.

        bracket_sum keeps the split of each monomial's diagonal pair that its
        rows hold, so its alpha is the base.  None where the report keeps no
        split: x is not a monomial of the two series, the pair does not split,
        or its alpha is another.  The deltas are shared: callers never change
        them.
        """
        deltas = self._diagonal.get(x.factors)
        return None if deltas is None else (self.base_coeff, deltas)

    def _mirror(self, b: int) -> SeriesExpr:
        """C(b) = -C(-b)(zq^-b): one shift_arg per term of the built C(-b)."""
        return SeriesExpr._raw({m.shift_arg(-b): -c for m, c in self._terms[-b].terms.items()})

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


def _lowering_steps(monos, cols) -> tuple[list, list, list]:
    """(roots, steps, root_of): the lowering forest of the sorted monomials monos.

    A step (k, p, i, b) says monos[k] = monos[p] * A_(i+1)(zq^b)^-1, where
    A_(i+1)(zq^b) is the product of Y_(j+1)(zq^(b+e))^c over column i of Z,
    cols[i] (AlgebraPreset.cartan_residual).  The candidate parents of a monomial
    come from its negative factors: a positive term c t^e of Z_ji makes
    A_(i+1)(zq^b)^-1 hold Y_(j+1)(zq^(b+e))^-c, so a factor Y_(j+1)(zq^a)^-f
    proposes b = a - e.  The first candidate among monos is the parent, and
    a monomial with none is a root.  The steps come parents first, and
    root_of[n] is the root of monos[n], set as its chain of steps is placed.
    No step leads back to where it started: the residual makes Z invertible,
    so no product of the A_i is 1.  The monomials are indexed by their
    factors, so none is hashed.
    """
    index = {m.factors: n for n, m in enumerate(monos)}
    # node j + 1 -> the (i, e) of each positive term c t^e of Z_ji, lowest e
    # first: the lowering of Y_(j+1)(zq^(b+r)) leaves Y_(j+1)(zq^(b-r))^-1
    raising = {}
    for i, col in enumerate(cols):
        for j, e, c in sorted(col, key=lambda jec: jec[1]):
            if c > 0:
                raising.setdefault(j + 1, []).append((i, e))

    def parent(m):
        for j, a, f in m.factors:
            for i, e in raising.get(j, ()) if f < 0 else ():
                b = a - e
                up = {(node, shift): x for node, shift, x in m.factors}   # m * A_(i+1)(zq^b)
                for k, s, c in cols[i]:
                    key = k + 1, b + s
                    c += up.get(key, 0)
                    if c:
                        up[key] = c
                    else:
                        del up[key]
                p = index.get(tuple(sorted((node, shift, x) for (node, shift), x in up.items())))
                if p is not None:
                    return p, i, b
        return None

    parents = {n: p for n, p in enumerate(map(parent, monos)) if p}
    steps, root_of = [], [None if n in parents else n for n in range(len(monos))]
    for n in parents:
        chain = []
        while root_of[n] is None:
            root_of[n] = n      # placed; the chain's root is written below
            chain.append(n)
            n = parents[n][0]
        r = root_of[n]
        for k in reversed(chain):
            root_of[k] = r
            steps.append((k, *parents[k]))
    return [n for n in range(len(monos)) if n not in parents], steps, root_of


def _split_rows(monos, preset: AlgebraPreset, plan, first):
    """(base, rows): the split of every pair of monos, read off its roots' pair.

    rows(n)[k] is plan(deltas), for the deltas of the split of
    (monos[n], monos[k]), or None where that pair does not split or its
    alpha is not base.  base is the alpha of the pair first, (n, k), read off
    its roots' split; it is 0 when first is None, where no pair has a
    nonzero coefficient.  Each pair of roots is split once, by
    _split_numerator; a root column of a row comes by antisymmetry, the
    deltas (a, c) of (y, x) becoming (-a, -c) for (x, y).  Where the Cartan
    residual holds, the roots and steps are those of the lowering forest
    (_lowering_steps), and every other split is its parent's moved by a
    Laurent polynomial: with y = p * A_i(zq^b)^-1 and N Z = Q L D,
    symbol(x, y) = symbol(x, p) - L d_i sum_{Y_i(zq^a)^e in x} e t^(b-a),
    with the same alpha, so an entry is None exactly where its roots' entry
    is; a row where x has no factor on node i shares its parent's entry.
    Where the residual fails, every monomial is a root with no step, and
    every pair is split.  Each distinct split gets one plan, shared by every
    entry with those deltas, and each such entry one reflection.
    """
    failure, cols, ld = preset.cartan_residual
    size, nums = len(monos), preset.pair_table[1]
    roots, steps, root_of = ((range(size), [], range(size)) if failure
                             else _lowering_steps(monos, cols))
    ld = [e.terms for e in ld]
    splits = {}     # (r, r2), roots with r <= r2 -> their split, None where it fails
    for i, r in enumerate(roots):
        xrows = {}
        for r2 in roots[i:]:
            try:
                splits[r, r2] = _split_numerator(LaurentPoly._raw(
                    _numerator_terms(monos[r], monos[r2], nums, xrows)), preset)
            except NotDecomposableError:
                splits[r, r2] = None
    first_split = first and splits[tuple(sorted(root_of[n] for n in first))]
    base = first_split[0] if first_split else 0

    plans = {}          # frozenset of a split's delta items -> its entry
    reflections = {}    # id(entry) -> the entry of its reversed pair

    def planned(deltas):
        key = frozenset(deltas.items())
        entry = plans.get(key)
        if entry is None:
            entry = plans[key] = plan(deltas)
        return entry

    def reflected(entry):
        # every entry is kept in plans, so its id is not reused
        if entry is None:
            return None
        got = reflections.get(id(entry))
        if got is None:
            got = reflections[id(entry)] = planned({-a: -c for a, c in entry[0].items()})
        return got

    def lowered(row, x):
        on_node = {}    # node index -> the (shift, exponent) of each factor of x there
        for i, a, e in x.factors:
            on_node.setdefault(i - 1, []).append((a, e))
        for k, p, i, b in steps:
            factors, entry = on_node.get(i), row[p]
            if factors is None or entry is None:
                row[k] = entry
                continue
            deltas = dict(entry[0])
            for a, e in factors:
                _add_scaled(deltas, b - a, -e, ld[i])
            row[k] = planned(deltas)
        return row

    root_rows = {}
    for r in roots:
        row = [None] * size
        for r2 in roots:
            if r2 < r:
                row[r2] = reflected(root_rows[r2][r])
            elif (split := splits[r, r2]) and split[0] == base:
                row[r2] = planned(split[1])
        root_rows[r] = lowered(row, monos[r])

    def rows(n):
        row = root_rows.get(n)
        if row is None:
            row = [None] * size
            for r in roots:
                row[r] = reflected(root_rows[r][n])
            lowered(row, monos[n])
        return row

    return base, rows


def bracket_sum(t_series: SeriesExpr, s_series: SeriesExpr,
                preset: AlgebraPreset) -> BracketReport:
    """Bracket two monomial sums; all pairs must share one base coefficient.

    Each term pair (x, y) with coefficients (u, v) contributes
    u*v*c * x * shift_arg(y, -a) to C_a for every delta (a, c) of its
    symbol decomposition.  M is symmetric and odd, so
    symbol(y, x)(t) = -symbol(x, y)(1/t): the reversed pair shares alpha and
    its delta (a, c) becomes (-a, -c).  So each unordered pair is visited
    once and the diagonal counted once.

    The splits come from _split_rows: only pairs of roots are split, and
    where the preset's Cartan residual holds, these are the roots of the
    lowering forest of the two series' monomials, one on every preset's
    first series, and each other split is derived along the lowering steps,
    with no numerator and no division; where it fails, every monomial is a
    root.  The base is the alpha of the first pair, in the (n, k) order
    below, with a nonzero coefficient.  A pair with a nonzero coefficient
    whose split is missing, because its roots' pair does not split or has
    another alpha, is the failure: its own numerator is split once, and its
    NotDecomposableError, or a NonUniformBaseError, names it.  A pair whose
    two coefficients are 0 is skipped and never fails.  Each distinct split
    leaves one plan: the pair-sum map and signed coefficient of each kept
    forward and reverse delta, and the coefficient of Delta(0).  The report
    keeps the split of each diagonal pair (x, x) that the rows hold, for
    BracketReport.diagonal_split.  The coefficients of the
    two series are read once into lists indexed like the monomials, and the
    nodes of every monomial are checked once.

    The pairs are visited in order of the sorted monomials, (n, k) with
    n <= k.  No monomial product is made here: acc[a] holds C(a) as a pair
    sum over the sorted monomials, key l * len(monos) + r for
    monos[l] * monos[r](zq^-a), and the report builds a series only when it
    is read.  For a delta (a, c) of the pair (x, y) = (monos[n], monos[k])
    the forward half adds forward * c to C(a) at (n, k), the reverse half
    adds -reverse * c to C(-a) at (k, n), which stands for x(zq^a) * y, and
    Delta(0) adds (forward - reverse) * c once at (n, k) when that is
    nonzero; each key of each C(a) is written once.  In a self-bracket (the
    two series one object, or equal) the half that lands on a positive
    shift is minus one on a negative shift (a diagonal pair's own symbol is
    odd), so C(b) = -shift_arg(C(-b), -b) holds exactly: only the halves on
    a <= 0 are kept, and the report builds each C(+b) from C(-b) when it is
    read.  Delta series that cancel to zero are off the report's support.
    """
    if not all(preset.m_parity):
        raise ValueError(_M_NOT_SYMMETRIC_ODD % preset.name)
    t, s = t_series.terms, s_series.terms
    self_bracket = t_series is s_series or t == s
    acc: dict[int, dict[int, int | Fraction]] = {}
    monos = sorted(t.keys() | s.keys(), key=attrgetter("factors"))
    _check_nodes(monos, preset.rank)
    size, nums = len(monos), preset.pair_table[1]
    tco = [t.get(m, 0) for m in monos]
    sco = tco if self_bracket else [s.get(m, 0) for m in monos]

    def plan(deltas):
        # deltas, with the pair-sum map and signed coefficient of each kept half,
        # and Delta(0)'s
        return deltas, ([(acc.setdefault(a, {}), c) for a, c in deltas.items()
                         if a and (a < 0 or not self_bracket)],
                        [(acc.setdefault(-a, {}), -c) for a, c in deltas.items()
                         if a and (a > 0 or not self_bracket)],
                        deltas.get(0, 0))

    # the first pair with a nonzero coefficient, whose alpha is the base
    first = next(((n, k) for n in range(size) for k in range(n, size)
                  if tco[n] * sco[k] or k != n and tco[k] * sco[n]), None)
    base, rows = _split_rows(monos, preset, plan, first)
    diagonal = {}   # the factors of x -> the deltas of (x, x), None where it has no entry
    for n, x in enumerate(monos):
        tx, sx, row = tco[n], sco[n], rows(n)
        diagonal[x.factors] = row[n] and row[n][0]
        for k in range(n, size):
            forward, reverse = tx * sco[k], (tco[k] * sx if k != n else 0)
            if not (forward or reverse):
                continue
            try:
                halves, reversed_halves, zero = row[k][1]
            except TypeError:   # row[k] is None: the pair does not split, or has another alpha
                y = monos[k]
                try:
                    alpha = _split_numerator(
                        LaurentPoly._raw(_numerator_terms(x, y, nums, {})), preset)[0]
                except NotDecomposableError as exc:
                    raise NotDecomposableError("pair (%s, %s): %s" % (x, y, exc)) from None
                raise NonUniformBaseError("pair (%s, %s) has base %s, expected %s"
                                          % (x, y, alpha, base)) from None
            nk, kn = n * size + k, k * size + n
            if forward:
                for sums, c in halves:
                    sums[nk] = forward * c
            if reverse:
                for sums, c in reversed_halves:
                    sums[kn] = reverse * c
            if zero and forward != reverse:
                acc.setdefault(0, {})[nk] = (forward - reverse) * zero
    # a plan makes the maps of its shifts; drop those no pair wrote to
    acc = {a: sums for a, sums in acc.items() if sums}
    report = BracketReport(preset.name, base, {})
    report._monos, report._sums, report._diagonal = monos, acc, diagonal
    if self_bracket:
        report._mirrored = {-a for a in acc if a}
    logger = _info_logger()
    if logger:
        # informational: verify_closure matches every coefficient against its series
        nonunit = [(a, m, c) for a, d in report.delta_terms.items()
                   for m, c in d.terms.items() if c != 1 and c != -1]
        if nonunit:
            a, _, c = min(nonunit, key=lambda amc: (amc[0], amc[1].factors))
            logger.info("%s bracket: %d delta-series coefficients are not +-1 "
                        "(first: shift %d, coefficient %s)", preset.name, len(nonunit), a, c)
    return report


class DerivedSeries:
    """A derived second series, C(shift), with its term and coefficient counts."""

    shift = -2

    def __init__(self, series: SeriesExpr):
        self.series = series
        self.term_count = len(series)
        counts = self.coefficient_counts = {}
        for c in series.terms.values():
            counts[c] = counts.get(c, 0) + 1


def extract_t2_e6(report: BracketReport) -> DerivedSeries:
    """The derived E6 second series: C(-2), the coefficient of delta(w/zq^2).

    That is where the D_n and G_2 closures carry T2(z); C(-2) must have
    all-positive coefficients.  Non-unit coefficients are recorded at info
    level (they arise when distinct weight vectors share a monomial).
    """
    series = report.series(-2)
    if series is None or not all(c > 0 for c in series.terms.values()):
        raise NotDecomposableError("C(-2), the coefficient of delta(w/zq^2), is not a "
                                   "nonzero series with positive coefficients")
    derived = DerivedSeries(series)
    counts = derived.coefficient_counts
    logger = _info_logger()
    if logger and set(counts) != {1}:
        logger.info("derived series at shift -2 has non-unit coefficients: %s",
                    {str(k): v for k, v in sorted(counts.items())})
    return derived


class ClosureOutcome(VerificationOutcome):
    def __init__(self):
        super().__init__()
        self.report: BracketReport | None = None
        self.derived: DerivedSeries | None = None   # e6 only: the derived second series
        self._series = {}   # name -> each series the verification built (_named_series)


def _is_t2_pair_sum(report: BracketReport, preset: AlgebraPreset) -> bool:
    """Whether C(-2) = T2(z), read from the report's pair sum; False if it has none.

    Both are sums of L_i(z) L_j(zq^2) over pairs, so each pair of T2 is taken
    off a copy of the pair sum of C(-2), and only the pairs left, where the
    two differ, are built: C(-2) = T2(z) iff those sum to zero.
    """
    pairs = report._sums.get(-2)
    if pairs is None:
        return False
    diff = dict(pairs)
    for key in genexpr.t2_pair_keys(preset, report._monos):
        c = diff.get(key, 0) - 1
        if c:
            diff[key] = c
        else:
            del diff[key]
    return not genexpr.pair_series(report._monos, diff, -2)


def _match_series(out, report, shift, expected, label, good=None):
    """Record the check C(shift) = expected, which label names.

    A match records good, by default "C(shift) = label"; a mismatch names
    the first monomial where the two differ.
    """
    got = report.series(shift) or SeriesExpr.zero()
    if got == expected:
        return out.check(True, good or "C(%+d) = %s" % (shift, label), "")
    keys = sorted(set(got.terms) | set(expected.terms), key=attrgetter("factors"))
    first = next(m for m in keys if got.terms.get(m, 0) != expected.terms.get(m, 0))
    return out.check(False, "", "shift %+d: expected %s; first differing monomial %s "
                     "(got %s, want %s)" % (shift, label, first, got.terms.get(first, 0),
                                            expected.terms.get(first, 0)))


def _named_series(name: str, preset: AlgebraPreset, built: dict) -> SeriesExpr:
    """The series a closure spec names, kept in built (which holds "T1").

    A series not in built yet is built by the module attribute read now.
    """
    got = built.get(name)
    if got is None:
        got = built[name] = {"1": SeriesExpr.one, "T2": lambda: genexpr.build_t2(preset),
                             "T5": lambda: build_t5_e6(preset)}[name]()
    return got


def verify_closure(preset: AlgebraPreset) -> ClosureOutcome:
    """Bracket the first series with itself and match it to the preset's closure spec.

    One loop over the spec's rows (AlgebraPreset.closure) matches each
    C(-b) = series(zq^by) and C(+b) = -series(zq^(by-b)), building a series
    only to match it.  A T2 row first compares C(-2) as a pair sum against
    the pairs of T2, building T2 only on a mismatch; a row with no series
    records C(-2) as the derived second series (E6).  Every spec holds one
    orientation: delta(w/zq^2) carries T2(z), and for E6 delta(w/zq^8)
    carries T5(zq^4); the flipped orientation fails.  Each series it builds
    is kept in the outcome's _series, for verify_all to read again.
    """
    out = ClosureOutcome()
    t1 = build_t1(preset)
    built = out._series = {"T1": t1}
    try:
        report = out.report = bracket_sum(t1, t1, preset)
    except ValueError as exc:
        # bracket_sum's parity guard, NotDecomposableError or NonUniformBaseError
        out.check(False, "", str(exc))
        return out

    out.check(report.base_coeff == 1, "base coefficient is exactly 1",
              "base coefficient is %s, expected 1" % report.base_coeff)
    rows = preset.closure.rows
    support = {a for row in rows for a in (-row[0], row[0])}
    out.check(set(report.shifts) == support,
              "delta support is exactly %s" % sorted(support),
              "delta support %s differs from expected %s" % (report.shifts, sorted(support)))

    for b, name, by, label, mirror_label, good in rows:
        if name is None:
            try:
                derived = out.derived = extract_t2_e6(report)
            except NotDecomposableError as exc:
                out.check(False, "", str(exc))
            else:
                out.details.append(
                    "derived T2 recorded from delta(w/zq^2): %d distinct terms, "
                    "coefficient counts %s"
                    % (derived.term_count,
                       {str(k): v for k, v in sorted(derived.coefficient_counts.items())}))
            continue
        series = None
        if name == "T2" and _is_t2_pair_sum(report, preset):
            ok = out.check(True, "C(-2) = T2(z)", "")
        else:
            series = _named_series(name, preset, built)
            ok = _match_series(out, report, -b, series.shift_arg(by), label, good)
        if ok and name == "T2":
            out.details.append("orientation: delta(w/zq^2) carries T2(z), "
                               "delta(wq^2/z) carries -T2(w)")
        if b not in report._mirrored:
            series = series or _named_series(name, preset, built)
            _match_series(out, report, b, -series.shift_arg(by - b), mirror_label)
        elif ok:
            # a mirrored C(+b) matches iff C(-b) did, so the check just made is its
            # check; had it failed, the failure of C(-b) would come first
            out.check(True, "C(%+d) = %s" % (b, mirror_label), "")

    # bracket_sum pairs each term pair with its reverse, given m_parity
    out.details.append("antisymmetry pairing C(-a) = -shift_arg(C(a), a) holds")
    return out


def verify_all(preset: AlgebraPreset) -> VerificationOutcome:
    """Aggregate verification: matrices, dualities, diagonal brackets, closure.

    The checks are recorded in that order, but the closure runs before the
    diagonal brackets: its bracket of T1 with itself keeps the split of each
    diagonal pair {Lambda_i, Lambda_i} (BracketReport.diagonal_split), so
    where the Cartan residual holds, a verification sums and divides one
    symbol numerator, the one of T1's root pair.  A diagonal pair is split
    on its own only where the report keeps no split for it: where
    bracket_sum raised, or the pair does not split or has another alpha.
    """
    out = VerificationOutcome()

    def check(ok, good, bad):
        if not ok:
            out.details.append("FAIL " + bad)
        return out.check(ok, "PASS " + good, bad)

    # one residual check proves D M^-1 D = Mtilde and D Mtilde^-1 D = M together
    cartan = verify_cartan(preset)
    check(cartan.passed, "deformed Cartan identity D M^-1 D", cartan.failure)
    symmetric, odd = preset.m_parity
    check(symmetric, "M is symmetric", "M is not symmetric")
    check(tuple(zip(*preset.mtilde)) == preset.mtilde,
          "expected deformed Cartan matrix is symmetric",
          "expected deformed Cartan matrix is not symmetric")
    # D and Mtilde are Laurent: odd means e(1/t) = -e(t), tested once per entry
    # object, found by id (the preset shares one per t-number), so none is hashed
    laurent = {id(e): e for e in chain(preset.d, *preset.mtilde)}.values()
    check(odd and all(e.invert_var() == -e for e in laurent),
          "all matrix entries are odd under t -> 1/t",
          "some matrix entry is not odd under t -> 1/t")
    check(cartan.identity_holds, "dual identity D Mtilde^-1 D = M", "dual identity fails")

    # the closure runs first, and its report keeps the diagonal splits; its
    # checks are recorded after the diagonal brackets'
    closure = verify_closure(preset)
    report = closure.report
    # the M_11 guard and the parity of M are properties of the preset: report
    # them once, not per bracket (the closure reports a failed parity)
    if not preset.m11_split[1]:
        check(False, "", "diagonal brackets do not decompose: " + _LAURENT_M11 % preset.name)
    elif all(preset.m_parity):
        impure, complete = [], True
        for i, lam in enumerate(preset.lambdas, start=1):
            try:
                # split only where the report keeps no split: bracket_sum raised,
                # or the pair has none
                alpha, deltas = (report and report.diagonal_split(lam)
                                 or _split_numerator(_symbol_numerator(lam, lam, preset, {}),
                                                     preset))
            except NotDecomposableError as exc:
                check(False, "", "diagonal bracket %d does not decompose: %s" % (i, exc))
                complete = False
                continue
            if alpha != 1 or deltas:
                impure.append((i, sorted(deltas.items())))
        # a "pure" verdict covers every diagonal bracket, so it needs a complete set
        if preset.closure.pure:
            if impure or complete:
                check(not impure, "every diagonal bracket is exactly MM_11 (pure)",
                      "diagonal bracket not pure at index %s" % [i for i, _ in impure])
        elif impure:
            out.details.append("NOTE diagonal brackets with delta terms: " + "; ".join(
                "index %d: %s" % (i, ", ".join("Delta(%+d): %s" % sc for sc in ds))
                for i, ds in impure))
        elif complete:
            out.details.append("NOTE every diagonal bracket is pure")

    check(closure.passed, "closure of {T1(z), T1(w)}", closure.failure)
    out.details.extend("  " + d for d in closure.details)

    # T1 and any series the closure built are read from it, not built again
    dual, built = preset.closure.dual, closure._series
    if dual:
        _, ok = _dual_identity(preset, built)
        check(ok, "duality: dual_transform(T1) = %s(zq^12)" % dual,
              "duality: dual_transform(T1) != %s(zq^12)" % dual)
    if dual == "T5":
        check(_named_series("T5", preset, built) != built["T1"],
              "T5 and T1 are distinct series", "T5 equals T1")
    return out


def dual_identity(preset: AlgebraPreset) -> tuple[str, SeriesExpr, bool]:
    """Check dual_transform(T1) = T(zq^12), with T the series the closure spec's dual names.

    Returns (name of T, dual_transform(T1), whether the identity holds).
    """
    label = preset.closure.dual
    if label is None:
        raise ValueError("the dual transform identity applies to e6 and g2 only")
    return (label,) + _dual_identity(preset, {"T1": build_t1(preset)})


def _dual_identity(preset: AlgebraPreset, built: dict) -> tuple[SeriesExpr, bool]:
    """(dual_transform(T1), whether it is T(zq^12)), reading T1 and T through built."""
    t1_dual = built["T1"].dual()
    return t1_dual, t1_dual == _named_series(preset.closure.dual, preset, built).shift_arg(12)
