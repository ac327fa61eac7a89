"""Presets for the D_n, E6 and G2 algebras, and the deformed Cartan check.

Each preset holds its structure as integer Laurent tables: the pair table
(Q, N) with M_ij = N_ij / Q, the diagonal d of D, and the rows of the
expected deformed Cartan matrix Mtilde (printed form), plus the
fundamental-series monomial table.  Its sizes are read off these tables:
the rank is len(d) and the fundamental dimension len(lambdas).  Everything
downstream is verified against these tables alone.  M, D and Mtilde as
matrices of canonical rational functions are display views, built on first
use.

Each family is declared once, in build_preset, the only code that knows
dn, e6 and g2.  D and Mtilde are the t-numbers [b] = t^b - t^-b of one
integer matrix, the symmetrized Cartan matrix B = DC, which the preset
carries (b): Mtilde_ij = [B_ij] and d_i = [B_ii / 2].  B of a
simply-laced family is read off its Dynkin edges (_simply_laced_b); G2's is
a literal.  B is also the classical limit that verify_cartan checks Mtilde
against.  The pair table is built from the closed forms of M_ij, grouped
under their denominators, each denominator declared once.  The preset also
carries its closure spec (ClosureSpec), what {T1, T1} must give, so every
verifier reads the preset alone: one built elsewhere is verified the same way.

VerificationOutcome is the one verdict record: every verifier, here and in
the bracket engine, records each of its checks through
VerificationOutcome.check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, islice, repeat
from math import lcm
from operator import add, lshift, mul
from typing import Callable, NamedTuple

from .exactfield import (LaurentPoly, RationalFunction, _add_scaled, _exact_quotient,
                         _int_valued, laurent_divide, laurent_divmod, sym_minus, sym_plus)
from .genexpr import YMonomial
from .rflinalg import FieldMatrix

LaurentRows = tuple[tuple[LaurentPoly, ...], ...]


class ClosureSpec(NamedTuple):
    """What bracketing a preset's first series with itself must give.

    rows, in match order, are (b, series, by, label, mirror_label, good):
    C(-b) = series(zq^by), and so C(+b) = -series(zq^(by-b)).  series names
    "1", "T1", "T2" or "T5", which poisson builds when it reads them; None
    records C(-b) as the derived second series instead.  label and
    mirror_label name C(-b) and C(+b) in a failure, and good, when given,
    is the record of a match of C(-b).  The support is +-b over the rows.
    t2_pairs(preset) gives the pairs (i, j) of T2 = sum L_i(z) L_j(zq^2),
    or is None where T2 has no closed form.  dual names T in
    dual_transform(T1) = T(zq^12), or is None.  pure says whether every
    diagonal bracket must be exactly M_11, rather than noted.
    """

    rows: tuple
    t2_pairs: Callable | None
    dual: str | None
    pure: bool


class AlgebraPreset:
    """A preset's integer Laurent tables; build a new preset to change one."""

    def __init__(self, name: str, pair_table: tuple[LaurentPoly, LaurentRows],
                 d: tuple[LaurentPoly, ...], mtilde: LaurentRows,
                 lambdas: tuple[YMonomial, ...], b: tuple[tuple[int, ...], ...],
                 closure: ClosureSpec):
        self.name = name
        self.pair_table = pair_table      # (Q, N) with M_ij = N_ij / Q
        self.d = d                        # the diagonal of D
        self.mtilde = mtilde              # rows of the expected deformed Cartan matrix
        self.lambdas = lambdas
        self.b = b                        # B = DC, the t -> 1 limit of Mtilde
        self.closure = closure            # what {T1, T1} must give (ClosureSpec)
        r = self.rank
        for table, rows in (("N", pair_table[1]), ("mtilde", mtilde), ("b", b)):
            if len(rows) != r or any(len(row) != r for row in rows):
                raise ValueError("the table %s of %s is not square of size len(d) = %d"
                                 % (table, name, r))
        for row in closure.rows:
            # the derived series is read off C(-2) (poisson.extract_t2_e6)
            if row[1] is None and row[0] != 2:
                raise ValueError("the closure row %r of %s reads C(-%d); a derived series is C(-2)"
                                 % (row, name, row[0]))
        q = pair_table[0]
        # every delta decomposition divides by Q with laurent_divmod
        if not q or min(q.terms) != 0:
            raise ValueError("the table Q of %s is not a polynomial with a nonzero "
                             "constant term: %s" % (self.name, q))
        if len(set(lambdas)) != len(lambdas):
            raise ValueError("fundamental terms are not pairwise distinct for %s" % self.name)
        bad = [i for m in lambdas for i, _, _ in m.factors if not 1 <= i <= r]
        if bad:
            raise ValueError("the table lambdas of %s has a factor on node %d, outside 1..%d"
                             % (self.name, bad[0], r))
        # the split table: symbol numerator -> (alpha, deltas), empty on a
        # new preset; poisson._split_numerator is its only reader and writer
        self.splits = {}
        # the row memo: fundamental monomial -> node -> node row, filled by poisson.symbol
        self.node_rows = {m: {} for m in lambdas}

    @property
    def rank(self) -> int:
        return len(self.d)

    @cached_property
    def M(self) -> FieldMatrix:
        """M as canonical rational functions N_ij / Q, for display."""
        q, nums = self.pair_table
        return _view(nums, q)

    @cached_property
    def D(self) -> FieldMatrix:
        """D = diag(d), for display."""
        zero = LaurentPoly.zero()
        return _view([[e if i == j else zero for j in range(self.rank)]
                      for i, e in enumerate(self.d)])

    @cached_property
    def expected_mtilde(self) -> FieldMatrix:
        """The rows of mtilde as rational functions, for display."""
        return _view(self.mtilde)

    @cached_property
    def m11_split(self) -> tuple[dict, dict]:
        """Term maps (quo, rem) of N_11 = quo * Q + rem, from laurent_divmod.

        Every delta decomposition is read off against this split; rem is
        nonzero exactly when M_11 is not a Laurent polynomial.
        """
        q, nums = self.pair_table
        return laurent_divmod(nums[0][0], q)

    @cached_property
    def n_symmetric(self) -> bool:
        """Whether the table N, and so M, is symmetric: one test of its r^2 entries.

        m_parity and the Cartan residual both read it; where it holds, each
        tests or evaluates the upper triangle only.
        """
        nums = self.pair_table[1]
        return tuple(zip(*nums)) == nums

    @cached_property
    def m_parity(self) -> tuple[bool, bool]:
        """(symmetric, odd) for M = N/Q, read off the pair table.

        M is odd under t -> 1/t iff N(1/t) Q(t) + N(t) Q(1/t) = 0 for every
        entry N.  Every preset's Q is self-reciprocal, Q(1/t) = u t^-m Q(t)
        with m = deg Q and u = +-1 (its coefficients read the same, times u,
        from both ends), and then the test reduces to N(1/t) = -u t^-m N(t):
        each term c t^e of N must meet the term -u c t^(m-e), one lookup per
        term and no product.  Any other Q is tested by adding both products
        into one term map that must end up empty.  A symmetric table's lower
        triangle repeats its upper one, so only the upper one is tested.  No
        entry is hashed: a LaurentPoly keeps its hash, and an int per entry
        of N added 6 MB to the peak RSS of tools/dn_stages.py at d512.
        Brackets are taken over unordered pairs, which is exact only when
        both hold.
        """
        q, nums = self.pair_table
        qt = q.terms
        m = max(qt)   # Q's min exponent is 0
        u = 1 if qt[m] == qt[0] else -1   # the test below refuses any other ratio
        symmetric = self.n_symmetric
        rows = [row[i:] for i, row in enumerate(nums)] if symmetric else nums
        if all(qt.get(m - e) == u * c for e, c in qt.items()):
            v = -u
            for row in rows:
                for entry in row:
                    terms = entry.terms
                    for e, c in terms.items():
                        if terms.get(m - e) != v * c:
                            return symmetric, False
            return symmetric, True
        for row in rows:
            for entry in row:
                acc = {}
                for e, c in entry.terms.items():
                    _add_scaled(acc, -e, c, qt)
                for e, c in qt.items():
                    _add_scaled(acc, -e, c, entry.terms)
                if acc:
                    return symmetric, False
        return symmetric, True

    @cached_property
    def cartan_residual(self) -> tuple[str | None, list, tuple]:
        """(failure, cols, ld): the residual of M D^-1 Mtilde D^-1 = I, once per preset.

        failure is None when the residual holds, else the text naming the
        first entry that breaks it; _identity_residual decides it with one
        exact int per table entry at t = 2^w, and verify_cartan reads it.
        cols[i] is column i of Z = L D^-1 Mtilde (_q_cartan) as (k, e, c)
        triples, k 0-based, one per term c t^e of each nonzero Z_ki: the
        factors Y_(k+1)(zq^(b+e))^c of A_(i+1)(zq^b).  ld[k] is L d_k.
        Where the residual holds, N Z = Q L D makes each lowering step by an
        A_i exact on symbols, and poisson.bracket_sum derives its splits
        along such steps.  cols and ld are empty when D has a zero entry.
        """
        return _identity_residual(self)


def _view(rows, den: LaurentPoly | None = None) -> FieldMatrix:
    """Laurent rows over den as canonical rational functions, for display.

    Each distinct entry is canonicalised once: equal entries, such as the
    two triangles of a symmetric table, share theirs.
    """
    rfs = {e: RationalFunction(e, den) for e in {e for row in rows for e in row}}
    return FieldMatrix([[rfs[e] for e in row] for row in rows])


class VerificationOutcome:
    """A verdict: the messages of the checks that held, and the first failure."""

    def __init__(self):
        self.passed = True
        self.details: list[str] = []
        self.failure: str | None = None
        # verify_cartan only: whether M D^-1 Mtilde D^-1 = I was shown to hold
        self.identity_holds = False

    def check(self, ok: bool, good: str, bad: str) -> bool:
        """Record one check and return ok.

        A check that holds adds good to details; one that fails clears
        passed, and its bad message becomes the failure if it is the first.
        """
        if ok:
            self.details.append(good)
        else:
            self.passed = False
            if self.failure is None:
                self.failure = bad
        return ok


def _pair_table(q: LaurentPoly, forms: dict) -> tuple[LaurentPoly, LaurentRows]:
    """(Q, N) from a declared Q and the closed forms grouped under their den.

    forms maps each den to a list of (pairs, *factors): M_ij = num / den for
    every unordered pair (i, j), i <= j (1-based), in pairs, where num is
    the product of the factors, and N is filled in both triangles from it.
    Each den costs at most one exact division, the cofactor Q / den
    (_cofactor).  Each last factor f is then scaled once per object,
    R_f = f * (Q / den), found by id, so no factor is hashed, and a form is
    the product of its other factors with its R_f.  D_n's forms are
    sym_minus(i) * sym_plus(m): n products make its R_m, and each entry
    costs one more, so D_n, with two denominators, is built in O(n^2)
    products of two- and four-term polynomials.  Under a den that does not divide Q (den_long for even n,
    every E6 and G2 den) each form takes the one exact division
    num * Q / den instead.  Raises ArithmeticError if den does not divide
    num * Q.  Q and N are shifted together so that Q has min exponent 0,
    as laurent_divmod needs.
    """
    q = q.shift(-q.min_exp)
    rank = max(j for group in forms.values() for pairs, *_ in group for _, j in pairs)
    rows = [[None] * rank for _ in range(rank)]
    for den, group in forms.items():
        cof = _cofactor(q, den)
        scaled = {}   # id(f), for each last factor f -> R_f
        for pairs, *factors, last in group:
            if cof is None:
                quo = laurent_divide(reduce(mul, factors, last) * q, den)
                if quo is None:
                    raise ArithmeticError("declared Q = %s is not a multiple of %s" % (q, den))
            else:
                quo = scaled.get(id(last))
                if quo is None:
                    quo = scaled[id(last)] = last * cof
                quo = reduce(mul, factors, quo)
            for i, j in pairs:
                rows[i - 1][j - 1] = rows[j - 1][i - 1] = quo
    return q, tuple(map(tuple, rows))


def _cofactor(q: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Q / den for a polynomial Q with min exponent 0, or None if den does not divide Q.

    A divisor of Q is at most as wide as Q, and one as wide is c t^k Q, so
    has as many terms; any other den is refused without a division, so the
    presets whose denominators do not divide Q (E6, G2) pay for none.
    """
    width = den.max_exp - den.min_exp
    if width < q.max_exp or width == q.max_exp and len(den) == len(q):
        return laurent_divide(q, den)
    return None


def _dn_pair_table(n: int):
    den = sym_plus(n - 1)
    den_long = sym_plus(1) * den
    # each t-number is one object, shared by the forms that read it
    minus = [None] + [sym_minus(i) for i in range(1, n + 1)]
    plus = [None] + [sym_plus(m) for m in range(1, n - 1)]
    forms = {den: [(((i, j),), minus[i], plus[n - 1 - j])
                   for i in range(1, n - 1) for j in range(i, n - 1)]
             + [(((i, n - 1), (i, n)), minus[i]) for i in range(1, n - 1)],
             den_long: [(((n - 1, n),), minus[n - 2]), (((n - 1, n - 1), (n, n)), minus[n])]}
    # Q is the reduced lcm of den and den_long: for even n, t + t^-1 divides
    # both long-entry numerators
    return _pair_table(den_long if n % 2 else den, forms)


_E6_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))


def _simply_laced_b(rank: int, edges) -> tuple[tuple[int, ...], ...]:
    """B = C of a simply-laced Dynkin graph: 2 on the diagonal, -1 at each edge (i, j)."""
    b = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        b[i - 1][j - 1] = b[j - 1][i - 1] = -1
    return tuple(map(tuple, b))


def _dn_t2_pairs(preset):
    """The pairs of the D_n second series, in turn: every i < j, then (n + 1, n)."""
    yield from combinations(range(1, len(preset.lambdas) + 1), 2)
    yield preset.rank + 1, preset.rank


def _g2_t2_pairs(preset):
    return ([(1, i) for i in range(2, 8)] + [(i, 7) for i in range(2, 7)]
            + [(2, 5), (2, 6), (3, 5), (3, 6)])


# closure rows (see ClosureSpec), each family's in match order
_T2_ROW = (2, "T2", 0, "T2(z)", "-T2(zq^-2)", None)
_E6_ROWS = ((8, "T5", 4, "T5(zq^4), the orientation of the D_n and G_2 closures", "-T5(zq^-4)",
             "orientation: delta(w/zq^8) carries T5(zq^4), "
             "same orientation as the D_n and G_2 closures"),
            (2, None, 0, None, None, None))


def _t_number(b: int) -> LaurentPoly:
    """The t-number [b] = t^b - t^-b of any integer b: 0 at b = 0, -[-b] below."""
    return sym_minus(b) if b > 0 else -sym_minus(-b) if b else LaurentPoly.zero()


def _dn_lambdas(n: int) -> tuple[YMonomial, ...]:
    lams = []
    for i in range(1, n - 1):
        factors = [(i, -i + 1, 1)]
        if i > 1:
            factors.append((i - 1, -i, -1))
        lams.append(YMonomial.from_factors(factors))
    lams.append(YMonomial.from_factors([(n, -n + 2, 1), (n - 1, -n + 2, 1), (n - 2, -n + 1, -1)]))
    lams.append(YMonomial.from_factors([(n - 1, -n + 2, 1), (n, -n, -1)]))
    lams.append(YMonomial.from_factors([(n, -n + 2, 1), (n - 1, -n, -1)]))
    lams.append(YMonomial.from_factors([(n - 2, -n + 1, 1), (n - 1, -n, -1), (n, -n, -1)]))
    for i in range(n - 2, 0, -1):
        factors = [(i, -2 * n + i + 1, -1)]
        if i > 1:
            factors.append((i - 1, -2 * n + i + 2, 1))
        lams.append(YMonomial.from_factors(factors))
    return tuple(lams)


# The reduced lcm of the G2 entry denominators: (t^6 + t^-6) / (t^2 + t^-2).
_G2_Q = LaurentPoly({4: 1, 0: -1, -4: 1})


def _e6_pair_table():
    forms = {
        sym_plus(6) * sym_minus(3): [  # d_long
            (((1, 1), (5, 5)), sym_minus(1) * sym_minus(8)),
            (((1, 2), (4, 5)), sym_minus(1) * sym_minus(5) * sym_plus(2)),
            (((2, 2), (4, 4)), sym_minus(4) * sym_minus(5)),
            (((1, 4), (2, 5)), sym_minus(2) * sym_minus(4)),
            (((2, 4),), sym_minus(2) * sym_minus(4) * sym_plus(1)),
            (((1, 5),), sym_minus(1) * sym_minus(4))],
        sym_plus(6): [  # d_short
            (((1, 3), (2, 6), (4, 6), (3, 5)), sym_minus(4)),
            (((2, 3), (3, 4)), sym_minus(4) * sym_plus(1)),
            (((3, 3),), sym_minus(3) * sym_plus(1) * sym_plus(2)),
            (((1, 6), (5, 6)), sym_minus(1) * sym_plus(2)),
            (((3, 6),), sym_minus(3) * sym_plus(2))],
        sym_plus(1) * sym_plus(6): [  # d_extra
            (((6, 6),), sym_minus(4) * sym_plus(3))]}
    # the reduced lcm of the denominators: the G2 one times t^2 + 1 + t^-2
    return _pair_table(_G2_Q * LaurentPoly({2: 1, 0: 1, -2: 1}), forms)


# The 27 fundamental monomials for E6, exactly as displayed.
_E6_LAMBDA_FACTORS = (
    ((1, -8, -1), (2, -7, 1), (3, -8, -1), (6, -7, 1)),
    ((1, -8, -1), (2, -7, 1), (6, -9, -1)),
    ((1, -8, -1), (3, -6, 1), (4, -7, -1)),
    ((1, -8, -1), (4, -5, 1), (5, -6, -1)),
    ((2, -9, -1), (3, -8, 1), (6, -9, -1)),
    ((2, -9, -1), (6, -7, 1)),
    ((3, -10, -1), (4, -9, 1)),
    ((4, -11, -1), (5, -10, 1)),
    ((1, -6, 1), (2, -7, -1), (3, -6, 1), (4, -7, -1)),
    ((1, -6, 1), (2, -7, -1), (4, -5, 1), (5, -6, -1)),
    ((1, -6, 1), (3, -8, -1), (6, -7, 1)),
    ((1, -6, 1), (6, -9, -1)),
    ((2, -5, 1), (3, -6, -1), (4, -5, 1), (5, -6, -1)),
    ((2, -5, 1), (4, -7, -1)),
    ((3, -4, 1), (5, -6, -1), (6, -5, -1)),
    ((5, -6, -1), (6, -3, 1)),
    ((1, -8, -1), (5, -4, 1)),
    ((1, -6, 1), (2, -7, -1), (5, -4, 1)),
    ((2, -5, 1), (3, -6, -1), (5, -4, 1)),
    ((3, -4, 1), (4, -5, -1), (5, -4, 1), (6, -5, -1)),
    ((4, -5, -1), (5, -4, 1), (6, -3, 1)),
    ((4, -3, 1), (6, -5, -1)),
    ((3, -4, -1), (4, -3, 1), (6, -3, 1)),
    ((2, -3, -1), (3, -2, 1)),
    ((1, -2, -1), (2, -1, 1)),
    ((1, 0, 1),),
    ((5, -12, -1),),
)

# The 7 fundamental monomials for G2, exactly as displayed.
_G2_LAMBDA_FACTORS = (
    ((1, 0, 1),),
    ((1, -2, -1), (2, -1, 1)),
    ((1, -4, 1), (1, -6, 1), (2, -7, -1)),
    ((1, -4, 1), (1, -8, -1)),
    ((1, -6, -1), (1, -8, -1), (2, -5, 1)),
    ((1, -10, 1), (2, -11, -1)),
    ((1, -12, -1),),
)


def _g2_pair_table():
    return _pair_table(_G2_Q, {sym_plus(6): [
        (((1, 1),), sym_plus(3) * sym_minus(1) * sym_plus(2)),
        (((1, 2),), sym_minus(3) * sym_plus(2)),
        (((2, 2),), sym_minus(3) * sym_plus(1) * sym_plus(2))]})


def build_preset(kind: str, n: int | None = None) -> AlgebraPreset:
    """Construct a fully populated preset; kind is one of dn, e6, g2.

    Each family's tables, B and closure spec are filled here and nowhere
    else.  D and Mtilde are read off B: Mtilde_ij = [B_ij] and
    d_i = [B_ii / 2], with equal t-numbers one shared object.
    """
    if kind == "dn":
        if n is None or n < 4:
            raise ValueError("the dn family needs n >= 4, got %r" % (n,))
        name, pair_table, lambdas = "d%d" % n, _dn_pair_table(n), _dn_lambdas(n)
        b = _simply_laced_b(n, [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)])
        closure = ClosureSpec((_T2_ROW, (2 * n - 2, "1", 0, "1", "-1", None)),
                              _dn_t2_pairs, None, True)
    elif n is not None:
        raise ValueError("n is only meaningful for the dn family")
    elif kind == "e6":
        name, pair_table, b = kind, _e6_pair_table(), _simply_laced_b(6, _E6_EDGES)
        lambdas = tuple(YMonomial.from_factors(f) for f in _E6_LAMBDA_FACTORS)
        closure = ClosureSpec(_E6_ROWS, None, "T5", False)
    elif kind == "g2":
        name, pair_table, b = kind, _g2_pair_table(), ((2, -3), (-3, 6))
        lambdas = tuple(YMonomial.from_factors(f) for f in _G2_LAMBDA_FACTORS)
        closure = ClosureSpec((_T2_ROW, (8, "T1", 4, "T1(zq^4)", "-T1(zq^-4)", None),
                               (12, "1", 0, "1", "-1", None)), _g2_t2_pairs, "T1", False)
    else:
        raise ValueError("unknown algebra kind %r" % (kind,))
    halves = [row[i] // 2 for i, row in enumerate(b)]
    numbers = {v: _t_number(v) for v in {*halves}.union(*b)}
    return AlgebraPreset(name, pair_table, d=tuple(numbers[v] for v in halves),
                         mtilde=tuple(tuple(numbers[v] for v in row) for row in b),
                         lambdas=lambdas, b=b, closure=closure)


def _q_cartan(d: tuple[LaurentPoly, ...], mtilde: LaurentRows) -> tuple[LaurentPoly, list]:
    """(L, Z) with Z = L D^-1 Mtilde in the Laurent ring, as sparse rows.

    Row k of Z is the list of (j, Z_kj) over its nonzero entries, j
    ascending.  With B = DC, Mtilde_kj = [r_k C_kj] and d_k = [r_k], so row
    k of D^-1 Mtilde is Laurent: t^r_k + t^-r_k on the diagonal and -1 on
    each simply-laced edge, the q-Cartan matrix of W_q(g).  Where d_k
    divides every entry of row k, row k of Z is that row divided by d_k,
    one exact laurent_divide per distinct pair of entry and d_k objects
    (a preset shares each t-number), times L.  L is the product of the
    distinct d_k that do not divide their row, and such a row of Z is
    Mtilde_kj (L/d_k).  So L is 1, and Z is the q-Cartan matrix itself, on
    every correct preset.  d must have no zero entry.
    """
    quotients = {}   # (id(Mtilde entry), id(d_k)) -> Mtilde entry / d_k, or None
    nonzero = []     # the nonzero (j, Mtilde_kj) of each row k
    rows = []        # the nonzero (j, Mtilde_kj / d_k) of row k; None where d_k fails to divide
    for dk, row in zip(d, mtilde):
        entries = [(j, e) for j, e in enumerate(row) if e.terms]
        nonzero.append(entries)
        quo = []
        for j, e in entries:
            key = id(e), id(dk)
            if key not in quotients:
                quotients[key] = laurent_divide(e, dk)
            e = quotients[key]
            if e is None:
                quo = None
                break
            quo.append((j, e))
        rows.append(quo)
    undivided = dict.fromkeys(dk for dk, quo in zip(d, rows) if quo is None)
    if not undivided:
        return LaurentPoly.one(), rows
    # L/d_k is the product of the other undivided diagonal entries
    cof = {p: reduce(mul, (o for o in undivided if o != p), LaurentPoly.one())
           for p in undivided}
    big_l = reduce(mul, undivided, LaurentPoly.one())
    return big_l, [[(j, e * cof[dk]) for j, e in row] if quo is None
                   else [(j, e * big_l) for j, e in quo]
                   for dk, row, quo in zip(d, nonzero, rows)]


def _integral(maps: list) -> tuple[list, int]:
    """(maps, c): term maps scaled to int coefficients, and their largest |coefficient|.

    The scale is the lcm of every denominator, shared by all the maps.  An
    all-int list, which is every preset's, is returned as it is: a sum of
    ints is an int, and any Fraction makes the sum one.
    """
    coeffs = list(chain.from_iterable(map(dict.values, maps)))
    top = max(max(coeffs), -min(coeffs))
    if type(sum(coeffs)) is int:
        return maps, top
    s = lcm(*(c.denominator for c in coeffs))
    return [{e: int(c * s) for e, c in m.items()} for m in maps], int(top * s)


def _at_power_of_two(maps: list, w: int) -> list[int]:
    """The value at t = 2^w of each int term map times t^-lo, lo their least exponent.

    The one offset lo makes every shift non-negative, so each value is one
    exact int; at least one map must be nonzero.
    """
    exps = set().union(*maps)
    lo = min(exps)
    shift = {e: w * (e - lo) for e in exps}
    return [sum(map(lshift, m.values(), map(shift.__getitem__, m))) for m in maps]


def _identity_residual(preset: AlgebraPreset) -> tuple[str | None, list, tuple]:
    """Check M D^-1 Mtilde D^-1 = I exactly, with no fraction: the cartan_residual.

    With M = N/Q, d_k = D_kk and Z = L D^-1 Mtilde from _q_cartan, the
    identity reads

        R_ij = sum_k N_ik Z_kj - Q L d_j delta_ij = 0

    in the Laurent ring, where L is 1 on every correct preset, so Z is the
    q-Cartan matrix D^-1 Mtilde.  Over a field a one-sided inverse of a
    square matrix is two-sided, so this proves that M is invertible with
    D M^-1 D = Mtilde, that Mtilde is invertible with D Mtilde^-1 D = M,
    and that det M != 0.

    It is decided with one exact integer per table entry (Kronecker
    substitution).  Q, N, Z and L d are scaled to int coefficients by the
    lcm s of their denominators, which turns R into s^2 R, and each is
    multiplied by t^-lo, lo their least exponent, which turns R_ij into the
    polynomial s^2 R_ij t^(-2 lo).  With c the largest |coefficient| after
    scaling, a polynomial of n terms has l1 norm at most n c, and the l1
    norm is submultiplicative, so every coefficient of it is at most

        bound = c^2 (max_ik #N_ik * max_j #Z_*j + #Q * max_j #(L d_j)),

    #p the number of terms of p and Z_*j column j of Z.  With
    2^(w-1) > bound a nonzero such polynomial is nonzero at t = 2^w: its
    lowest coefficient would otherwise be a nonzero multiple of 2^w.  So
    the equality of the two ints of each entry is a proof, not a sample.
    Each entry of N (of its upper triangle, mirrored, where N is symmetric)
    and of Z is evaluated once, and column j of N Z - Q L D at 2^w is the
    sum of the columns k of N times the ints Z_kj(2^w), less Q(2^w)
    (L d_j)(2^w) on the diagonal, one product per distinct L d_j.

    The failure names the first entry, row by row, that breaks the
    identity.  That entry alone is summed again as a term map, N_ik added
    once per term of Z_kj, to print the canonical form of lhs / rhs, which
    does not depend on L.  The test oracle residual_cleared_by_every_d
    keeps the term-map sum of every entry as the cross-check, and
    cartan_identity_at_two_to_the_k shares only the method.
    """
    r = preset.rank
    q, nums = preset.pair_table
    d = preset.d
    for k, dk in enumerate(d):
        if not dk.terms:
            return ("D entry (%d,%d) is %s; D must be diagonal with a nonzero diagonal"
                    % (k + 1, k + 1, dk)), [], ()
    big_l, z = _q_cartan(d, preset.mtilde)
    zcols = [[] for _ in range(r)]   # the nonzero Z_kj of each column j, as (k, term map)
    for k, row in enumerate(z):
        for j, e in row:
            zcols[j].append((k, e.terms))
    # column j of Z, flattened: a (k, e, c) for each term c t^e of each nonzero Z_kj
    cols = [[(k, e, c) for k, t in col for e, c in t.items()] for col in zcols]
    ld = d if big_l == LaurentPoly.one() else tuple(big_l * dj for dj in d)
    distinct = {id(e): e for e in ld}
    symmetric = preset.n_symmetric
    n_maps = [e.terms for i, row in enumerate(nums) for e in (row[i:] if symmetric else row)]
    ld_maps = [e.terms for e in distinct.values()]
    maps, c = _integral([q.terms, *n_maps, *ld_maps, *(t for col in zcols for _, t in col)])
    bound = c * c * (max(map(len, n_maps)) * max(map(len, cols))
                     + len(q.terms) * max(map(len, ld_maps)))
    # the values at 2^w, in the order of maps
    values = iter(_at_power_of_two(maps, bound.bit_length() + 1))
    q_value = next(values)
    # the rows of N, or of its upper triangle padded with zeros where N is symmetric
    rows = [[0] * i + list(islice(values, r - i)) for i in (range(r) if symmetric else [0] * r)]
    ncols = list(zip(*rows))
    if symmetric:
        # column k of N: the upper triangle's column k above the diagonal, then its row k
        ncols = [col[:k] + tuple(row[k:]) for k, (col, row) in enumerate(zip(ncols, rows))]
    rhs = {key: q_value * next(values) for key in distinct}
    failed = []   # (the first row i that breaks column j, j)
    for j, col in enumerate(zcols):
        # column j of N Z - Q L D at 2^w; zip reads col first, so it takes
        # exactly len(col) values
        acc = [0] * r
        acc[j] = -rhs[id(ld[j])]
        for (k, _), v in zip(col, values):
            acc = list(map(add, acc, map(mul, ncols[k], repeat(v))))
        if any(acc):
            failed.append((next(i for i, v in enumerate(acc) if v), j))
    if not failed:
        return None, cols, ld
    i, j = min(failed)   # the first failing entry, row by row
    acc = {}
    for k, e, c in cols[j]:
        _add_scaled(acc, e, c, nums[i][k].terms)
    lhs = LaurentPoly._raw(_int_valued(acc))
    return ("entry (%d,%d) of M D^-1 Mtilde D^-1: computed %s, expected %d"
            % (i + 1, j + 1, RationalFunction(lhs, q * ld[j]), i == j)), cols, ld


def _classical_limit(p: LaurentPoly) -> int | Fraction | None:
    """The value at t = 1 of p(t) / (t - t^-1), or None if it has a pole there.

    t - t^-1 has a simple zero at t = 1 with derivative 2, so the quotient is
    finite there iff p(1) = sum c_e vanishes, and then equals
    p'(1) / 2 = sum e c_e / 2.
    """
    if sum(p.terms.values()):
        return None
    return _exact_quotient(sum(e * c for e, c in p.terms.items()), 2)


def _limit_failure(preset: AlgebraPreset) -> str | None:
    """Check the normalized t -> 1 limits of D and Mtilde; None if they hold.

    Each entry of Mtilde divided by (t - t^-1) and evaluated at t = 1 must
    give the symmetrized Cartan integer B_ij, and each d_i must give
    B_ii / 2, a Fraction where B_ii is odd.  The residual of D M^-1 D does
    not see the sign of D, so the limit of d is what fixes it.  The entries
    are Laurent, so each limit is read off their terms (_classical_limit).
    Returns the failure, naming the first entry of d, then of Mtilde, with a
    pole or a differing limit.
    """
    expected = preset.b
    # D and Mtilde share one object per t-number: each limit is computed once
    # per distinct object, which is found by id, so no entry is hashed
    limits = {id(e): e for e in chain(preset.d, *preset.mtilde)}
    limits = {key: _classical_limit(e) for key, e in limits.items()}
    for i, e in enumerate(preset.d):
        limit, half = limits[id(e)], _exact_quotient(expected[i][i], 2)
        if limit is None:
            return "limit of d_%d: %s divided by t - t^-1 has a pole at t = 1" % (i + 1, e)
        if limit != half:
            return "limit of d_%d: got %s, expected %s" % (i + 1, limit, half)
    for i, row in enumerate(preset.mtilde):
        # a row is walked entry by entry only where it fails, for the text
        if tuple(map(limits.__getitem__, map(id, row))) == expected[i]:
            continue
        for j, e in enumerate(row):
            limit = limits[id(e)]
            if limit is None:
                return ("limit entry (%d,%d): %s divided by t - t^-1 has a pole at t = 1"
                        % (i + 1, j + 1, e))
            if limit != expected[i][j]:
                return ("limit entry (%d,%d): got %s, expected %d"
                        % (i + 1, j + 1, limit, expected[i][j]))
    return None


def verify_cartan(preset: AlgebraPreset) -> VerificationOutcome:
    """Check D M^-1 D against the printed deformed Cartan matrix, exactly.

    Records two checks: the residual over the q-Cartan matrix,
    sum_k N_ik Z_kj = Q L d_j delta_ij with Z = L D^-1 Mtilde and L = 1 on
    every correct preset, which also proves the dual identity
    D Mtilde^-1 D = M (identity_holds records its result), and then, only
    if it holds, the normalized classical limit of _limit_failure.  The
    residual is decided by one exact int per table entry at t = 2^w, a
    proof for int and rational tables alike (_identity_residual); it is the
    preset's cartan_residual, computed on the first read, here or in
    bracket_sum, whose lowering steps read it too.
    """
    out = VerificationOutcome()
    residual = preset.cartan_residual[0]
    out.identity_holds = out.check(
        residual is None,
        "D M^-1 D matches the printed deformed Cartan matrix (%s)" % preset.name, residual)
    if out.identity_holds:
        limit = _limit_failure(preset)
        out.check(limit is None,
                  "normalized t -> 1 limit equals the symmetrized Cartan matrix", limit)
    return out
