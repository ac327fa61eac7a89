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
against.  E6's and G2's pair tables are built from the closed forms of
M_ij, grouped under their denominators, each denominator declared once.
D_n's is semiseparable, and is held as scaled rows that share one vector
(PairRows), each entry multiplied out only when it is read.  The preset also
carries its closure spec (ClosureSpec), what {T1, T1} must give, so every
verifier reads the preset alone: one built elsewhere is verified the same way.

VerificationOutcome is the one verdict record: every verifier, here and in
the bracket engine, records each of its checks through
VerificationOutcome.check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, repeat
from operator import mul
from typing import Callable, NamedTuple

from .exactfield import (LaurentPoly, RationalFunction, _add_scaled, _exact_quotient,
                         _int_valued, laurent_divide, laurent_divmod, sym_minus, sym_plus)
from .genexpr import YMonomial
from .rflinalg import FieldMatrix

LaurentRows = tuple[tuple[LaurentPoly, ...], ...]

# the scale of a row whose entries are its vector's own objects
_ONE = LaurentPoly.one()


class PairRows:
    """A symmetric pair table N, held as the scaled rows of its upper triangle.

    rows[i] is (scale, vec, first): N_ij = scale * vec[first + j - i] for
    j >= i, and N_ji = N_ij.  Rows may share one vec, so D_n's table of
    n (n + 1) / 2 entries is held in O(n) polynomials (_dn_pair_table).
    It reads like the tuple of rows it stands for: len, iteration, N[i]
    and N[i][j] give the entries, each multiplied out on its first read and
    kept, one object for (i, j) and (j, i).  A row whose scale is _ONE
    gives vec's own objects.  The Cartan residual reads the rows themselves,
    summing over the groups of rows that share vec and first - i
    (_identity_residual).  m_parity multiplies out no entry where that
    residual holds, and reads N[i][j] only in its direct fallback.
    """

    __slots__ = ("rows", "_entries")

    def __init__(self, rows):
        self.rows = tuple(rows)
        self._entries = {}   # i * rank + j, i <= j -> N_ij

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return _PairRow(self, range(len(self.rows))[i])

    def __iter__(self):
        return map(_PairRow, repeat(self), range(len(self.rows)))

    def entry(self, i: int, j: int) -> LaurentPoly:
        """N_ij, multiplied out on its first read of either triangle."""
        if j < i:
            i, j = j, i
        key = i * len(self.rows) + j
        e = self._entries.get(key)
        if e is None:
            scale, vec, first = self.rows[i]
            e = vec[first + j - i]
            if scale is not _ONE:
                e = scale * e
            self._entries[key] = e
        return e


class _PairRow:
    """Row i of a PairRows; its entries are read one at a time, on demand."""

    __slots__ = ("table", "i")

    def __init__(self, table: PairRows, i: int):
        self.table, self.i = table, i

    def __len__(self):
        _, vec, first = self.table.rows[self.i]
        return self.i + len(vec) - first

    def __getitem__(self, j):
        return self.table.entry(self.i, range(len(self))[j])

    def __iter__(self):
        return map(self.table.entry, repeat(self.i), range(len(self)))


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

    def __init__(self, name: str, pair_table: tuple[LaurentPoly, LaurentRows | PairRows],
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
        """Whether the table N, and so M, is symmetric.

        A PairRows is symmetric by construction; a tuple table is tested
        once, by one comparison of its r^2 entries.  m_parity and the
        Cartan residual both read it; where it holds, each reads the upper
        triangle only.
        """
        nums = self.pair_table[1]
        return isinstance(nums, PairRows) or tuple(zip(*nums)) == nums

    @cached_property
    def m_parity(self) -> tuple[bool, bool]:
        """(symmetric, odd) for M = N/Q under t -> 1/t.

        Where the Cartan residual holds, D M^-1 D = Mtilde, so
        M = D Mtilde^-1 D, and where every entry of D and Mtilde is odd
        (dm_odd), as every t-number [b] = t^b - t^-b is,
        M(1/t) = (-D) (-Mtilde)^-1 (-D) = -M: M is odd, read off with no
        product.  Anywhere else (a failing residual, a zero d_k, an entry of
        D or Mtilde that is not odd) each entry of N is tested directly: M is
        odd iff N(1/t) Q(t) + N(t) Q(1/t) = 0, both products added into one
        term map that must end up empty, over the upper triangle only where N
        is symmetric.  Brackets are taken over unordered pairs, which is
        exact only when both hold.
        """
        symmetric = self.n_symmetric
        if self.dm_odd and self.cartan_residual[0] is None:
            return symmetric, True
        q, nums = self.pair_table
        qt, r = q.terms, self.rank
        for i in range(r):
            for j in range(i if symmetric else 0, r):
                terms = nums[i][j].terms
                acc = {}
                for e, c in terms.items():
                    _add_scaled(acc, -e, c, qt)
                for e, c in qt.items():
                    _add_scaled(acc, -e, c, terms)
                if acc:
                    return symmetric, False
        return symmetric, True

    @cached_property
    def dm_entries(self) -> dict:
        """id -> entry over the distinct entry objects of D and Mtilde.

        The preset shares one object per t-number, so this walks D and
        Mtilde once; dm_odd and _limit_failure read it, and no entry is
        hashed.
        """
        return {id(e): e for e in chain(self.d, *self.mtilde)}

    @cached_property
    def dm_odd(self) -> bool:
        """Whether every entry of D and Mtilde is odd, e(1/t) = -e(t).

        Each distinct entry object is tested once (dm_entries); m_parity and
        verify_all read it.
        """
        return all(e.invert_var() == -e for e in self.dm_entries.values())

    @cached_property
    def cartan_residual(self) -> tuple[str | None, list, tuple]:
        """(failure, cols, ld): the residual of M D^-1 Mtilde D^-1 = I, once per preset.

        failure is None when the residual holds, else the text naming the
        first entry that breaks it; _identity_residual decides it with exact
        term-map sums over the row groups of N, and verify_cartan reads it.
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
    """(Q, N) as tuple rows from a declared Q and the closed forms grouped under their den.

    forms maps each den to a list of (pairs, num): M_ij = num / den for
    every unordered pair (i, j), i <= j (1-based), in pairs, and N is
    filled in both triangles from it.
    Each form is one exact division num * Q / den: no E6 or G2 den divides
    their Q, so no cofactor Q / den exists to share.  Raises ArithmeticError
    if den does not divide num * Q.  Q and N are shifted together so that Q
    has min exponent 0, as laurent_divmod needs.
    """
    q = q.shift(-q.min_exp)
    rank = max(j for group in forms.values() for pairs, *_ in group for _, j in pairs)
    rows = [[None] * rank for _ in range(rank)]
    for den, group in forms.items():
        for pairs, num in group:
            quo = _divided(num * q, den, q)
            for i, j in pairs:
                rows[i - 1][j - 1] = rows[j - 1][i - 1] = quo
    return q, tuple(map(tuple, rows))


def _divided(num: LaurentPoly, den: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """num / den, exact; ArithmeticError, naming Q, where den does not divide num."""
    quo = laurent_divide(num, den)
    if quo is None:
        raise ArithmeticError("declared Q = %s is not a multiple of %s" % (q, den))
    return quo


def _dn_pair_table(n: int) -> tuple[LaurentPoly, PairRows]:
    """(Q, N) for D_n, N as the scaled rows of its upper triangle (PairRows).

    M = D Mtilde^-1 D is the inverse of a q-Cartan matrix that is
    tridiagonal along the chain, so it is semiseparable: with den =
    [n-1]_+ = t^(n-1) + t^-(n-1), M_ij = [i] [n-1-j]_+ / den for
    i <= j <= n-2 and M_ij = [i] / den for j = n-1, n, with [k] = t^k - t^-k.
    So row i <= n-2 is the scale [i] times the suffix from column i of one
    vector b, b_j = [n-1-j]_+ (Q / den) for j <= n-2 and Q / den for
    j = n-1, n: n - 2 products make b.  The long block over den_long =
    (t + t^-1) den holds M_(n-1,n-1) = M_nn = [n] / den_long and
    M_(n-1,n) = [n-2] / den_long.  Q is the reduced lcm of den and
    den_long: den_long itself for odd n, where the block is the monomial
    scale Q / den_long over ([n], [n-2]); den for even n, where t + t^-1
    divides both block numerators, and the block is the two exact
    divisions [k] Q / den_long under the scale 1.
    """
    den = sym_plus(n - 1)
    den_long = sym_plus(1) * den
    q = den_long if n % 2 else den
    q = q.shift(-q.min_exp)
    cof = _divided(q, den, q)
    b = tuple(sym_plus(n - 1 - j) * cof for j in range(1, n - 1)) + (cof, cof)
    if n % 2:
        scale, top, side = _divided(q, den_long, q), sym_minus(n), sym_minus(n - 2)
    else:
        scale = _ONE
        top, side = (_divided(sym_minus(k) * q, den_long, q) for k in (n, n - 2))
    return q, PairRows([(sym_minus(i), b, i - 1) for i in range(1, n - 1)]
                       + [(scale, (top, side), 0), (scale, (top,), 0)])


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
    """The 2n fundamental monomials of D_n, each written as its sorted factor triples."""
    raw = YMonomial._raw
    lams = [raw(((1, 0, 1),))]
    lams += [raw(((i - 1, -i, -1), (i, 1 - i, 1))) for i in range(2, n - 1)]
    lams += [raw(((n - 2, 1 - n, -1), (n - 1, 2 - n, 1), (n, 2 - n, 1))),
             raw(((n - 1, 2 - n, 1), (n, -n, -1))),
             raw(((n - 1, -n, -1), (n, 2 - n, 1))),
             raw(((n - 2, 1 - n, 1), (n - 1, -n, -1), (n, -n, -1)))]
    lams += [raw(((i - 1, i + 2 - 2 * n, 1), (i, i + 1 - 2 * n, -1))) for i in range(n - 2, 1, -1)]
    lams.append(raw(((1, 2 - 2 * n, -1),)))
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

    It is decided by exact term-map sums over the row groups of N.  N is
    read as rows (scale, vec, first): a PairRows's own rows, which hold
    D_n's table without multiplying an entry out, or a tuple row i as
    (1, row, i).  Rows that share vec and c = first - i form a group, where
    N_ik = scale_i vec[c + k] for k >= i, and for every k where N is not
    symmetric.  Column j of Z is nonzero on the rows K_j.
    - Above the band, every k in K_j is at least i (or N is not symmetric),
      so R_ij = scale_i G_j with G_j = sum_k vec[c + k] Z_kj: one sum per
      group and column.
    - Below it, N symmetric, every k in K_j is at most i and N_ik = N_ki;
      where all of K_j lies in one group, R_ij = vec[c + i] H_j with
      H_j = sum_k scale_k Z_kj: one sum per column.
    - The band between, the diagonal and the rows below a column whose K_j
      spans several groups (D_n's fork) are summed directly, each N_ik as
      scale times vec entry, term by term.
    The Laurent ring is an integral domain, so a zero G_j or H_j clears each
    of its rows, and otherwise the least of them with a nonzero scale_i or
    vec[c + i] breaks the identity: no bound and no evaluation.  D_n's chain
    is one group with K_j = {j-1, j, j+1}, so a column costs O(1) sums; a
    tuple table's groups are its rows, so each of its entries is one sum.

    The failure names the first entry, row by row, that breaks the
    identity: each column is searched only above the best row so far.  That
    entry's lhs alone is summed again, to print the canonical form of
    lhs / rhs, which does not depend on L.  The test oracle
    residual_cleared_by_every_d keeps the product of every entry as the
    cross-check, and cartan_identity_at_two_to_the_k shares no method with it.
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
    symmetric = preset.n_symmetric
    rows = nums.rows if isinstance(nums, PairRows) else [
        (_ONE, row, i) for i, row in enumerate(nums)]
    keys = [(id(vec), first - i) for i, (_, vec, first) in enumerate(rows)]
    groups = {}   # (id(vec), c) -> (vec, c, the rows of nonzero scale, ascending)
    for i, (scale, vec, first) in enumerate(rows):
        members = groups.setdefault(keys[i], (vec, first - i, []))[2]
        if scale.terms:
            members.append(i)

    def column_sum(col, factors):
        """sum_k s_k v_k Z_kj over column col of Z, (s_k, v_k) in factors, as a term map."""
        acc = {}
        for (_, zt), (s, v) in zip(col, factors):
            v = v.terms
            for es, cs in s.terms.items():
                for ez, cz in zt.items():
                    _add_scaled(acc, es + ez, cs * cz, v)
        return acc

    def lhs(i, col):
        """sum_k N_ik Z_kj, each N_ik read from its row as (scale, vec entry)."""
        factors = []
        for k, _ in col:
            a, b = (i, k) if k >= i or not symmetric else (k, i)
            scale, vec, first = rows[a]
            factors.append((scale, vec[first + b - a]))
        return column_sum(col, factors)

    failed, limit = None, r   # the first failing (i, j); a later column must fail above row limit
    for j, col in enumerate(zcols):
        cut, below = (col[0][0] + 1, col[-1][0]) if symmetric and col else (r, r)
        bad = []   # the least failing row of each kind
        for vec, c, members in groups.values():
            above = [i for i in members[:2] if i < min(cut, limit) and i != j]
            if above and column_sum(col, [(_ONE, vec[c + k]) for k, _ in col]):
                bad.append(above[0])
        one_group = len({keys[k] for k, _ in col}) == 1
        if one_group and below < limit:
            vec, c, _ = groups[keys[col[0][0]]]
            first = next((i for i in range(below, limit) if i != j and vec[c + i].terms), None)
            if first is not None and column_sum(col, [(_ONE, rows[k][0]) for k, _ in col]):
                bad.append(first)
        band = range(cut, min(below if one_group else r, limit))
        for i in sorted({*band, j} if j < limit else band):
            acc = lhs(i, col)
            if i == j:
                for e, c in ld[j].terms.items():
                    _add_scaled(acc, e, -c, q.terms)
            if acc:
                bad.append(i)
                break
        if bad:
            limit = min(bad)
            failed = limit, j
    if failed is None:
        return None, cols, ld
    i, j = failed
    computed = LaurentPoly._raw(_int_valued(lhs(i, zcols[j])))
    return ("entry (%d,%d) of M D^-1 Mtilde D^-1: computed %s, expected %d"
            % (i + 1, j + 1, RationalFunction(computed, q * ld[j]), i == j)), cols, ld


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
    # each limit is computed once per distinct entry object (dm_entries)
    limits = {key: _classical_limit(e) for key, e in preset.dm_entries.items()}
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
    residual is decided exactly, by term-map sums over the row groups of N,
    for int and rational tables alike (_identity_residual); it is the
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
