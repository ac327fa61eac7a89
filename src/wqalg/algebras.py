"""Presets for the D_n, E6 and G2 algebras.

Each preset carries the structure matrices M(t) and D(t), the expected
deformed Cartan matrix (printed form), and the fundamental-series monomial
table.  Everything downstream is verified against these tables alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactfield import (LaurentPoly, RationalFunction, laurent_divide, laurent_divmod,
                         laurent_primitive, poly_gcd, sym_minus, sym_plus)
from .genexpr import YMonomial
from .rflinalg import FieldMatrix


def _lcm_cofactors(polys):
    """Primitive lcm L of the distinct polys, and the cofactor L / p of each.

    Works on distinct values only, so each gcd and division is done once.
    """
    cofactors = dict.fromkeys(polys)
    lcm = LaurentPoly.one()
    for p in cofactors:
        lcm = lcm * laurent_divide(p, poly_gcd(lcm, p))
    lcm = laurent_primitive(lcm)
    for p in cofactors:
        cofactors[p] = laurent_divide(lcm, p)
    return lcm, cofactors


@dataclass(frozen=True, eq=False)
class AlgebraPreset:
    kind: str                      # "dn" | "e6" | "g2"
    rank: int
    n: int | None
    M: FieldMatrix
    D: FieldMatrix
    expected_mtilde: FieldMatrix
    lambdas: tuple[YMonomial, ...]
    fundamental_dim: int

    @property
    def name(self) -> str:
        return "d%d" % self.n if self.kind == "dn" else self.kind

    @cached_property
    def pair_table(self) -> tuple[LaurentPoly, tuple[tuple[LaurentPoly, ...], ...]]:
        """Common denominator Q and numerator table N with M_ij = N_ij / Q.

        Computed on first use and kept on the preset, so it lives exactly as
        long as the preset does.
        """
        q, cofactors = _lcm_cofactors(e.den for row in self.M.rows for e in row)
        nums = tuple(tuple(e.num * cofactors[e.den] for e in row) for row in self.M.rows)
        return q, nums

    @cached_property
    def m11_split(self) -> tuple[dict, dict]:
        """Term maps (quo, rem) of N_11 = quo * Q + rem, from laurent_divmod.

        Every delta decomposition is read off against this split; rem is
        nonzero exactly when M_11 is not a Laurent polynomial.
        """
        q, nums = self.pair_table
        return laurent_divmod(nums[0][0], q)


@dataclass
class VerificationOutcome:
    passed: bool
    details: list[str] = field(default_factory=list)
    failure: str | None = None
    # verify_cartan only: whether M D^-1 Mtilde D^-1 = I was shown to hold
    identity_holds: bool = False


def _rf(num: LaurentPoly, den: LaurentPoly | None = None) -> RationalFunction:
    return RationalFunction(num, den if den is not None else LaurentPoly.one())


def _dn_matrix(n: int) -> FieldMatrix:
    den = sym_plus(n - 1)
    den_long = sym_plus(1) * den
    rows = [[None] * n for _ in range(n)]
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = \
                _rf(sym_minus(i) * sym_plus(n - 1 - j), den)
    for i in range(1, n - 1):
        v = _rf(sym_minus(i), den)
        rows[n - 1][i - 1] = rows[i - 1][n - 1] = v
        rows[n - 2][i - 1] = rows[i - 1][n - 2] = v
    rows[n - 1][n - 2] = rows[n - 2][n - 1] = _rf(sym_minus(n - 2), den_long)
    rows[n - 2][n - 2] = rows[n - 1][n - 1] = _rf(sym_minus(n), den_long)
    return FieldMatrix(rows)


def _graph_mtilde(n: int, edges) -> FieldMatrix:
    diag = RationalFunction(sym_minus(2))
    off = RationalFunction(-sym_minus(1))
    zero = RationalFunction.zero()
    eset = {(min(a, b), max(a, b)) for a, b in edges}
    return FieldMatrix([[diag if i == j
                         else (off if (min(i, j), max(i, j)) in eset else zero)
                         for j in range(1, n + 1)] for i in range(1, n + 1)])


def _dn_edges(n: int):
    return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]


_E6_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]


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


def _e6_matrix() -> FieldMatrix:
    d_short = sym_plus(6)
    d_long = sym_plus(6) * sym_minus(3)
    d_extra = sym_plus(1) * sym_plus(6)
    entries = {}

    def put(i, j, num, den):
        entries[(i, j)] = entries[(j, i)] = _rf(num, den)

    put(1, 1, sym_minus(1) * sym_minus(8), d_long)
    put(5, 5, sym_minus(1) * sym_minus(8), d_long)
    put(1, 2, sym_minus(1) * sym_minus(5) * sym_plus(2), d_long)
    put(4, 5, sym_minus(1) * sym_minus(5) * sym_plus(2), d_long)
    put(2, 2, sym_minus(4) * sym_minus(5), d_long)
    put(4, 4, sym_minus(4) * sym_minus(5), d_long)
    for i, j in [(1, 3), (2, 6), (4, 6), (3, 5)]:
        put(i, j, sym_minus(4), d_short)
    put(2, 3, sym_minus(4) * sym_plus(1), d_short)
    put(3, 4, sym_minus(4) * sym_plus(1), d_short)
    put(3, 3, sym_minus(3) * sym_plus(1) * sym_plus(2), d_short)
    put(1, 6, sym_minus(1) * sym_plus(2), d_short)
    put(5, 6, sym_minus(1) * sym_plus(2), d_short)
    put(3, 6, sym_minus(3) * sym_plus(2), d_short)
    put(6, 6, sym_minus(4) * sym_plus(3), d_extra)
    put(1, 4, sym_minus(2) * sym_minus(4), d_long)
    put(2, 5, sym_minus(2) * sym_minus(4), d_long)
    put(2, 4, sym_minus(2) * sym_minus(4) * sym_plus(1), d_long)
    put(1, 5, sym_minus(1) * sym_minus(4), d_long)
    return FieldMatrix([[entries[(i, j)] for j in range(1, 7)] for i in range(1, 7)])


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


def _g2_matrix() -> FieldMatrix:
    den = sym_plus(6)
    m11 = _rf(sym_plus(3) * sym_minus(1) * sym_plus(2), den)
    m22 = _rf(sym_minus(3) * sym_plus(1) * sym_plus(2), den)
    m12 = _rf(sym_minus(3) * sym_plus(2), den)
    return FieldMatrix([[m11, m12], [m12, m22]])


def build_preset(kind: str, n: int | None = None) -> AlgebraPreset:
    """Construct a fully populated preset; kind is one of dn, e6, g2."""
    if kind == "dn":
        if n is None or n < 4:
            raise ValueError("the dn family needs n >= 4, got %r" % (n,))
        d = FieldMatrix.diagonal([RationalFunction(sym_minus(1))] * n)
        return AlgebraPreset(
            kind="dn", rank=n, n=n,
            M=_dn_matrix(n), D=d,
            expected_mtilde=_graph_mtilde(n, _dn_edges(n)),
            lambdas=_dn_lambdas(n),
            fundamental_dim=2 * n,
        )
    if n is not None:
        raise ValueError("n is only meaningful for the dn family")
    if kind == "e6":
        d = FieldMatrix.diagonal([RationalFunction(sym_minus(1))] * 6)
        return AlgebraPreset(
            kind="e6", rank=6, n=None,
            M=_e6_matrix(), D=d,
            expected_mtilde=_graph_mtilde(6, _E6_EDGES),
            lambdas=tuple(YMonomial.from_factors(f) for f in _E6_LAMBDA_FACTORS),
            fundamental_dim=27,
        )
    if kind == "g2":
        d = FieldMatrix.diagonal([RationalFunction(sym_minus(1)),
                                  RationalFunction(sym_minus(3))])
        mt = FieldMatrix([
            [RationalFunction(sym_minus(2)), RationalFunction(-sym_minus(3))],
            [RationalFunction(-sym_minus(3)), RationalFunction(sym_minus(6))],
        ])
        return AlgebraPreset(
            kind="g2", rank=2, n=None,
            M=_g2_matrix(), D=d,
            expected_mtilde=mt,
            lambdas=tuple(YMonomial.from_factors(f) for f in _G2_LAMBDA_FACTORS),
            fundamental_dim=7,
        )
    raise ValueError("unknown algebra kind %r" % (kind,))


def symmetrized_cartan(preset: AlgebraPreset):
    """Integer matrix the normalized t -> 1 limit of the deformed matrix must hit."""
    if preset.kind == "g2":
        return [[2, -3], [-3, 6]]
    edges = _dn_edges(preset.n) if preset.kind == "dn" else _E6_EDGES
    eset = {(min(a, b), max(a, b)) for a, b in edges}
    r = preset.rank
    return [[2 if i == j else (-1 if (min(i, j), max(i, j)) in eset else 0)
             for j in range(1, r + 1)] for i in range(1, r + 1)]


def _laurent_entries(name: str, mat: FieldMatrix, diagonal: bool):
    """Entries of mat as Laurent polynomials, or the first entry that breaks the shape.

    Returns (entries, None) or (None, failure).  With diagonal set, the
    off-diagonal entries must vanish and the diagonal ones must not.
    """
    entries = []
    for i, row in enumerate(mat.rows):
        out_row = []
        for j, e in enumerate(row):
            lp = e.as_laurent()
            if lp is None:
                return None, ("%s entry (%d,%d) is not a Laurent polynomial: %s"
                              % (name, i + 1, j + 1, e))
            if diagonal and (i == j) == lp.is_zero:
                return None, ("%s entry (%d,%d) is %s; %s must be diagonal with a "
                              "nonzero diagonal" % (name, i + 1, j + 1, e, name))
            out_row.append(lp)
        entries.append(out_row)
    return entries, None


def _identity_residual(preset: AlgebraPreset) -> str | None:
    """Check M D^-1 Mtilde D^-1 = I exactly, without division; None if it holds.

    With M = N/Q, d_k = D_kk and L = lcm(d_k), the identity reads

        sum_k N_ik Mtilde_kj (L/d_k) = Q L d_j delta_ij

    in the Laurent ring.  Over a field a one-sided inverse of a square matrix
    is two-sided, so this proves that M is invertible with D M^-1 D = Mtilde,
    that Mtilde is invertible with D Mtilde^-1 D = M, and that det M != 0.
    Returns the failure, naming the first entry that breaks the identity.
    """
    r = preset.rank
    if not preset.M.dim == preset.D.dim == preset.expected_mtilde.dim == r:
        return ("matrix sizes M %d, D %d, Mtilde %d do not match rank %d"
                % (preset.M.dim, preset.D.dim, preset.expected_mtilde.dim, r))
    dmat, failure = _laurent_entries("D", preset.D, diagonal=True)
    if failure is not None:
        return failure
    mtilde, failure = _laurent_entries("Mtilde", preset.expected_mtilde, diagonal=False)
    if failure is not None:
        return failure
    d = [dmat[k][k] for k in range(r)]
    lcm, cof = _lcm_cofactors(d)
    # column j of Mtilde D^-1, scaled by L: the nonzero (k, Mtilde_kj L/d_k)
    cols = [[(k, mtilde[k][j] * cof[d[k]]) for k in range(r) if mtilde[k][j]]
            for j in range(r)]
    q, nums = preset.pair_table
    diag = [q * lcm * dj for dj in d]
    zero = LaurentPoly.zero()
    for i in range(r):
        for j in range(r):
            lhs = zero
            for k, w in cols[j]:
                lhs = lhs + nums[i][k] * w
            if lhs != (diag[j] if i == j else zero):
                return ("entry (%d,%d) of M D^-1 Mtilde D^-1: computed %s, expected %d"
                        % (i + 1, j + 1, RationalFunction(lhs, diag[j]), i == j))
    return None


def _classical_limit(p: LaurentPoly) -> Fraction | None:
    """The value at t = 1 of p(t) / (t - t^-1), or None if it has a pole there.

    t - t^-1 has a simple zero at t = 1 with derivative 2, so the quotient is
    finite there iff p(1) = sum c_e vanishes, and then equals
    p'(1) / 2 = sum e c_e / 2.
    """
    if sum(p.terms.values()):
        return None
    return Fraction(sum(e * c for e, c in p.terms.items()), 2)


def verify_cartan(preset: AlgebraPreset) -> VerificationOutcome:
    """Check D M^-1 D against the printed deformed Cartan matrix, exactly.

    The identity is checked as the division-free residual of
    _identity_residual, which also proves the dual identity
    D Mtilde^-1 D = M; identity_holds records its result.  Then checks the
    normalized classical limit: each entry of Mtilde divided by (t - t^-1)
    and evaluated at t = 1 must give the symmetrized Cartan integer.  The
    residual check has shown every entry to be Laurent, so the limit is read
    off its terms (_classical_limit).  Fails on the first entry with a pole
    or a differing limit.
    """
    out = VerificationOutcome(passed=True)
    failure = _identity_residual(preset)
    if failure is not None:
        out.passed = False
        out.failure = failure
        return out
    out.identity_holds = True
    out.details.append("D M^-1 D matches the printed deformed Cartan matrix (%s)" % preset.name)
    expected = symmetrized_cartan(preset)
    for i, row in enumerate(preset.expected_mtilde.rows):
        for j, e in enumerate(row):
            limit = _classical_limit(e.as_laurent())
            if limit is None:
                out.failure = ("limit entry (%d,%d): %s divided by t - t^-1 has a pole "
                               "at t = 1" % (i + 1, j + 1, e))
            elif limit != expected[i][j]:
                out.failure = ("limit entry (%d,%d): got %s, expected %d"
                               % (i + 1, j + 1, limit, expected[i][j]))
            if out.failure is not None:
                out.passed = False
                return out
    out.details.append("normalized t -> 1 limit equals the symmetrized Cartan matrix")
    return out
