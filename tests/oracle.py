"""Test-side oracles: exact evaluation, a Fraction-matrix inverse, matrix
products over Laurent fractions, and a bracket over all ordered pairs; and
replace_preset, which builds a changed copy of a preset.  None
of this is part of the package, and none of it shares code with the
verification paths it checks.
"""

from fractions import Fraction

from wqalg import AlgebraPreset, decompose, symbol
from wqalg.exactfield import LaurentPoly, RationalFunction
from wqalg.genexpr import SeriesExpr, YMonomial
from wqalg.rflinalg import FieldMatrix


class SingularMatrixError(ValueError):
    pass


def replace_preset(preset, **changes):
    """A new AlgebraPreset with the given tables changed and the others shared."""
    fields = {name: getattr(preset, name)
              for name in ("kind", "pair_table", "d", "mtilde", "lambdas")}
    fields.update(changes)
    return AlgebraPreset(**fields)


def evaluate(obj, x):
    """Exact value at the nonzero rational x.

    obj is a LaurentPoly, a plain {exponent: coefficient} map or a
    RationalFunction; for a FieldMatrix the result is the nested lists of
    entry values.  The sum is taken term by term, with no LaurentPoly code.
    """
    x = Fraction(x)
    if isinstance(obj, FieldMatrix):
        return [[evaluate(e, x) for e in row] for row in obj.rows]
    if isinstance(obj, RationalFunction):
        return evaluate(obj.num, x) / evaluate(obj.den, x)
    terms = obj.terms if isinstance(obj, LaurentPoly) else obj
    return sum((Fraction(c) * x ** e for e, c in terms.items()), Fraction(0))


def fraction_matrix_inverse(rows):
    """Exact inverse of a matrix of Fractions, by Gauss-Jordan elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix of rationals is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def int_valued(c):
    """Whether c is held as the coefficient policy asks: int, or non-integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def laurent_sum(*polys):
    """Sum of LaurentPolys, collected from their joined term lists."""
    return LaurentPoly([item for p in polys for item in p.terms.items()])


def assert_int_valued(terms):
    """No zero term, and a Fraction only where the coefficient is not integral.

    terms is a coefficient map, or has one as .terms (LaurentPoly, SeriesExpr).
    """
    terms = getattr(terms, "terms", terms)
    for c in terms.values():
        assert c != 0 and int_valued(c), terms


# --- matrices of Laurent fractions ---------------------------------------------
# An entry is a pair (num, den) of LaurentPolys standing for num/den.  Products
# and sums cross-multiply and never take a gcd, so no canonical form is used.

def fractions_of(mat: FieldMatrix):
    return [[(e.num, e.den) for e in row] for row in mat.rows]


def diagonal_inverse(mat: FieldMatrix):
    """The inverse of a diagonal matrix, each entry num/den turned to den/num."""
    zero = (LaurentPoly.zero(), LaurentPoly.one())
    return [[(e.den, e.num) if i == j else zero for j, e in enumerate(row)]
            for i, row in enumerate(mat.rows)]


def fraction_matmul(a, b):
    """Product of two matrices of (num, den) pairs; zero terms are skipped."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            num, den = LaurentPoly.zero(), LaurentPoly.one()
            for k in range(n):
                (p, q), (r, s) = a[i][k], b[k][j]
                if p and r:
                    num, den = laurent_sum(num * q * s, p * r * den), den * q * s
            row.append((num, den))
        out.append(row)
    return out


def product_is_identity(*factors) -> bool:
    """Whether the product of matrices of (num, den) pairs, left to right, is I:
    every entry num/den has num = den on the diagonal and num = 0 off it."""
    prod = factors[0]
    for f in factors[1:]:
        prod = fraction_matmul(prod, f)
    return all(num == (den if i == j else LaurentPoly.zero())
               for i, row in enumerate(prod) for j, (num, den) in enumerate(row))


# --- brackets of monomial sums ---------------------------------------------------

def ordered_pair_bracket(t_series, s_series, preset):
    """(base, {a: C_a}) of the bracket of two sums, over every ordered pair.

    Each pair is split by the public decompose(symbol(x, y)); a pair whose
    base differs from the first raises AssertionError.  The key of C_a is
    x * shift_arg(y, -a), built by YMonomial's own constructor from the
    factors, not by YMonomial products.
    """
    base, acc = None, {}
    for x, u in t_series.terms.items():
        for y, v in s_series.terms.items():
            dec = decompose(symbol(x, y, preset), preset)
            if base is None:
                base = dec.base_coeff
            assert dec.base_coeff == base, (x, y, dec.base_coeff, base)
            for a, c in dec.deltas.items():
                key = YMonomial(list(x.items()) + [((i, sh - a), e) for (i, sh), e in y.items()])
                acc.setdefault(a, []).append((key, u * v * c))
    deltas = {a: SeriesExpr(terms) for a, terms in acc.items()}
    return base, {a: series for a, series in deltas.items() if series.terms}


def antisymmetry_ok(report):
    """(ok, message): every C_a must pair with C_{-a} = -shift_arg(C_a, a)."""
    for a, series in sorted(report.delta_terms.items()):
        partner = report.delta_terms.get(-a)
        if partner is None:
            return False, "shift %d has no partner at %d" % (a, -a)
        if partner != -series.shift_arg(a):
            return False, "shift %d breaks the antisymmetry pairing" % a
    return True, None
