"""Test-side oracles: exact evaluation, a Fraction-matrix inverse, matrix
products over Laurent fractions, a symbol numerator summed over factor
pairs, a bracket over all ordered pairs, the parity of M by whole products,
the Cartan residual cleared of D^-1 by every distinct d_k, and the Cartan
identity and the pair table's closed forms at t = 2^K; and
replace_preset, which builds a changed copy of a preset, and an_preset, the
A_n control built from its published closed forms.  None of this is part of
the package, and none of it shares code with the verification paths it checks.
"""

from fractions import Fraction
from itertools import combinations

from wqalg import AlgebraPreset, ClosureSpec, decompose, symbol
from wqalg.exactfield import LaurentPoly, RationalFunction
from wqalg.genexpr import SeriesExpr, YMonomial
from wqalg.rflinalg import FieldMatrix


class SingularMatrixError(ValueError):
    pass


def replace_preset(preset, **changes):
    """A new AlgebraPreset with the given tables changed and the others shared."""
    fields = {name: getattr(preset, name)
              for name in ("name", "pair_table", "d", "mtilde", "lambdas", "b", "closure")}
    fields.update(changes)
    return AlgebraPreset(**fields)


def an_preset(n):
    """A_n, the preset of W_q(sl_(n+1)), from closed forms alone: no build_preset family.

    With [k] = t^k - t^-k: M_ij = [min(i,j)] [n+1-max(i,j)] / [n+1], over the
    one denominator Q = [n+1]; B is the A_n Cartan matrix, so d_i = [1] and
    Mtilde_ij = [B_ij]; Lambda_1 = Y_1(z), Lambda_i = Y_i(zq^(1-i)) Y_(i-1)(zq^-i)^-1
    and Lambda_(n+1) = Y_n(zq^(-n-1))^-1 (Frenkel-Reshetikhin, q-alg/9505025).
    Its closure spec: C(-2) = T2(z), with T2 summed over every pair i < j,
    every diagonal bracket pure, and no duality.
    """
    def bracket(k):
        return LaurentPoly({k: 1, -k: -1}) if k else LaurentPoly.zero()

    nodes = range(1, n + 1)
    # Q and N times t^(n+1), so that Q is a polynomial with a nonzero constant term
    nums = tuple(tuple((bracket(min(i, j)) * bracket(n + 1 - max(i, j))).shift(n + 1)
                       for j in nodes) for i in nodes)
    b = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in nodes)
              for i in nodes)
    # Lambda_i = Y_i(zq^(1-i)) Y_(i-1)(zq^-i)^-1, with no factor on node 0 or n + 1
    lambdas = tuple(YMonomial.from_factors(f for f in ((i, 1 - i, 1), (i - 1, -i, -1))
                                           if f[0] in nodes) for i in range(1, n + 2))
    closure = ClosureSpec(((2, "T2", 0, "T2(z)", "-T2(zq^-2)", None),),
                          lambda p: combinations(range(1, len(p.lambdas) + 1), 2), None, True)
    return AlgebraPreset("a%d" % n, (bracket(n + 1).shift(n + 1), nums), (bracket(1),) * n,
                         tuple(tuple(map(bracket, row)) for row in b), lambdas, b, closure)


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


def m_parity_by_products(preset):
    """(symmetric, odd) of M = N/Q, each entry tested by two whole products.

    Symmetric: N_ij == N_ji for every i > j.  Odd: N(1/t) Q(t) and
    -(N(t) Q(1/t)) are built as LaurentPolys and compared, for every entry.
    """
    q, nums = preset.pair_table
    q_inv = q.invert_var()
    return (all(nums[i][j] == nums[j][i] for i in range(len(nums)) for j in range(i)),
            all(e.invert_var() * q == -(e * q_inv) for row in nums for e in row))


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


# --- the Cartan residual cleared by every distinct d_k ----------------------------

def residual_cleared_by_every_d(preset):
    """The failure of sum_k N_ik Mtilde_kj (L/d_k) = Q L d_j delta_ij, or None if it holds.

    L is the product of all the distinct d_k, so every entry is cleared of
    D^-1 whatever divides it; each side is built from whole LaurentPoly
    products and sums.  The failure names the first entry, row by row, that
    breaks the identity, and prints the canonical form of lhs / rhs, in the
    words of verify_cartan; a zero d_k is named before any entry.  It is
    the entry-by-entry cross-check of verify_cartan, which decides the
    residual by term-map sums over the row groups of N, one per group and
    column.
    """
    q, nums = preset.pair_table
    d, mtilde = preset.d, preset.mtilde
    r = len(d)
    for k, dk in enumerate(d):
        if not dk:
            return ("D entry (%d,%d) is %s; D must be diagonal with a nonzero diagonal"
                    % (k + 1, k + 1, dk))

    def product(polys):
        out = LaurentPoly.one()
        for p in polys:
            out = out * p
        return out

    distinct = list(dict.fromkeys(d))
    big_l = product(distinct)
    scaled = [[mtilde[k][j] * product(o for o in distinct if o != d[k]) for j in range(r)]
              for k in range(r)]
    for i in range(r):
        for j in range(r):
            lhs = laurent_sum(*(nums[i][k] * scaled[k][j] for k in range(r)))
            rhs = q * big_l * d[j]
            if lhs != (rhs if i == j else LaurentPoly.zero()):
                return ("entry (%d,%d) of M D^-1 Mtilde D^-1: computed %s, expected %d"
                        % (i + 1, j + 1, RationalFunction(lhs, rhs), i == j))
    return None


# --- brackets of monomial sums ---------------------------------------------------

def direct_symbol_numerator(a, b, preset):
    """The term map of sum_{k,l} e_k f_l N_{i_k j_l} t^{b_l - a_k} over Q.

    Summed over every factor pair, one shifted N entry each, into a plain
    dict; the terms that cancel are dropped at the end.
    """
    nums = preset.pair_table[1]
    acc = {}
    for i, ash, e in a.factors:
        for j, bsh, f in b.factors:
            for x, c in nums[i - 1][j - 1].shift(bsh - ash).terms.items():
                acc[x] = acc.get(x, 0) + e * f * c
    return {x: c for x, c in acc.items() if c}


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
                y_shifted = [(i, sh - a, e) for i, sh, e in y.factors]
                key = YMonomial.from_factors(list(x.factors) + y_shifted)
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


# --- the Cartan identity at one power of two -------------------------------------

def cartan_identity_at_two_to_the_k(preset):
    """(holds, K): whether sum_k N_ik Mtilde_kj / d_k = Q d_j delta_ij at t = 2^K.

    Times L, the product of the distinct d_k, the difference of the two sides
    is a Laurent polynomial R_ij with integer coefficients (the tables must
    have integer coefficients), and the Cartan identity is R = 0.  Each
    coefficient of R_ij is at most its l1 norm, and the l1 norm is
    submultiplicative, so

        B = max_ij  sum_k |N_ik| |Mtilde_kj| |L/d_k|  +  delta_ij |Q| |L| |d_j|

    bounds them all, and bounds the coefficients of every d_k and of L too.
    A nonzero integer Laurent polynomial whose coefficients are all below
    2^(K-1) in absolute value is nonzero at 2^K: its lowest coefficient would
    otherwise be a nonzero multiple of 2^K.  So with 2^(K-1) > B one exact
    evaluation per entry, by evaluate, decides the identity: a proof, not a
    sample.  No LaurentPoly arithmetic is used.  verify_cartan decides its
    own residual, over Z = L D^-1 Mtilde, by term-map sums over the row
    groups of N, and shares no method with this check.
    """
    q, nums = preset.pair_table
    d, mtilde = preset.d, preset.mtilde
    tables = [q, *d, *(e for rows in (nums, mtilde) for row in rows for e in row)]
    assert all(type(c) is int for p in tables for c in p.terms.values())
    assert all(p.terms for p in d), "D has a zero diagonal entry"

    def l1(p):
        return sum(abs(c) for c in p.terms.values())

    # |L/d_k| <= the product of |o| over the distinct diagonal entries o other than d_k
    distinct = {tuple(sorted(p.terms.items())): l1(p) for p in d}
    big_l = 1
    for norm in distinct.values():
        big_l *= norm
    r = len(d)
    n_l1 = [[l1(e) for e in row] for row in nums]
    # column j of Mtilde: (k, a bound on |Mtilde_kj L/d_k|) for its nonzero entries
    cols = [[(k, l1(mtilde[k][j]) * big_l // l1(d[k])) for k in range(r) if mtilde[k][j].terms]
            for j in range(r)]
    bound = max(sum(n_l1[i][k] * w for k, w in cols[j])
                + (i == j) * l1(q) * big_l * l1(d[j])
                for i in range(r) for j in range(r))
    k_exp = bound.bit_length() + 1
    assert 2 ** (k_exp - 1) > bound
    x, values = 2 ** k_exp, {}

    def value(p):
        if id(p) not in values:
            values[id(p)] = evaluate(p, x)
        return values[id(p)]

    dx = [value(p) for p in d]
    for j, col in enumerate(cols):
        col = [(k, value(mtilde[k][j]) / dx[k]) for k, _ in col]
        for i in range(r):
            lhs = sum(value(nums[i][k]) * w for k, w in col)
            if lhs != (value(q) * dx[j] if i == j else 0):
                return False, k_exp
    return True, k_exp


# --- the pair table against the closed forms, at one power of two -----------------
# A closed form M_ij = num / den has num and den each a product of factors
# (a, s), standing for t^a + s t^-a with s = +-1: [a] for s = -1, {a} for s = 1.
# The forms are restated here from the paper, not read from the package.

G2_PAIR_FORMS = {
    (1, 1): (((3, 1), (1, -1), (2, 1)), ((6, 1),)),
    (1, 2): (((3, -1), (2, 1)), ((6, 1),)),
    (2, 2): (((3, -1), (1, 1), (2, 1)), ((6, 1),)),
}

# E6's 21 entries take 12 distinct forms over three denominators: {6},
# {6}[3] and {1}{6}.  Nodes 1-5 are the chain and node 6 hangs off node 3.
E6_PAIR_FORMS = {pair: form for pairs, form in (
    (((1, 1), (5, 5)), (((1, -1), (8, -1)), ((6, 1), (3, -1)))),
    (((1, 2), (4, 5)), (((1, -1), (5, -1), (2, 1)), ((6, 1), (3, -1)))),
    (((2, 2), (4, 4)), (((4, -1), (5, -1)), ((6, 1), (3, -1)))),
    (((1, 3), (2, 6), (4, 6), (3, 5)), (((4, -1),), ((6, 1),))),
    (((2, 3), (3, 4)), (((4, -1), (1, 1)), ((6, 1),))),
    (((3, 3),), (((3, -1), (1, 1), (2, 1)), ((6, 1),))),
    (((1, 6), (5, 6)), (((1, -1), (2, 1)), ((6, 1),))),
    (((3, 6),), (((3, -1), (2, 1)), ((6, 1),))),
    (((6, 6),), (((4, -1), (3, 1)), ((1, 1), (6, 1)))),
    (((1, 4), (2, 5)), (((2, -1), (4, -1)), ((6, 1), (3, -1)))),
    (((2, 4),), (((2, -1), (4, -1), (1, 1)), ((6, 1), (3, -1)))),
    (((1, 5),), (((1, -1), (4, -1)), ((6, 1), (3, -1))))) for pair in pairs}


def dn_pair_forms(n):
    """The closed forms of M_ij for D_n, one per unordered pair i <= j."""
    den, den_long = ((n - 1, 1),), ((1, 1), (n - 1, 1))
    forms = {}
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            forms[i, j] = ((i, -1), (n - 1 - j, 1)), den
        forms[i, n - 1] = forms[i, n] = ((i, -1),), den
    forms[n - 1, n] = ((n - 2, -1),), den_long
    forms[n - 1, n - 1] = forms[n, n] = ((n, -1),), den_long
    return forms


def an_pair_forms(n):
    """The closed forms of M_ij for A_n, one per unordered pair i <= j.

    M_ij = [i] [n+1-j] / [n+1]: the form an_preset builds its table from,
    restated here as factors.
    """
    return {(i, j): (((i, -1), (n + 1 - j, -1)), ((n + 1, -1),))
            for i in range(1, n + 1) for j in range(i, n + 1)}


def pair_table_at_two_to_the_k(preset):
    """(holds, K): whether N_ij den_ij = num_ij Q for every entry, at t = 2^K.

    The forms are G2_PAIR_FORMS, E6_PAIR_FORMS, dn_pair_forms(rank) or
    an_pair_forms(rank), chosen by the preset's name; any other name is
    refused, not read as D_n or A_n.  The difference R_ij of the two
    sides is an integer Laurent polynomial whose coefficients are at most
    |N_ij| 2^m' + 2^m |Q| in absolute value, with
    |p| the l1 norm and m, m' the factor counts of num and den (a product of
    m factors t^a +- t^-a has l1 norm 2^m).  With 2^(K-1) above that bound,
    R_ij(2^K) = 0 iff R_ij = 0, as in cartan_identity_at_two_to_the_k.  Every
    value is a plain int: a Laurent polynomial p is taken as p(x) x^s, with
    t^-s below all of N and Q, and a product of factors with exponent sum A
    as its value times x^A, prod (x^(2a) + s).  No LaurentPoly arithmetic is used.
    """
    q, nums = preset.pair_table
    r = len(nums)
    if preset.name == "d%d" % r:
        forms = dn_pair_forms(r)
    elif preset.name == "a%d" % r:
        forms = an_pair_forms(r)
    elif preset.name == "e6":
        forms = E6_PAIR_FORMS
    elif preset.name == "g2":
        forms = G2_PAIR_FORMS
    else:
        raise ValueError("no closed forms for %r" % (preset.name,))
    assert set(forms) == {(i, j) for i in range(1, r + 1) for j in range(i, r + 1)}
    entries = {id(e): e for row in nums for e in row}
    assert all(type(c) is int for p in (q, *entries.values()) for c in p.terms.values())

    def l1(p):
        return sum(abs(c) for c in p.terms.values())

    n_l1, q_l1 = {k: l1(e) for k, e in entries.items()}, l1(q)
    bound = max(n_l1[id(nums[i - 1][j - 1])] * 2 ** len(den) + 2 ** len(num) * q_l1
                for (i, j), (num, den) in forms.items())
    k_exp = bound.bit_length() + 1
    assert 2 ** (k_exp - 1) > bound
    s = max(0, *(-e for p in (q, *entries.values()) for e in p.terms))

    def laurent(p):
        return sum(c << k_exp * (e + s) for e, c in p.terms.items())

    def product(factors):
        out = 1
        for a, sign in factors:
            out *= (1 << 2 * a * k_exp) + sign
        return out, sum(a for a, _ in factors)

    values = {k: laurent(e) for k, e in entries.items()}
    qv = laurent(q)
    for (i, j), (num, den) in forms.items():
        (pv, a_num), (dv, a_den) = product(num), product(den)
        for e in {id(nums[i - 1][j - 1]), id(nums[j - 1][i - 1])}:
            # N den = num Q, both sides times x^(s + a_num + a_den)
            if (values[e] * dv) << k_exp * a_num != (pv * qv) << k_exp * a_den:
                return False, k_exp
    return True, k_exp
