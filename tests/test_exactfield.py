"""Exact Laurent arithmetic and the canonical rational-function form, checked by evaluation."""

import random
import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import assert_int_valued, evaluate, laurent_sum
from wqalg import build_preset, exactfield
from wqalg.exactfield import (LaurentPoly, RationalFunction, _poly_gcd, _primitive,
                              laurent_divide, laurent_divmod, sym_minus, sym_plus)
from wqalg.genexpr import SeriesExpr, YMonomial

T = sympy.Symbol("t")


def lp(d):
    return LaurentPoly(d)


def sympy_poly(p):
    """The ordinary-polynomial part of a nonzero p (t^min cleared), as a sympy Poly."""
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * T ** (e - p.min_exp)
                          for e, c in p.terms.items()), T)


def sympy_gcd(a, b):
    """gcd of the polynomial parts of two nonzero Laurent polynomials, by sympy."""
    return sympy.gcd(sympy_poly(a), sympy_poly(b))


def random_laurent(rng, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return LaurentPoly(terms)


def random_rf(rng):
    # built from the preset-style factors so denominators stay nonzero
    num = random_laurent(rng)
    den = sym_plus(rng.randint(1, 4)) * sym_minus(rng.randint(1, 3))
    if not num:
        num = LaurentPoly.one()
    return RationalFunction(num, den)


EVAL_POINTS = [Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-3, 2), Fraction(7, 4)]


def test_eval_oracle_on_laurent_ops():
    rng = random.Random(101)
    for _ in range(60):
        a, b = random_laurent(rng), random_laurent(rng)
        for x in EVAL_POINTS:
            assert evaluate(laurent_sum(a, b), x) == evaluate(a, x) + evaluate(b, x)
            assert evaluate(-b, x) == -evaluate(b, x)
            assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)


# --- symmetric factor constructors ------------------------------------------

def test_sym_minus_definition():
    assert sym_minus(1) == lp({1: 1, -1: -1})


def test_sym_plus_g2_denominator():
    assert sym_plus(6) == lp({6: 1, -6: 1})


def test_sym_factorization_identity():
    assert sym_minus(1) * sym_plus(1) == sym_minus(2)


@pytest.mark.parametrize("bad", [0, -1, -5])
def test_sym_factors_reject_nonpositive(bad):
    with pytest.raises(ValueError):
        sym_minus(bad)
    with pytest.raises(ValueError):
        sym_plus(bad)


# --- canonical values of products -------------------------------------------

def test_product_of_sym_factors():
    assert RationalFunction(sym_minus(1) * sym_plus(1)) == RationalFunction(sym_minus(2))


def test_g2_m11_times_denominator_expands():
    # m11 * (t^6 + t^-6) = expanded, cross-multiplied over m11's reduced denominator
    m11 = RationalFunction(sym_plus(3) * sym_minus(1) * sym_plus(2), sym_plus(6))
    expanded = lp({6: 1, 4: -1, 2: 1, -2: -1, -4: 1, -6: -1})
    assert m11.num * sym_plus(6) == expanded * m11.den


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(LaurentPoly.one(), LaurentPoly.zero())


# --- division with remainder ------------------------------------------------

coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=7)).filter(bool)
# a divisor polynomial: nonzero constant term, degree 0..5, leading and
# constant coefficients free to differ from +-1 so that quotients go rational
divisors = st.builds(lambda c0, rest: LaurentPoly({0: c0, **rest}),
                     coeffs, st.dictionaries(st.integers(1, 5), coeffs, max_size=3))


@settings(max_examples=150)
@given(st.dictionaries(st.integers(-12, 12), coeffs, max_size=8), divisors)
def test_laurent_divmod_identity_and_remainder_range(a, q):
    a = LaurentPoly(a)
    quo, rem = laurent_divmod(a, q)
    assert laurent_sum(LaurentPoly(quo) * q, LaurentPoly(rem)) == a
    assert all(0 <= e < q.max_exp for e in rem)
    assert all(c for c in quo.values()) and all(c for c in rem.values())
    # integral input over a divisor with unit end coefficients stays in ints
    if all(c.denominator == 1 for c in a.terms.values()) \
            and all(c.denominator == 1 for c in q.terms.values()) \
            and abs(q.terms[0]) == abs(q.terms[q.max_exp]) == 1:
        assert all(type(c) is int for c in list(quo.values()) + list(rem.values()))


@settings(max_examples=100)
@given(st.dictionaries(st.integers(-12, 12), coeffs, max_size=6),
       st.dictionaries(st.integers(0, 4), coeffs, max_size=5), divisors)
def test_laurent_divmod_is_unique(b, r, q):
    # any quo * q + rem with rem in [0, deg q) is recovered exactly
    r = {e: c for e, c in r.items() if e < q.max_exp}
    quo, rem = laurent_divmod(laurent_sum(LaurentPoly(b) * q, LaurentPoly(r)), q)
    assert LaurentPoly(quo) == LaurentPoly(b) and LaurentPoly(rem) == LaurentPoly(r)
    exact = laurent_divide(LaurentPoly(b) * q, q)
    assert exact == LaurentPoly(b)
    # the quotient is built from laurent_divmod's terms as they are
    assert_int_valued(exact)


def test_laurent_divmod_rejects_bad_divisors():
    a = lp({-3: 1, 4: 2})
    with pytest.raises(ZeroDivisionError):
        laurent_divmod(a, LaurentPoly.zero())
    with pytest.raises(ValueError):
        laurent_divmod(a, lp({1: 1, 3: 1}))     # no constant term
    with pytest.raises(ValueError):
        laurent_divmod(a, lp({-1: 1, 0: 1}))    # not a polynomial
    with pytest.raises(ZeroDivisionError, match="^Laurent division by zero$"):
        laurent_divide(a, LaurentPoly.zero())


@pytest.mark.parametrize("end", ["min_exp", "max_exp"])
def test_zero_polynomial_has_no_exponents(end):
    with pytest.raises(ValueError, match="^zero polynomial has no exponents$"):
        getattr(LaurentPoly.zero(), end)


def test_laurent_divide_is_exact_or_none():
    q = sym_plus(3)                              # t^3 + t^-3, min exponent -3
    b = lp({-2: Fraction(1, 2), 5: -3})
    assert laurent_divide(b * q, q) == b
    assert laurent_divide(laurent_sum(b * q, LaurentPoly.one()), q) is None
    assert laurent_divide(LaurentPoly.zero(), q) == LaurentPoly.zero()


# --- t -> 1/t ----------------------------------------------------------------

def test_invert_var_odd_laurent():
    a = sym_minus(2)
    assert a.invert_var() == -a


def test_invert_var_g2_offdiagonal_is_odd():
    # the canonical forms of m12(1/t) and -m12(t) coincide
    m12 = RationalFunction(sym_minus(3) * sym_plus(2), sym_plus(6))
    assert (RationalFunction(m12.num.invert_var(), m12.den.invert_var())
            == RationalFunction(-m12.num, m12.den))


# --- shifting ----------------------------------------------------------------

def test_shift_preserves_canonical_denominator():
    # units t^k are absorbed into the numerator; the reduced denominator of the
    # g2 off-diagonal entry is t^8 - t^4 + 1 (the factor t^4 + 1 cancels)
    m12 = RationalFunction(sym_minus(3) * sym_plus(2), sym_plus(6))
    assert m12.den == lp({8: 1, 4: -1, 0: 1})
    shifted = RationalFunction(m12.num.shift(-1), m12.den)
    assert shifted.den == m12.den
    for x in (Fraction(2), Fraction(3)):
        assert evaluate(shifted, x) == evaluate(m12, x) / x


# --- Laurent extraction -------------------------------------------------------

def test_as_laurent_quotient():
    # an exact quotient cancels to a Laurent polynomial over the denominator 1
    q = RationalFunction(sym_minus(2), sym_minus(1))
    assert (q.num, q.den) == (lp({1: 1, -1: 1}), LaurentPoly.one())


def test_as_laurent_rejects_true_fraction():
    m11 = RationalFunction(sym_plus(3) * sym_minus(1) * sym_plus(2), sym_plus(6))
    assert m11.den != LaurentPoly.one()
    # confirmed independently: gcd of numerator and denominator is a proper factor
    assert sympy_gcd(m11.num, m11.den).degree() < sympy_poly(m11.den).degree()


def test_as_laurent_g2_pair_symbol_minus_base():
    # bracket symbol of the first two g2 fundamental monomials, assembled by hand
    # over the common denominator t^6 + t^-6: -M11 t^-2 + M12 t^-1; subtracting
    # M11 must leave t^-2 - 1
    den = sym_plus(6)
    n11 = sym_plus(3) * sym_minus(1) * sym_plus(2)
    n12 = sym_minus(3) * sym_plus(2)
    diff = RationalFunction(laurent_sum(-n11.shift(-2), -n11, n12.shift(-1)), den)
    assert (diff.num, diff.den) == (lp({-2: 1, 0: -1}), LaurentPoly.one())
    for x in (Fraction(2), Fraction(3)):
        assert evaluate(diff, x) == x ** -2 - 1


# --- canonical form ------------------------------------------------------------

def test_canonical_zero_iff_evaluation_agrees():
    rng = random.Random(505)
    points = [Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-2, 3), Fraction(9, 5)]
    for _ in range(40):
        a, b = random_rf(rng), random_rf(rng)
        # a - b vanishes iff the cross-multiplied numerators agree
        diff_is_zero = a.num * b.den == b.num * a.den
        agree = all(evaluate(a, x) == evaluate(b, x) for x in points)
        assert diff_is_zero == agree
        # equal elements share one representation
        assert (a == b) == agree


def test_canonical_denominator_shape():
    rng = random.Random(606)
    for _ in range(30):
        a = random_rf(rng)
        if a.den == LaurentPoly.one():
            continue
        assert a.den.min_exp == 0
        lead = a.den.terms[a.den.max_exp]
        assert lead > 0
        assert all(c.denominator == 1 for c in a.den.terms.values())
        coeffs = [abs(c.numerator) for c in a.den.terms.values()]
        from math import gcd
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        assert g == 1
        assert sympy_gcd(a.num, a.den).degree() == 0


# --- integral coefficients are ints -------------------------------------------
# Coefficients with small denominators, so that sums and products of
# non-integral inputs often come out integral.

small_coeffs = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9, max_denominator=4))
small_terms = st.dictionaries(st.integers(-6, 6), small_coeffs, max_size=5)


def as_series(terms):
    """The term map as a SeriesExpr, exponent e standing for the monomial Y_1(zq^e)."""
    return SeriesExpr((YMonomial({(1, e): 1}), c) for e, c in terms.items())


@settings(max_examples=150)
@given(small_terms, small_terms, small_coeffs, st.integers(-5, 5))
def test_laurent_ops_hold_integral_coefficients_as_ints(a, b, c, k):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    sa, sb = as_series(a), as_series(b)
    # SeriesExpr shares LaurentPoly's term-map helpers: same values, same types;
    # both term maps sum like keys through the same collector
    both = SeriesExpr(list(sa.terms.items()) + list(sb.terms.items()))
    for s, p in ((sa, pa), (both, laurent_sum(pa, pb)), (-sa, -pa)):
        assert_int_valued(s)
        assert s == as_series(p.terms)
    results = [
        (pa, lambda x: evaluate(a, x)),
        (laurent_sum(pa, pb), lambda x: evaluate(a, x) + evaluate(b, x)),
        (laurent_sum(pa, -pb), lambda x: evaluate(a, x) - evaluate(b, x)),
        (pa * pb, lambda x: evaluate(a, x) * evaluate(b, x)),
        (pa * LaurentPoly({k: c}), lambda x: evaluate(a, x) * c * x ** k),
        (pa.shift(k), lambda x: evaluate(a, x) * x ** k),
        (pa.invert_var(), lambda x: evaluate(a, 1 / x)),
    ]
    for p, ref in results:
        assert_int_valued(p)
        for x in EVAL_POINTS:
            assert evaluate(p, x) == ref(x)


@settings(max_examples=100)
@given(small_terms, small_terms.filter(lambda d: any(d.values())))
def test_rational_function_holds_integral_coefficients_as_ints(num, den):
    a = RationalFunction(LaurentPoly(num), LaurentPoly(den))
    assert_int_valued(a.num)
    assert_int_valued(a.den)
    # the canonical denominator is integral throughout
    assert all(type(c) is int for c in a.den.terms.values())
    for x in EVAL_POINTS:
        if evaluate(den, x):
            assert evaluate(a.num, x) / evaluate(a.den, x) \
                == evaluate(num, x) / evaluate(den, x)


def test_constructors_hold_ints():
    for p in (LaurentPoly.one(), LaurentPoly({3: 1}), LaurentPoly({0: Fraction(4, 2)}),
              sym_minus(2), sym_plus(3),
              LaurentPoly({1: Fraction(1, 2), 2: Fraction(3, 2)}) * LaurentPoly({0: 2}),
              LaurentPoly([(0, Fraction(1, 2)), (0, Fraction(1, 2))])):
        assert all(type(c) is int for c in p.terms.values()), p.terms


def test_inexact_coefficients_are_rejected():
    # a float would be stored as its binary value: exactness fails at the input
    m = YMonomial({(1, 0): 1})
    for make in (lambda: LaurentPoly({0: 0.1}), lambda: LaurentPoly([(0, 1), (1, 0.5)]),
                 lambda: SeriesExpr([(m, 0.1)]), lambda: LaurentPoly({0: 1}) * 0.5,
                 lambda: YMonomial({(1, 0): 0.5}),
                 # exponents, nodes and shifts are ints: t^(1/2) would print as t^0,
                 # Y_1^(1/2) as Y_1^{0}(z), and a str node fails later, in symbol
                 lambda: LaurentPoly({Fraction(1, 2): 1, 0: 1}), lambda: LaurentPoly({0.0: 1}),
                 lambda: YMonomial({(1, 0): Fraction(1, 2)}), lambda: YMonomial({("a", 0): 1}),
                 lambda: YMonomial({(1, 0.5): 1}), lambda: YMonomial({1: 1}),
                 lambda: SeriesExpr({1: 1})):
        with pytest.raises(TypeError):
            make()


def test_both_term_maps_share_one_slotted_base():
    m = YMonomial({(1, 0): 1})
    # a kind that lacked __slots__ = () would give each instance a __dict__
    for p in (LaurentPoly.zero(), LaurentPoly({1: 2}), -(sym_minus(1) * sym_plus(2)),
              SeriesExpr.zero(), SeriesExpr([(m, 3)]), -SeriesExpr.one()):
        assert not hasattr(p, "__dict__"), type(p)
        assert type(-p) is type(p) is type(type(p).zero())
    # equality holds only within one kind, even between the empty maps
    assert LaurentPoly.zero() != SeriesExpr.zero()
    assert not LaurentPoly.zero() == SeriesExpr.zero()
    assert not LaurentPoly.zero() and not SeriesExpr.zero()
    # a rational function equals only a rational function
    rf = RationalFunction(LaurentPoly.one())
    assert rf.__eq__(LaurentPoly.one()) is NotImplemented and rf != LaurentPoly.one()
    assert len(sym_plus(2)) == 2 and len(SeriesExpr.one()) == 1
    # LaurentPoly keys the split table; SeriesExpr has no hash
    assert hash(LaurentPoly({1: 2})) == hash(LaurentPoly([(1, 1), (1, 1)]))
    with pytest.raises(TypeError):
        hash(SeriesExpr.one())


@settings(max_examples=100)
@given(small_terms, small_terms.filter(lambda d: any(d.values())), divisors, st.integers(-5, 5))
def test_laurent_hash_is_kept_and_no_operation_changes_an_operand(a, b, q, k):
    # a LaurentPoly keeps the hash of its first call, which is sound only
    # because no operation changes a term map once it is built
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    operands = (pa, pb, q)
    before = [dict(p.terms) for p in operands]
    hashes = [hash(p) for p in operands]
    pa * pb, pb * q, pa.shift(k), pa.invert_var(), -pa, -q
    laurent_divmod(pa, q), laurent_divide(pa, pb), laurent_divide(pa * pb, pb)
    assert [p.terms for p in operands] == before
    for p, h, terms in zip(operands, hashes, before):
        assert hash(p) == h == hash(frozenset(terms.items()))
    # an equal value built another way hashes alike
    for p, again in ((pa, pa.shift(k).shift(-k)), (pa, pa.invert_var().invert_var()),
                     (pa, -(-pa)), (pa, pa * LaurentPoly.one()),
                     (pa, laurent_divide(pa * pb, pb)), (q, laurent_divide(q * pb, pb)),
                     (pb, LaurentPoly(reversed(pb.terms.items())))):
        assert again == p and hash(again) == hash(p)


# --- RationalFunction: canonical uniqueness ------------------------------------

laurent_terms = st.dictionaries(
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    max_size=5)
nonzero_terms = laurent_terms.filter(bool)


@settings(max_examples=60)
@given(laurent_terms, nonzero_terms, nonzero_terms,
       st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
       st.integers(-5, 5))
def test_canonical_form_is_unique(num, den, h, c, k):
    # num/den and (c t^k h num)/(c t^k h den) have equal values, so equal forms
    n, d, hh = LaurentPoly(num), LaurentPoly(den), LaurentPoly(h) * LaurentPoly({k: c})
    a = RationalFunction(n, d)
    b = RationalFunction(n * hh, d * hh)
    assert (a.num, a.den) == (b.num, b.den)
    # the form is the canonical one: t^min and rational content sit in the numerator
    assert a.den.min_exp == 0 and a.den.terms[a.den.max_exp] > 0
    assert not a.num or sympy_gcd(a.num, a.den).degree() == 0
    for x in EVAL_POINTS:
        if evaluate(den, x) and evaluate(a.den, x):
            assert evaluate(a, x) == evaluate(num, x) / evaluate(den, x)


# --- the gcd at preset scale, against sympy -----------------------------------

def test_canonical_preset_entries_agree_with_sympy_cancel(g2, e6):
    # every distinct M entry of d4..d12, e6 and g2: coprime, and sympy's
    # cancelled N/Q up to the normalisation (t^k and scalar in the numerator)
    presets = [g2, e6] + [build_preset("dn", n) for n in range(4, 13)]
    for preset in presets:
        q, nums = preset.pair_table
        for n in {e for row in nums for e in row}:
            rf = RationalFunction(n, q)
            num, den = rf.num, rf.den
            assert sympy_gcd(num, den).degree() == 0
            p_ref, q_ref = sympy_poly(n).cancel(sympy_poly(q), include=True)
            scale = sympy_poly(den).LC() / q_ref.LC()
            assert sympy_poly(den) == q_ref * scale
            assert sympy_poly(num) == p_ref * scale
            assert num.min_exp == n.min_exp - q.min_exp


integral_terms = st.dictionaries(st.integers(0, 16), st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=8)
cofactor_terms = st.dictionaries(st.integers(-8, 8), coeffs, min_size=1, max_size=6)


@settings(max_examples=40)
@given(integral_terms, cofactor_terms, cofactor_terms)
def test_gcd_finds_a_planted_factor(g, a, b):
    # (a g)/(b g) with g of degree up to 16 has the canonical form of a/b, and
    # the gcd kernel agrees with sympy's gcd on the primitive parts
    g, a, b = LaurentPoly(g), LaurentPoly(a), LaurentPoly(b)
    planted, plain = RationalFunction(a * g, b * g), RationalFunction(a, b)
    assert (planted.num, planted.den) == (plain.num, plain.den)
    assert sympy_gcd(planted.num, planted.den).degree() == 0
    pa, pb = _primitive(a * g)[1], _primitive(b * g)[1]
    got = _poly_gcd(pa, pb)
    assert got.min_exp == 0 and got.terms[got.max_exp] > 0
    assert all(type(c) is int for c in got.terms.values())
    assert sympy_poly(got).monic() == sympy.gcd(sympy_poly(pa), sympy_poly(pb)).monic()


def test_poly_gcd_raises_instead_of_looping_on_a_stored_zero(monkeypatch):
    # an _add_scaled that keeps the sums that cancel leaves zeros in the
    # remainders: t^2 + 1 over t + 1 leaves {2: 0, 1: 0, 0: 2}, whose degree
    # does not drop, and the remainder sequence would then cycle for ever
    def keeps_zeros(acc, shift, coeff, terms):
        for e, c in terms.items():
            acc[e + shift] = acc.get(e + shift, 0) + coeff * c

    def timeout(signum, frame):
        raise TimeoutError("_poly_gcd did not return")

    monkeypatch.setattr(exactfield, "_add_scaled", keeps_zeros)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ArithmeticError, match="is not below the divisor's 1"):
            _poly_gcd(LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 1, 0: 1}))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
