"""Exact Laurent/rational arithmetic: evaluation oracle first, then canonical form."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqalg.exactfield import (LaurentPoly, RationalFunction, laurent_divide,
                              laurent_divmod, poly_gcd, sym_minus, sym_plus)


# --- independent evaluation oracle -----------------------------------------
# Reference evaluator over plain dicts; shares no code with the classes.

def ref_eval(terms: dict, x: Fraction) -> Fraction:
    total = Fraction(0)
    for e, c in terms.items():
        total += Fraction(c) * x ** e
    return total


def lp(d):
    return LaurentPoly(d)


def random_laurent(rng, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return LaurentPoly(terms)


def random_rf(rng):
    # built from the preset-style factors so denominators stay nonzero
    num = random_laurent(rng)
    den = sym_plus(rng.randint(1, 4)) * sym_minus(rng.randint(1, 3))
    if num.is_zero:
        num = LaurentPoly.one()
    return RationalFunction(num, den)


EVAL_POINTS = [Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-3, 2), Fraction(7, 4)]


def test_eval_oracle_on_laurent_ops():
    rng = random.Random(101)
    for _ in range(60):
        a, b = random_laurent(rng), random_laurent(rng)
        for x in EVAL_POINTS:
            assert (a + b).evaluate(x) == ref_eval(a.terms, x) + ref_eval(b.terms, x)
            assert (a - b).evaluate(x) == ref_eval(a.terms, x) - ref_eval(b.terms, x)
            assert (a * b).evaluate(x) == ref_eval(a.terms, x) * ref_eval(b.terms, x)


def test_eval_oracle_on_field_ops():
    rng = random.Random(202)
    for _ in range(40):
        a, b = random_rf(rng), random_rf(rng)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            if op is operator.truediv and b.is_zero:
                continue
            c = op(a, b)
            x = Fraction(2)
            assert c.evaluate(x) == op(a.evaluate(x), b.evaluate(x))


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


# --- field arithmetic --------------------------------------------------------

def test_product_of_sym_factors():
    a = RationalFunction(sym_minus(1))
    b = RationalFunction(sym_plus(1))
    assert a * b == RationalFunction(sym_minus(2))


def test_g2_m11_times_denominator_expands():
    m11 = RationalFunction(sym_plus(3) * sym_minus(1) * sym_plus(2), sym_plus(6))
    expanded = m11 * RationalFunction(sym_plus(6))
    assert expanded == RationalFunction(
        lp({6: 1, 4: -1, 2: 1, -2: -1, -4: 1, -6: -1}))


def test_division_by_zero_is_distinct_error():
    one = RationalFunction.one()
    with pytest.raises(ZeroDivisionError):
        one / RationalFunction.zero()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(LaurentPoly.one(), LaurentPoly.zero())


# --- division with remainder ------------------------------------------------

coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=7)).filter(bool)
# a divisor polynomial: nonzero constant term, degree 0..5, leading and
# constant coefficients free to differ from +-1 so that quotients go rational
divisors = st.builds(lambda c0, rest: LaurentPoly({0: c0, **rest}),
                     coeffs, st.dictionaries(st.integers(1, 5), coeffs, max_size=3))


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(st.integers(-12, 12), coeffs, max_size=8), divisors)
def test_laurent_divmod_identity_and_remainder_range(a, q):
    a = LaurentPoly(a)
    quo, rem = laurent_divmod(a, q)
    assert LaurentPoly(quo) * q + LaurentPoly(rem) == a
    assert all(0 <= e < q.max_exp for e in rem)
    assert all(c for c in quo.values()) and all(c for c in rem.values())
    # integral input over a divisor with unit end coefficients stays in ints
    if all(c.denominator == 1 for c in a.terms.values()) \
            and all(c.denominator == 1 for c in q.terms.values()) \
            and abs(q.terms[0]) == abs(q.terms[q.max_exp]) == 1:
        assert all(type(c) is int for c in list(quo.values()) + list(rem.values()))


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(st.integers(-12, 12), coeffs, max_size=6),
       st.dictionaries(st.integers(0, 4), coeffs, max_size=5), divisors)
def test_laurent_divmod_is_unique(b, r, q):
    # any quo * q + rem with rem in [0, deg q) is recovered exactly
    r = {e: c for e, c in r.items() if e < q.max_exp}
    quo, rem = laurent_divmod(LaurentPoly(b) * q + LaurentPoly(r), q)
    assert LaurentPoly(quo) == LaurentPoly(b) and LaurentPoly(rem) == LaurentPoly(r)
    assert laurent_divide(LaurentPoly(b) * q, q) == LaurentPoly(b)


def test_laurent_divmod_rejects_bad_divisors():
    a = lp({-3: 1, 4: 2})
    with pytest.raises(ZeroDivisionError):
        laurent_divmod(a, LaurentPoly.zero())
    with pytest.raises(ValueError):
        laurent_divmod(a, lp({1: 1, 3: 1}))     # no constant term
    with pytest.raises(ValueError):
        laurent_divmod(a, lp({-1: 1, 0: 1}))    # not a polynomial


def test_laurent_divide_is_exact_or_none():
    q = sym_plus(3)                              # t^3 + t^-3, min exponent -3
    b = lp({-2: Fraction(1, 2), 5: -3})
    assert laurent_divide(b * q, q) == b
    assert laurent_divide(b * q + LaurentPoly.one(), q) is None
    assert laurent_divide(LaurentPoly.zero(), q) == LaurentPoly.zero()


# --- t -> 1/t ----------------------------------------------------------------

def test_invert_var_odd_laurent():
    a = RationalFunction(sym_minus(2))
    assert a.invert_var() == -a


def test_invert_var_g2_offdiagonal_is_odd():
    m12 = RationalFunction(sym_minus(3) * sym_plus(2), sym_plus(6))
    assert m12.invert_var() == -m12


def test_invert_var_involution():
    rng = random.Random(303)
    for _ in range(25):
        a = random_rf(rng)
        assert a.invert_var().invert_var() == a


laurent_terms = st.dictionaries(
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    max_size=5)


@settings(deadline=None)
@given(laurent_terms, laurent_terms.filter(bool))
def test_invert_var_matches_canonical_construction(num, den):
    # the gcd-free substitution must land on the constructor's canonical form;
    # equality of rational functions is structural equality of (num, den)
    a = RationalFunction(LaurentPoly(num), LaurentPoly(den))
    assert a.invert_var() == RationalFunction(a.num.invert_var(), a.den.invert_var())
    assert a.invert_var().invert_var() == a


# --- shifting ----------------------------------------------------------------

def test_shift_unit():
    assert RationalFunction.one().shift(-2) == RationalFunction.t_power(-2)


def test_shift_preserves_canonical_denominator():
    # units t^k are absorbed into the numerator; the reduced denominator of the
    # g2 off-diagonal entry is t^8 - t^4 + 1 (the factor t^4 + 1 cancels)
    m12 = RationalFunction(sym_minus(3) * sym_plus(2), sym_plus(6))
    assert m12.den == lp({8: 1, 4: -1, 0: 1})
    assert m12.shift(-1).den == m12.den
    for x in (Fraction(2), Fraction(3)):
        assert m12.shift(-1).evaluate(x) == m12.evaluate(x) / x


def test_shift_composition():
    rng = random.Random(404)
    for _ in range(20):
        a = random_rf(rng)
        j, k = rng.randint(-5, 5), rng.randint(-5, 5)
        assert a.shift(j).shift(k) == a.shift(j + k)


# --- Laurent extraction -------------------------------------------------------

def test_as_laurent_quotient():
    q = RationalFunction(sym_minus(2)) / RationalFunction(sym_minus(1))
    assert q.as_laurent() == lp({1: 1, -1: 1})


def test_as_laurent_rejects_true_fraction():
    m11 = RationalFunction(sym_plus(3) * sym_minus(1) * sym_plus(2), sym_plus(6))
    assert m11.as_laurent() is None
    # confirmed independently: gcd of numerator and denominator is a proper factor
    g = poly_gcd(m11.num, m11.den)
    assert laurent_divide(m11.den, g).max_exp > 0


def test_as_laurent_g2_pair_symbol_minus_base():
    # bracket symbol of the first two g2 fundamental monomials, assembled by hand:
    # -M11 t^-2 + M12 t^-1; subtracting M11 must leave t^-2 - 1
    den = sym_plus(6)
    m11 = RationalFunction(sym_plus(3) * sym_minus(1) * sym_plus(2), den)
    m12 = RationalFunction(sym_minus(3) * sym_plus(2), den)
    s = -m11.shift(-2) + m12.shift(-1)
    diff = s - m11
    assert diff.as_laurent() == lp({-2: 1, 0: -1})
    for x in (Fraction(2), Fraction(3)):
        assert diff.evaluate(x) == x ** -2 - 1


# --- canonical form ------------------------------------------------------------

def test_canonical_zero_iff_evaluation_agrees():
    rng = random.Random(505)
    points = [Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-2, 3), Fraction(9, 5)]
    for _ in range(40):
        a, b = random_rf(rng), random_rf(rng)
        diff = a - b
        agree = all(a.evaluate(x) == b.evaluate(x) for x in points)
        assert diff.is_zero == agree
        # equal elements share one representation
        if agree:
            assert a == b


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
        assert poly_gcd(a.num, a.den) == LaurentPoly.one()


def test_field_laws_by_evaluation():
    rng = random.Random(707)
    x = Fraction(5, 7)
    for _ in range(25):
        a, b, c = random_rf(rng), random_rf(rng), random_rf(rng)
        assert ((a + b) + c).evaluate(x) == (a + (b + c)).evaluate(x)
        assert (a * (b + c)).evaluate(x) == (a * b + a * c).evaluate(x)
        assert ((a * b) * c).evaluate(x) == (a * (b * c)).evaluate(x)


def test_json_round_trip():
    rng = random.Random(808)
    for _ in range(10):
        a = random_rf(rng)
        assert RationalFunction.from_json(a.to_json()) == a
        assert LaurentPoly.from_json(a.num.to_json()) == a.num


# --- integral coefficients are ints -------------------------------------------
# Coefficients with small denominators, so that sums and products of
# non-integral inputs often come out integral.

small_coeffs = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9, max_denominator=4))
small_terms = st.dictionaries(st.integers(-6, 6), small_coeffs, max_size=5)


def assert_int_valued(p):
    """No zero term, and a Fraction only where the coefficient is not integral."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p.terms


@settings(deadline=None, max_examples=150)
@given(small_terms, small_terms, small_coeffs, st.integers(-5, 5))
def test_laurent_ops_hold_integral_coefficients_as_ints(a, b, c, k):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    results = [
        (pa, lambda x: ref_eval(a, x)),
        (pa + pb, lambda x: ref_eval(a, x) + ref_eval(b, x)),
        (pa - pb, lambda x: ref_eval(a, x) - ref_eval(b, x)),
        (pa * pb, lambda x: ref_eval(a, x) * ref_eval(b, x)),
        (pa * c, lambda x: ref_eval(a, x) * c),
        (pa.scale(c), lambda x: ref_eval(a, x) * c),
        (pa.shift(k), lambda x: ref_eval(a, x) * x ** k),
        (pa.invert_var(), lambda x: ref_eval(a, 1 / x)),
        (LaurentPoly.from_json(pa.to_json()), lambda x: ref_eval(a, x)),
        (LaurentPoly.const(c), lambda x: Fraction(c)),
    ]
    for p, ref in results:
        assert_int_valued(p)
        for x in EVAL_POINTS:
            assert ref_eval(p.terms, x) == ref(x)


@settings(deadline=None, max_examples=100)
@given(small_terms, small_terms.filter(lambda d: any(d.values())))
def test_rational_function_holds_integral_coefficients_as_ints(num, den):
    a = RationalFunction(LaurentPoly(num), LaurentPoly(den))
    assert_int_valued(a.num)
    assert_int_valued(a.den)
    # the canonical denominator is integral throughout
    assert all(type(c) is int for c in a.den.terms.values())
    for x in EVAL_POINTS:
        if ref_eval(den, x):
            assert ref_eval(a.num.terms, x) / ref_eval(a.den.terms, x) \
                == ref_eval(num, x) / ref_eval(den, x)


def test_constructors_hold_ints():
    for p in (LaurentPoly.one(), LaurentPoly.t_power(3), LaurentPoly.const(Fraction(4, 2)),
              sym_minus(2), sym_plus(3), LaurentPoly({1: Fraction(1, 2), 2: 1.5}) * 2,
              LaurentPoly({0: Fraction(1, 2)}) + LaurentPoly({0: Fraction(1, 2)})):
        assert all(type(c) is int for c in p.terms.values()), p.terms
    assert LaurentPoly.zero().coeff(0) == 0 and type(LaurentPoly.zero().coeff(0)) is int


# --- RationalFunction: field axioms and canonical uniqueness ------------------

nonzero_terms = laurent_terms.filter(bool)
rational_functions = st.builds(lambda n, d: RationalFunction(LaurentPoly(n), LaurentPoly(d)),
                               laurent_terms, nonzero_terms)


def values_at(x, *rfs):
    """The values of rfs at x, or None if a denominator vanishes there."""
    dens = [f.den.evaluate(x) for f in rfs]
    if not all(dens):
        return None
    return [f.num.evaluate(x) / d for f, d in zip(rfs, dens)]


@settings(deadline=None, max_examples=60)
@given(rational_functions, rational_functions, rational_functions)
def test_field_axioms_hold_by_evaluation(a, b, c):
    zero, one = RationalFunction.zero(), RationalFunction.one()
    # each identity holds structurally, since the canonical form is unique
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    if a:
        assert a * (one / a) == one and (b * a) / a == b
    # and every operation agrees with rational arithmetic at sample points
    for x in EVAL_POINTS:
        vals = values_at(x, a, b)
        if vals is None:
            continue
        va, vb = vals
        for got, want in ((a + b, va + vb), (a - b, va - vb), (a * b, va * vb)):
            assert got.evaluate(x) == want
        if vb:
            assert (a / b).evaluate(x) == va / vb


@settings(deadline=None, max_examples=60)
@given(laurent_terms, nonzero_terms, nonzero_terms,
       st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
       st.integers(-5, 5))
def test_canonical_form_is_unique(num, den, h, c, k):
    # num/den and (c t^k h num)/(c t^k h den) have equal values, so equal forms
    n, d, hh = LaurentPoly(num), LaurentPoly(den), LaurentPoly(h).scale(c).shift(k)
    a = RationalFunction(n, d)
    b = RationalFunction(n * hh, d * hh)
    assert (a.num, a.den) == (b.num, b.den)
    # the form is the canonical one: t^min and rational content sit in the numerator
    assert a.den.min_exp == 0 and a.den.terms[a.den.max_exp] > 0
    assert poly_gcd(a.num, a.den) == LaurentPoly.one() or a.num.is_zero
    for x in EVAL_POINTS:
        if ref_eval(den, x) and ref_eval(a.den.terms, x):
            assert a.evaluate(x) == ref_eval(num, x) / ref_eval(den, x)
