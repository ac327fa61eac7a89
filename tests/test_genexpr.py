"""Monomial group laws, argument shifts, duality, and the series constructors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import an_preset
from wqalg import build_t1, build_t2, build_t5_e6
from wqalg.genexpr import SeriesExpr, YMonomial


def inverse(m):
    """The group inverse, with every exponent negated."""
    return YMonomial.from_factors((i, a, -e) for i, a, e in m.factors)


def random_monomial(rng, rank=6):
    factors = [(rng.randint(1, rank), rng.randint(-12, 12), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randint(0, 4))]
    return YMonomial.from_factors(factors)


# --- free abelian group laws --------------------------------------------------

def test_identity_and_inverse(g2):
    lam4 = g2.lambdas[3]
    assert lam4 * inverse(lam4) == YMonomial.identity()
    assert YMonomial.identity().factors == ()


def test_monomials_compare_and_multiply_only_with_monomials(g2):
    lam4 = g2.lambdas[3]
    assert lam4.__eq__(lam4.factors) is NotImplemented and lam4 != lam4.factors
    assert lam4.__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        lam4 * 2


def test_g2_lambda1_times_shifted_lambda7(g2):
    prod = g2.lambdas[0] * g2.lambdas[6].shift_arg(2)
    assert prod == YMonomial.from_factors([(1, 0, 1), (1, -10, -1)])


def test_group_laws_random():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (random_monomial(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * inverse(a) == YMonomial.identity()


# --- shifts and duality ---------------------------------------------------------

def test_shift_arg_basic():
    y1 = YMonomial.from_factors([(1, 0, 1)])
    assert y1.shift_arg(2) == YMonomial.from_factors([(1, 2, 1)])


def test_shift_arg_g2_lambda7(g2):
    assert g2.lambdas[6].shift_arg(12) == YMonomial.from_factors([(1, 0, -1)])


def test_shift_arg_inverse_composition():
    rng = random.Random(22)
    for _ in range(30):
        m = random_monomial(rng)
        a = rng.randint(-10, 10)
        assert m.shift_arg(a).shift_arg(-a) == m


@settings(max_examples=100)
@given(factors=st.lists(st.tuples(st.integers(1, 8), st.integers(-12, 12),
                                  st.integers(-3, 3)), max_size=6),
       s=st.integers(-24, 24))
def test_shift_arg_matches_canonical_construction(factors, s):
    m = YMonomial.from_factors(factors)
    shifted = m.shift_arg(s)
    assert shifted == YMonomial.from_factors((i, a + s, e) for i, a, e in factors)
    assert list(shifted.factors) == sorted(shifted.factors)


factor_lists = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3),
                                  st.integers(-2, 2)), max_size=6)


@settings(max_examples=100)
@given(left=factor_lists, right=factor_lists)
def test_mul_matches_canonical_construction(left, right):
    # small node and shift ranges make shared keys and cancellations common
    a, b = YMonomial.from_factors(left), YMonomial.from_factors(right)
    prod = a * b
    assert prod.factors == YMonomial.from_factors(left + right).factors
    assert (a * YMonomial.identity()).factors == a.factors
    assert (YMonomial.identity() * b).factors == b.factors


def test_dual_transform_single_monomials(g2):
    assert g2.lambdas[0].dual() == g2.lambdas[6].shift_arg(12)
    assert g2.lambdas[6].dual() == g2.lambdas[0].shift_arg(12)


def test_dual_transform_involution():
    rng = random.Random(33)
    for _ in range(100):
        m = random_monomial(rng)
        assert m.dual().dual() == m


def test_dual_and_shift_are_homomorphisms():
    rng = random.Random(44)
    for _ in range(30):
        a, b = random_monomial(rng), random_monomial(rng)
        s = rng.randint(-6, 6)
        assert (a * b).shift_arg(s) == a.shift_arg(s) * b.shift_arg(s)
        assert (a * b).dual() == a.dual() * b.dual()


def test_dual_t1_g2(g2):
    t1 = build_t1(g2)
    assert t1.dual() == t1.shift_arg(12)


# --- series constructors --------------------------------------------------------

def test_t1_term_counts(g2, e6, d4, d5):
    for preset, k in [(g2, 7), (e6, 27), (d4, 8), (d5, 10)]:
        assert len(build_t1(preset)) == k


def test_g2_t2_contains_displayed_products(g2):
    t2 = build_t2(g2)
    for i, j in [(2, 5), (3, 6)]:
        m = g2.lambdas[i - 1] * g2.lambdas[j - 1].shift_arg(2)
        assert t2.terms.get(m, 0) != 0


def test_d4_t2_has_extra_pair(d4):
    t2 = build_t2(d4)
    extra = d4.lambdas[4] * d4.lambdas[3].shift_arg(2)
    assert t2.terms.get(extra, 0) != 0
    # 29 products fold into 28 distinct monomials: one collision of weights
    assert len(t2) == 28
    assert sum(t2.terms.values()) == 29


def test_build_t2_rejects_e6(e6):
    with pytest.raises(ValueError):
        build_t2(e6)


def test_build_t5_e6(e6):
    t1, t5 = build_t1(e6), build_t5_e6(e6)
    assert len(t5) == 27
    assert t1.dual() == t5.shift_arg(12)
    assert t5 != t1
    # the dual of the plain Y_1(z) term lands in T5(zq^12)
    y1_inv = YMonomial.from_factors([(1, 0, -1)])
    assert t5.shift_arg(12).terms.get(y1_inv, 0) == 1


def test_build_t5_rejects_non_e6(g2, d4):
    # the refusal names the preset and the dual its closure spec names
    for preset, text in ((g2, "g2 has no T5 dual series: its closure spec names T1 as the dual"),
                         (d4, "d4 has no T5 dual series: its closure spec names no series "
                              "as the dual"),
                         (an_preset(3), "a3 has no T5 dual series: its closure spec names "
                                        "no series as the dual")):
        with pytest.raises(ValueError) as err:
            build_t5_e6(preset)
        assert str(err.value) == text


def test_series_scalar_and_linear_ops():
    rng = random.Random(55)
    monos = [random_monomial(rng) for _ in range(6)]
    s = SeriesExpr((m, Fraction(i + 1)) for i, m in enumerate(monos))
    assert SeriesExpr(list(s.terms.items()) + list((-s).terms.items())) == SeriesExpr.zero()
    assert -(-s) == s
    assert s.shift_arg(3).shift_arg(-3) == s
    assert s.dual().dual() == s

