"""Bracket symbols, delta decompositions, and closure verification."""

import functools
import logging
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wqalg.algebras as algebras_mod
import wqalg.exactfield as exactfield
import wqalg.genexpr as genexpr_mod
import wqalg.poisson as poisson_mod
from oracle import (an_preset, antisymmetry_ok, assert_int_valued, direct_symbol_numerator,
                    evaluate, int_valued, laurent_sum, ordered_pair_bracket, replace_preset)
from wqalg import (NonUniformBaseError, NotDecomposableError, bracket_sum,
                   build_preset, decompose, extract_t2_e6, symbol, verify_all,
                   verify_closure)
from wqalg.cli import main
from wqalg.exactfield import LaurentPoly, RationalFunction, sym_minus
from wqalg.genexpr import SeriesExpr, YMonomial, build_t1, build_t2, build_t5_e6
from wqalg.poisson import _numerator_terms, _symbol_numerator

EVAL_POINTS = [Fraction(2), Fraction(3), Fraction(5, 7)]


def mono(*factors):
    return YMonomial.from_factors(factors)


def base_plus_laurent(m11, alpha, laurent):
    """alpha * M_11 + laurent, as one numerator over M_11's denominator."""
    return RationalFunction(laurent_sum(m11.num * LaurentPoly({0: alpha}), laurent * m11.den),
                            m11.den)


# --- symbol -----------------------------------------------------------------

def test_symbol_of_plain_generators_is_matrix_entry(g2, e6):
    for preset in (g2, e6):
        for i in range(1, preset.rank + 1):
            for j in range(1, preset.rank + 1):
                s = symbol(mono((i, 0, 1)), mono((j, 0, 1)), preset)
                assert s == preset.M.rows[i - 1][j - 1]


def test_symbol_diagonal_g2_lambda1(g2):
    assert symbol(g2.lambdas[0], g2.lambdas[0], g2) == g2.M.rows[0][0]


def test_symbol_g2_pair_12_closed_form(g2):
    s = symbol(g2.lambdas[0], g2.lambdas[1], g2)
    m11 = g2.M.rows[0][0]
    # s - m11 = t^-2 - 1, cross-multiplied over the two reduced denominators
    assert s.num * m11.den == laurent_sum(m11.num * s.den,
                                          LaurentPoly({-2: 1, 0: -1}) * s.den * m11.den)


def assert_symbol_matches_oracle(a, b, preset):
    # direct Fraction arithmetic, bypassing the common-denominator machinery
    s = symbol(a, b, preset)
    assert_int_valued(s.stored[0])
    for x in EVAL_POINTS:
        expected = Fraction(0)
        for i, ash, e in a.factors:
            for j, bsh, f in b.factors:
                expected += (e * f * evaluate(preset.M.rows[i - 1][j - 1], x)
                             * x ** (bsh - ash))
        assert evaluate(s, x) == expected


def test_symbol_evaluation_oracle(g2, e6, d5):
    for preset in (g2, e6, d5):
        lams = preset.lambdas
        for a, b in [(lams[0], lams[1]), (lams[2], lams[-1]), (lams[-1], lams[0])]:
            assert_symbol_matches_oracle(a, b, preset)


def test_symbol_antisymmetry_sampled(g2, e6):
    for preset in (g2, e6):
        lams = preset.lambdas
        for a in lams[:4]:
            for b in lams[-4:]:
                s = symbol(a, b, preset)
                assert symbol(b, a, preset) == RationalFunction(-s.num.invert_var(),
                                                                s.den.invert_var())


def monomials(rank):
    return st.lists(st.tuples(st.integers(1, rank), st.integers(-12, 12),
                              st.sampled_from([-2, -1, 1, 2])),
                    max_size=4).map(YMonomial.from_factors)


@settings(max_examples=100)
@given(monomials(6), monomials(6))
def test_monomials_order_by_factors_as_by_nested_pairs(a, b):
    # every sorted listing orders monomials by factors, (node, shift, exp)
    # triples; they compare like the nested ((node, shift), exp) pairs,
    # prefixes first
    def nested(m):
        return tuple(((i, sh), e) for i, sh, e in m.factors)

    # node 7 sorts after every factor of a, so a is a prefix of longer
    longer = YMonomial.from_factors(a.factors + ((7, 0, 1),))
    for x, y in ((a, b), (a, a * b), (a, longer)):
        assert (x.factors < y.factors) == (nested(x) < nested(y))
        assert (y.factors < x.factors) == (nested(y) < nested(x))
    assert a.factors < longer.factors
    monos = [a, b, a * b, longer, b.shift_arg(1), b.dual()]
    by_factors = sorted(monos, key=lambda m: m.factors)
    assert [nested(m) for m in by_factors] == sorted(map(nested, monos))


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(max_examples=25)
@given(data=st.data())
def test_symbol_evaluation_oracle_random_monomials(request, name, data):
    # repeated nodes and shifts make factor pairs whose numerator terms cancel
    preset = request.getfixturevalue(name)
    a = data.draw(monomials(preset.rank))
    b = data.draw(monomials(preset.rank))
    assert_symbol_matches_oracle(a, b, preset)


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(max_examples=25)
@given(data=st.data())
def test_symbol_antisymmetry_random_monomials(request, name, data):
    preset = request.getfixturevalue(name)
    a = data.draw(monomials(preset.rank))
    b = data.draw(monomials(preset.rank))
    s = symbol(a, b, preset)
    assert symbol(b, a, preset) == RationalFunction(-s.num.invert_var(), s.den.invert_var())


def test_symbol_rejects_out_of_range_node(g2):
    with pytest.raises(ValueError):
        symbol(mono((3, 0, 1)), mono((1, 0, 1)), g2)


@pytest.mark.parametrize("node", [0, 3])
@pytest.mark.parametrize("other", [mono((1, 0, 1)), YMonomial.identity()],
                         ids=["generator", "identity"])
@pytest.mark.parametrize("bad_side", ["left", "right"])
def test_out_of_range_node_is_rejected_on_either_side(g2, node, other, bad_side):
    bad = mono((node, 0, 1))
    a, b = (bad, other) if bad_side == "left" else (other, bad)
    with pytest.raises(ValueError, match="node index out of range for rank 2"):
        symbol(a, b, g2)
    with pytest.raises(ValueError, match="node index out of range for rank 2"):
        bracket_sum(SeriesExpr([(a, 1)]), SeriesExpr([(b, 1)]), g2)


@pytest.mark.parametrize("node", [0, 3])
def test_out_of_range_node_among_valid_factors_is_rejected(g2, node):
    # factors are sorted by node: among these valid ones, node 0 is first and 3 last;
    # both monomials are checked before any node row is built or memoised
    preset = replace_preset(g2)
    bad = mono((node, 0, 1), (1, 0, 1), (2, 3, -1))
    for a, b in ((bad, mono((1, 0, 1))), (mono((2, 1, 1)), bad)):
        rows = {}
        with pytest.raises(ValueError, match="node index out of range for rank 2"):
            _symbol_numerator(a, b, preset, rows)
        assert rows == {}
        with pytest.raises(ValueError, match="node index out of range for rank 2"):
            symbol(a, b, preset)
    assert preset.node_rows == {m: {} for m in preset.lambdas}


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 4), ("dn", 6)])
def test_symbol_numerators_have_int_coefficients(kind, n):
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    quo11, rem11 = preset.m11_split
    polys = [q] + [e for row in nums for e in row]
    polys += [_symbol_numerator(a, b, preset, {}) for a in preset.lambdas for b in preset.lambdas]
    coeffs = [c for p in polys for c in p.terms.values()]
    coeffs += list(quo11.values()) + list(rem11.values())
    assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in (4, 5, 6, 7, 8, 32)])
def test_symbol_numerator_matches_direct_pair_sum(kind, n):
    preset = build_preset(kind, n)
    for a in preset.lambdas:
        for b in preset.lambdas:
            assert symbol(a, b, preset).stored[0].terms == direct_symbol_numerator(a, b, preset)


def row_test_monomials(rank):
    # few shifts and nodes, so factors repeat a node and numerator terms cancel
    factors = st.lists(st.tuples(st.integers(1, rank), st.integers(-3, 3),
                                 st.sampled_from([-3, -2, -1, 1, 2, 3])), max_size=6)
    return st.one_of(st.just(YMonomial.identity()), factors.map(YMonomial.from_factors))


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(max_examples=40)
@given(data=st.data())
def test_symbol_numerator_matches_direct_pair_sum_random_monomials(request, name, data):
    # the preset is shared by every example, so later ones read memoised rows
    preset = request.getfixturevalue(name)
    a = data.draw(row_test_monomials(preset.rank))
    b = data.draw(row_test_monomials(preset.rank))
    for x, y in ((a, b), (b, a)):
        assert symbol(x, y, preset).stored[0].terms == direct_symbol_numerator(x, y, preset)


# --- decompose ---------------------------------------------------------------

def test_decompose_base_itself(g2):
    dec = decompose(g2.M.rows[0][0], g2)
    assert dec.base_coeff == 1 and dec.deltas == {}


def test_decompose_pure_delta(g2):
    dec = decompose(RationalFunction(LaurentPoly({3: 1})), g2)
    assert dec.base_coeff == 0 and dec.deltas == {3: 1}
    # a decomposition equals only a decomposition
    assert dec.__eq__((0, {3: 1})) is NotImplemented and dec != (0, {3: 1})


def test_decompose_worked_g2_example(g2):
    dec = decompose(symbol(g2.lambdas[0], g2.lambdas[1], g2), g2)
    assert dec.base_coeff == 1
    assert dec.deltas == {-2: 1, 0: -1}


def test_decompose_solves_general_base_coefficient(g2):
    m11 = g2.M.rows[0][0]
    s = base_plus_laurent(m11, Fraction(2), LaurentPoly({3: 1}))
    dec = decompose(s, g2)
    assert dec.base_coeff == 2 and dec.deltas == {3: 1}
    s = base_plus_laurent(m11, Fraction(-5, 3), LaurentPoly.zero())
    dec = decompose(s, g2)
    assert dec.base_coeff == Fraction(-5, 3) and dec.deltas == {}
    # deep negative exponents exercise the division's clearing by Q's constant term
    s = base_plus_laurent(m11, Fraction(7, 3), LaurentPoly({-9: 1, 0: -5}))
    dec = decompose(s, g2)
    assert dec.base_coeff == Fraction(7, 3)
    assert dec.deltas == {-9: 1, 0: -5}


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(max_examples=30)
@given(alpha=st.fractions(min_value=-20, max_value=20, max_denominator=9),
       deltas=st.dictionaries(
           st.integers(-15, 15),
           st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
           max_size=5))
def test_decompose_round_trip(request, name, alpha, deltas):
    preset = request.getfixturevalue(name)
    s = base_plus_laurent(preset.M.rows[0][0], alpha, LaurentPoly(deltas))
    dec = decompose(s, preset)
    assert dec.base_coeff == alpha and dec.deltas == deltas
    assert int_valued(dec.base_coeff)
    assert_int_valued(dec.deltas)


def test_decompose_rejects_laurent_m11(g2):
    # uniqueness of the split rests on M_11 not being a Laurent polynomial
    q, nums = g2.pair_table
    laurent = replace_preset(
        g2, pair_table=(q, ((sym_minus(1) * q, nums[0][1]), nums[1])))
    guard = "M_11 of g2 is a Laurent polynomial; delta decompositions would not be unique"
    with pytest.raises(ValueError, match=guard):
        decompose(RationalFunction(LaurentPoly({3: 1})), laurent)
    # the verifiers report the guard as a failure instead of raising it, and
    # verify_all reports it once for the preset, not once per diagonal bracket
    out = verify_all(laurent)
    assert out.passed is False and out.failure
    diagonal = [d for d in out.details if d.startswith("FAIL diagonal bracket")]
    assert diagonal == ["FAIL diagonal brackets do not decompose: " + guard]
    closure = verify_closure(laurent)
    assert closure.passed is False
    assert closure.failure.endswith(guard) and closure.failure.startswith("pair (")


def test_decompose_not_decomposable(g2):
    bad = RationalFunction(LaurentPoly.one(), LaurentPoly({0: 1, 1: 1, 2: 1}))
    with pytest.raises(NotDecomposableError):
        decompose(bad, g2)


def test_decompose_reconstruction(g2, e6, d4):
    for preset in (g2, e6, d4):
        lams = preset.lambdas
        m11 = preset.M.rows[0][0]
        for a in lams[:3]:
            for b in lams[:3]:
                s = symbol(a, b, preset)
                dec = decompose(s, preset)
                rebuilt = base_plus_laurent(m11, dec.base_coeff, LaurentPoly(dec.deltas))
                assert rebuilt == s
                for x in EVAL_POINTS:
                    assert evaluate(rebuilt, x) == evaluate(s, x)


@settings(max_examples=20)
@given(g=st.dictionaries(st.integers(-6, 6),
                         st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
                         min_size=1, max_size=4),
       e6_pairs=st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26)),
                         min_size=1, max_size=6))
def test_decompose_is_independent_of_representation(g2, e6, g, e6_pairs):
    # a symbol stored as N/Q, as (N g)/(Q g) and in canonical form splits alike
    g = LaurentPoly(g)
    cases = [(g2, a, b) for a in g2.lambdas for b in g2.lambdas]
    cases += [(e6, e6.lambdas[i], e6.lambdas[j]) for i, j in e6_pairs]
    for preset, a, b in cases:
        s = symbol(a, b, preset)
        num, q = s.stored
        scaled = RationalFunction(num * g, q * g)
        canonical = RationalFunction(s.num, s.den)
        want = decompose(s, preset)
        assert decompose(scaled, preset) == want
        assert decompose(canonical, preset) == want
        assert scaled == s == canonical
        assert hash(scaled) == hash(s) == hash(canonical)
    bad = RationalFunction(g, LaurentPoly({0: 1, 1: 1, 2: 1}) * g)
    with pytest.raises(NotDecomposableError):
        decompose(bad, g2)


# --- pair queries take no gcd -------------------------------------------------

@pytest.fixture
def gcd_calls(monkeypatch):
    """Count the calls of the polynomial gcd kernel behind the canonical form."""
    calls = []
    kernel = exactfield._poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(exactfield, "_poly_gcd", counted)
    return calls


def test_pair_queries_take_no_gcd(g2, e6, gcd_calls):
    queries = [(p, a, b) for p in (g2, e6) for a in p.lambdas for b in p.lambdas]
    assert len(queries) == 778
    for preset, a, b in queries:
        decompose(symbol(a, b, preset), preset)
    assert gcd_calls == []


def test_bracket_command_takes_one_gcd_for_its_symbol_line(capsys, gcd_calls):
    assert main(["bracket", "--algebra", "g2", "--i", "1", "--j", "2"]) == 0
    assert "symbol(t) = " in capsys.readouterr().out
    assert len(gcd_calls) == 1


def test_canonical_form_is_computed_once(g2, gcd_calls):
    s = symbol(g2.lambdas[0], g2.lambdas[1], g2)
    assert gcd_calls == []
    first = (s.num, s.den)
    assert (s.num, s.den) == first and str(s) and hash(s) == hash(s)
    assert len(gcd_calls) == 1


# --- frozen pair decompositions (D5) -----------------------------------------

@pytest.mark.parametrize("pair,expected", [
    ((2, 8), {-2: 1, 0: -1}),             # generic i < j pair
    ((2, 9), {-6: 1, -4: -1, -2: 1, 0: -1}),   # i + j = 2n + 1: conditional deltas
    ((9, 2), {0: 1, 2: -1, 4: 1, 6: -1}),
    ((3, 8), {-4: 1, 0: -1}),             # conditional deltas cancel one generic term
    ((1, 10), {-8: 1, -6: -1, -2: 1, 0: -1}),
    ((5, 6), {-2: 1, 2: -1}),
    ((6, 5), {-2: 1, 2: -1}),             # the extra (n+1, n) pair
])
def test_d5_pair_decompositions(d5, pair, expected):
    i, j = pair
    dec = decompose(symbol(d5.lambdas[i - 1], d5.lambdas[j - 1], d5), d5)
    assert dec.base_coeff == 1
    assert dec.deltas == {k: Fraction(v) for k, v in expected.items()}


def test_dn_diagonal_brackets_are_pure(d4, d5):
    for preset in (d4, d5):
        for lam in preset.lambdas:
            dec = decompose(symbol(lam, lam, preset), preset)
            assert dec.base_coeff == 1 and dec.deltas == {}


def test_g2_diagonal_bracket_4_is_not_pure(g2):
    dec = decompose(symbol(g2.lambdas[3], g2.lambdas[3], g2), g2)
    assert dec.base_coeff == 1
    assert dec.deltas == {-4: 1, -2: -1, 2: 1, 4: -1}


def test_e6_diagonal_brackets_are_pure(e6):
    for lam in e6.lambdas:
        dec = decompose(symbol(lam, lam, e6), e6)
        assert dec.base_coeff == 1 and dec.deltas == {}


def test_e6_pair_1_5_has_double_delta(e6):
    dec = decompose(symbol(e6.lambdas[0], e6.lambdas[4], e6), e6)
    assert dec.deltas.get(-2) == 2


# --- the split table ------------------------------------------------------------

@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 5)])
def test_decompose_on_a_warm_preset_matches_a_fresh_one(kind, n):
    warm = build_preset(kind, n)
    pairs = [(a, b) for a in warm.lambdas for b in warm.lambdas]
    for a, b in pairs:
        decompose(symbol(a, b, warm), warm)
    assert warm.splits
    assert replace_preset(warm).splits == {}
    for a, b in pairs:
        fresh = replace_preset(warm)
        assert decompose(symbol(a, b, warm), warm) == decompose(symbol(a, b, fresh), fresh)


def test_mutating_returned_deltas_leaves_later_splits_alone():
    g2 = build_preset("g2")
    lam = g2.lambdas[3]
    want = {-4: 1, -2: -1, 2: 1, 4: -1}
    for _ in range(3):
        dec = decompose(symbol(lam, lam, g2), g2)
        assert dec.base_coeff == 1 and dec.deltas == want
        dec.deltas[0] = 7
        del dec.deltas[4]


def test_split_table_stays_within_its_cap(monkeypatch):
    uncapped = build_preset("e6")
    pairs = [(a, b) for a in uncapped.lambdas for b in uncapped.lambdas]
    want = [decompose(symbol(a, b, uncapped), uncapped) for a, b in pairs]
    t1 = build_t1(uncapped)
    report = bracket_sum(t1, t1, uncapped)
    assert len(uncapped.splits) > 3
    monkeypatch.setattr(poisson_mod, "_SPLIT_TABLE_CAP", 3)
    capped = build_preset("e6")
    for (a, b), dec in zip(pairs, want):
        assert decompose(symbol(a, b, capped), capped) == dec
        assert len(capped.splits) <= 3
    again = bracket_sum(t1, t1, capped)
    assert len(capped.splits) == 3
    assert (again.base_coeff, again.delta_terms) == (report.base_coeff, report.delta_terms)


# --- the row memo -----------------------------------------------------------------

@pytest.mark.parametrize("kind,n", [("dn", 32), ("e6", None)])
def test_verify_all_leaves_the_row_memo_empty(kind, n):
    # bracket_sum and the diagonal brackets keep their rows per call
    preset = build_preset(kind, n)
    assert verify_all(preset).passed
    assert preset.node_rows == {m: {} for m in preset.lambdas}


def test_row_memo_holds_each_queried_left_monomial_once(e6):
    preset = replace_preset(e6)
    for a in preset.lambdas:
        for b in preset.lambdas:
            decompose(symbol(a, b, preset), preset)
    assert len(preset.node_rows) == 27
    assert set(preset.node_rows) == set(preset.lambdas)
    # each row is summed on first use: every queried monomial has one per node
    nodes = set(range(1, preset.rank + 1))
    assert all(set(rows) == nodes for rows in preset.node_rows.values())


def test_row_memo_keeps_only_fundamental_monomials(e6):
    # the memo's keys are the preset's lambdas, before and after every query;
    # a left monomial outside them is served, and its rows are not kept
    preset = replace_preset(e6)
    lams = preset.lambdas
    others = [lam.shift_arg(1) for lam in lams[:3]] + [lams[0] * lams[1]]
    assert not set(others) & set(lams)
    assert list(preset.node_rows) == list(lams)
    for a in [*others, *lams]:
        for b in lams:
            num = symbol(a, b, preset).stored[0]
            assert num == LaurentPoly(direct_symbol_numerator(a, b, preset))
            assert list(preset.node_rows) == list(lams)
    assert all(preset.node_rows[m] for m in lams)


# --- bracket_sum and closure ----------------------------------------------------

def test_bracket_sum_g2_full_delta_map(g2):
    t1, t2 = build_t1(g2), build_t2(g2)
    report = bracket_sum(t1, t1, g2)
    assert report.base_coeff == 1
    assert report.shifts == [-12, -8, -2, 2, 8, 12]
    assert report.delta_terms[-2] == t2
    assert report.delta_terms[2] == -t2.shift_arg(-2)
    assert report.delta_terms[-8] == t1.shift_arg(4)
    assert report.delta_terms[8] == -t1.shift_arg(-4)
    assert report.delta_terms[-12] == SeriesExpr.one()
    assert report.delta_terms[12] == -SeriesExpr.one()


def test_bracket_sum_d4_delta_map(d4):
    t1, t2 = build_t1(d4), build_t2(d4)
    report = bracket_sum(t1, t1, d4)
    assert report.shifts == [-6, -2, 2, 6]
    assert report.delta_terms[-2] == t2
    assert report.delta_terms[-6] == SeriesExpr.one()


def test_bracket_sum_holds_integral_coefficients_as_ints(g2, d4):
    # ints where a coefficient is integral, Fractions only where it is not,
    # and rational series coefficients scale every delta series
    for preset in (g2, d4):
        t1 = build_t1(preset)
        report = bracket_sum(t1, t1, preset)
        scaled = bracket_sum(SeriesExpr({m: Fraction(1, 2) for m in t1.terms}),
                             SeriesExpr({m: Fraction(2, 3) for m in t1.terms}), preset)
        for r in (report, scaled):
            assert r.base_coeff == 1 and int_valued(r.base_coeff)
            assert r.delta_terms
            for series in r.delta_terms.values():
                assert_int_valued(series)
        assert all(type(c) is int for s in report.delta_terms.values()
                   for c in s.terms.values())
        assert any(type(c) is Fraction for s in scaled.delta_terms.values()
                   for c in s.terms.values())
        assert scaled.delta_terms == {
            a: SeriesExpr((m, c * Fraction(1, 3)) for m, c in s.terms.items())
            for a, s in report.delta_terms.items()}


def test_bracket_report_antisymmetry(closure_presets):
    for preset in closure_presets:
        t1 = build_t1(preset)
        report = bracket_sum(t1, t1, preset)
        ok, msg = antisymmetry_ok(report)
        assert ok, (preset.name, msg)


def distinct_series(t1, lams):
    """Two different series from T1, each missing a monomial of the other."""
    t2 = SeriesExpr([(m, 3) for m in t1.terms] + [(lams[0], -3), (lams[1], Fraction(1, 2))])
    s2 = SeriesExpr(list(t1.terms.items()) + [(lams[-1], -1)])
    return t2, s2


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 4), ("dn", 5),
                                    ("dn", 6)])
def test_bracket_sum_matches_ordered_pair_oracle(kind, n):
    # each side on its own preset, so that no split of the oracle's is
    # read back from the engine's split table
    preset, oracle_preset = build_preset(kind, n), build_preset(kind, n)
    t1 = build_t1(preset)
    base, deltas = ordered_pair_bracket(t1, t1, oracle_preset)
    report = bracket_sum(t1, t1, preset)
    assert report.base_coeff == base == 1
    assert report.delta_terms == deltas
    assert antisymmetry_ok(report) == (True, None)
    # two different series, each missing a monomial of the other: the
    # reversed pairs carry their own coefficients
    t2, s2 = distinct_series(t1, preset.lambdas)
    base, deltas = ordered_pair_bracket(t2, s2, oracle_preset)
    report = bracket_sum(t2, s2, preset)
    assert report.base_coeff == base and report.delta_terms == deltas


# presets that build_preset does not make: A_n, and D_n with a failing Cartan
# residual, where every monomial is a root and bracket_sum splits every pair
BUILDERS = {"an": an_preset,
            "dn_residual_fails": lambda n: residual_failing(build_preset("dn", n))}


@functools.cache
def _engine_and_oracle_presets(kind, n):
    """Two builds of one preset, so that the oracle reads no split of the engine's."""
    build = BUILDERS.get(kind, functools.partial(build_preset, kind))
    return build(n), build(n)


def sub_series(lambdas):
    """Sub-series of T1 with nonzero int and Fraction coefficients."""
    coeffs = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3)).filter(bool)
    return st.dictionaries(st.sampled_from(lambdas), coeffs, min_size=1,
                           max_size=8).map(SeriesExpr)


@pytest.mark.parametrize("kind,n", [("g2", None), ("dn", 4), ("dn", 5), ("e6", None),
                                    ("dn", 8), ("an", 3), ("dn_residual_fails", 5)])
@pytest.mark.parametrize("case", ["self", "equal", "distinct"])
@settings(max_examples=10)
@given(data=st.data())
def test_bracket_sum_matches_ordered_pair_oracle_on_sub_series(kind, n, case, data):
    # a self-bracket passed as one object or as two equal ones keeps only the
    # positive shifts and mirrors them; two distinct series keep both halves,
    # including Delta(0), where their reversed pairs do not cancel.  A
    # sub-series is a lowering forest of one or more roots: the pairs of roots
    # are split and every other split derived, or, where the Cartan residual
    # fails, every pair is split
    preset, oracle_preset = _engine_and_oracle_presets(kind, n)
    t = data.draw(sub_series(preset.lambdas))
    if case == "self":
        s = t
    elif case == "equal":
        s = SeriesExpr(t.terms.items())
        assert s == t and s is not t
    else:
        s = data.draw(sub_series(preset.lambdas).filter(lambda s: s != t))
    report = bracket_sum(t, s, preset)
    base, deltas = ordered_pair_bracket(t, s, oracle_preset)
    assert (report.base_coeff, report.delta_terms) == (base, deltas)
    for series in report.delta_terms.values():
        assert_int_valued(series)
    if case != "distinct":
        assert antisymmetry_ok(report) == (True, None)


def lowering_a_inverse(preset, i, b):
    """A_i(zq^b)^-1 from B alone: Y_j(zq^(b+e))^-c for each term c t^e of
    [r_j C_ji] / [r_j], where r_j = B_jj / 2 and C_ji = B_ji / r_j."""
    factors = []
    for j, row in enumerate(preset.b, start=1):
        r, c = row[j - 1] // 2, row[i - 1] // (row[j - 1] // 2)
        sign = 1 if c > 0 else -1
        factors += [(j, b + r * (abs(c) - 1 - 2 * m), -sign) for m in range(abs(c))]
    return YMonomial.from_factors(factors)


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in (*range(4, 13), 32)]
                         + [("an", n) for n in range(1, 9)])
def test_each_first_series_has_one_lowering_root(kind, n):
    # every monomial of T1 but one is its parent lowered by one A_i, so
    # bracket_sum splits one pair of T1 x T1; T1 without a monomial that has
    # children is a forest of several roots
    preset = an_preset(n) if kind == "an" else build_preset(kind, n)
    monos = sorted(build_t1(preset).terms, key=lambda m: m.factors)
    roots, steps, root_of = lowering_forest(preset, build_t1(preset))
    assert len(roots) == 1 and len(steps) == len(monos) - 1
    assert root_of == roots * len(monos)
    assert monos[roots[0]].factors == ((1, 0, 1),)     # Y_1(z), the dominant monomial
    placed = set(roots)
    for k, p, i, b in steps:
        assert p in placed and monos[k] == monos[p] * lowering_a_inverse(preset, i + 1, b)
        placed.add(k)
    if len(monos) > 2:
        cut = steps[0][0]
        rest = SeriesExpr((m, 1) for m in monos if m != monos[cut])
        roots, steps, root_of = lowering_forest(preset, rest)
        assert len(roots) > 1 and all(root_of[r] == r for r in roots)
        assert all(root_of[k] == root_of[p] for k, p, _, _ in steps)


def dual_partner(series):
    """m -> m*, the dual of m shifted by the least plus the greatest factor shift,
    when that maps the series onto itself with its coefficients; else m -> m."""
    shifts = [a for m in series.terms for _, a, _ in m.factors]
    c = min(shifts) + max(shifts)
    star = {m: YMonomial.from_factors((i, c - a, -e) for i, a, e in m.factors)
            for m in series.terms}
    if all(series.terms.get(star[m]) == u for m, u in series.terms.items()):
        return star
    return {m: m for m in series.terms}


def residual_failing(preset):
    """preset with N_22 moved by Q (t - t^-1): M stays symmetric and odd, and every
    symbol still splits, with its alpha, but the Cartan residual fails."""
    q, nums = preset.pair_table
    entry = laurent_sum(nums[1][1], q * sym_minus(1))
    bad = replace_preset(preset, pair_table=(q, tuple(
        tuple(entry if (i, j) == (1, 1) else e for j, e in enumerate(row))
        for i, row in enumerate(nums))))
    assert bad.m_parity == (True, True) and bad.cartan_residual[0]
    return bad


def lowering_forest(preset, series):
    """The roots, steps and root of each monomial of the lowering forest of a
    series' sorted monomials."""
    monos = sorted(series.terms, key=lambda m: m.factors)
    return poisson_mod._lowering_steps(monos, preset.cartan_residual[1])


def counting_numerators(monkeypatch):
    """A list that gains the pair (a, b) of each symbol numerator summed from now on."""
    calls = []

    def counting(a, b, nums, rows):
        calls.append((a, b))
        return _numerator_terms(a, b, nums, rows)

    monkeypatch.setattr(poisson_mod, "_numerator_terms", counting)
    return calls


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 4), ("dn", 7)])
def test_bracket_sum_splits_each_unordered_pair_once(kind, n, monkeypatch):
    # where the Cartan residual holds, only the pair of the one root of the
    # lowering forest of T1 is summed, and every other split is derived;
    # where it fails, each unordered pair is summed once
    preset = build_preset(kind, n)
    calls = counting_numerators(monkeypatch)
    t1 = build_t1(preset)
    roots, _, _ = lowering_forest(preset, t1)
    bracket_sum(t1, t1, preset)
    assert len(roots) == 1 and len(calls) == 1
    assert calls[0] == (sorted(t1.terms, key=lambda m: m.factors)[roots[0]],) * 2

    calls.clear()
    bracket_sum(t1, t1, residual_failing(preset))
    lams = list(t1.terms)
    pairs = {frozenset((x, y)) for i, x in enumerate(lams) for y in lams[i:]}
    assert len(calls) == len(pairs)
    assert {frozenset(xy) for xy in calls} == pairs


@pytest.mark.parametrize("kind,n", [("dn", n) for n in range(4, 13)]
                         + [("dn", 32), ("g2", None), ("an", 1)])
def test_dual_pairing_is_an_involution(kind, n):
    # dual(T1)(zq^c) = T1 with c = -(2n - 2) on D_n, -12 on G2 and -2 on A_1:
    # m -> m* pairs the monomials of T1, and the test below draws its series
    # from those dual orbits
    preset = an_preset(n) if kind == "an" else build_preset(kind, n)
    t1 = build_t1(preset)
    c = -(2 * n - 2) if kind == "dn" else {"g2": -12, "an": -2}[kind]
    assert t1.dual().shift_arg(c) == t1
    star = dual_partner(t1)
    assert all(star[m] == m.dual().shift_arg(c) and star[star[m]] == m for m in t1.terms)


@pytest.mark.parametrize("kind,n", [("e6", None)] + [("an", n) for n in range(2, 9)])
def test_dual_pairing_is_none_off_self_dual_series(kind, n):
    # the only shift that could map T1 onto its dual does not
    preset = an_preset(n) if kind == "an" else build_preset(kind, n)
    t1 = build_t1(preset)
    shifts = [a for m in t1.terms for _, a, _ in m.factors]
    assert t1.dual().shift_arg(min(shifts) + max(shifts)) != t1
    assert all(star == m for m, star in dual_partner(t1).items())


def dual_closed_series(lambdas, unequal):
    """Unions of dual orbits {m, m*} of T1, one int or Fraction coefficient per
    orbit; with unequal, one orbit of two monomials carries two coefficients."""
    star = dual_partner(SeriesExpr((m, 1) for m in lambdas))
    orbits = list({frozenset((m, star[m])) for m in lambdas})
    coeffs = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3)).filter(bool)

    @st.composite
    def build(draw):
        chosen = draw(st.lists(st.sampled_from(orbits), min_size=1, max_size=4, unique=True)
                      .filter(lambda os: not unequal or any(len(o) == 2 for o in os)))
        terms = {}
        for orbit in chosen:
            u = draw(coeffs)
            terms.update((m, u) for m in orbit)
        if unequal:
            m = min((m for o in chosen if len(o) == 2 for m in o), key=lambda m: m.factors)
            terms[m] = draw(coeffs.filter(lambda v: v != terms[m]))
        return SeriesExpr(terms.items())

    return build()


@pytest.mark.parametrize("kind,n", [("g2", None), ("dn", 4), ("dn", 5), ("dn", 7)])
@pytest.mark.parametrize("unequal", [False, True])
@settings(max_examples=8)
@given(data=st.data())
def test_bracket_sum_over_dual_orbits_matches_ordered_pair_oracle(kind, n, unequal, data):
    # a dual-closed series with orbit-constant coefficients equals its dual
    # shifted by the least plus the greatest factor shift; one unequal orbit
    # breaks that
    preset, oracle_preset = _engine_and_oracle_presets(kind, n)
    t = data.draw(dual_closed_series(preset.lambdas, unequal))
    shifts = [a for m in t.terms for _, a, _ in m.factors]
    assert (t.dual().shift_arg(min(shifts) + max(shifts)) == t) is not unequal
    report = bracket_sum(t, t, preset)
    base, deltas = ordered_pair_bracket(t, t, oracle_preset)
    assert (report.base_coeff, report.delta_terms) == (base, deltas)


def counting_products(monkeypatch):
    """A list that gains one entry per YMonomial product made from now on."""
    calls = []
    mul = YMonomial.__mul__

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(YMonomial, "__mul__", counting)
    return calls


@pytest.mark.parametrize("kind,n,products", [("dn", 8, 131), ("dn", 32, 2075),
                                             ("e6", None, 486), ("g2", None, 43)])
def test_bracket_sum_builds_a_key_only_for_a_kept_contribution(kind, n, products,
                                                               monkeypatch):
    # bracket_sum makes no product: it keeps each C(a) as a pair sum, and the
    # report makes one product per pair when it builds C(a).  A self-bracket
    # keeps C(a) for a < 0 only, so reading delta_terms makes one product per
    # ordered pair and negative delta; an off-diagonal Delta(0) cancels
    # against its reverse and a positive delta is mirrored from C(-a), so
    # neither adds a pair
    preset, oracle_preset = build_preset(kind, n), build_preset(kind, n)
    t1 = build_t1(preset)
    kept = sum(1 for x in t1.terms for y in t1.terms
               for a in decompose(symbol(x, y, oracle_preset), oracle_preset).deltas if a < 0)
    calls = counting_products(monkeypatch)
    report = bracket_sum(t1, t1, preset)
    assert len(calls) == 0
    report.delta_terms
    assert len(calls) == kept == products

    # two distinct series keep every half: one pair per nonzero ordered half
    # with a != 0, and one per pair whose Delta(0) does not cancel, where
    # the ordered pair and its reverse share the key x * y
    t2, s2 = distinct_series(t1, preset.lambdas)
    t, s = t2.terms, s2.terms
    splits = {(x, y): decompose(symbol(x, y, oracle_preset), oracle_preset).deltas
              for x in t.keys() | s.keys() for y in t.keys() | s.keys()}
    halves = sum(1 for (x, y), deltas in splits.items() if t.get(x, 0) * s.get(y, 0)
                 for a in deltas if a)
    zeros = {frozenset(xy) for xy, deltas in splits.items()
             if t.get(xy[0], 0) * s.get(xy[1], 0) * deltas.get(0, 0)
             + t.get(xy[1], 0) * s.get(xy[0], 0) * splits[xy[::-1]].get(0, 0)}
    calls.clear()
    report = bracket_sum(t2, s2, preset)
    assert len(calls) == 0
    report.delta_terms
    assert zeros
    assert len(calls) == halves + len(zeros)


def _recording_builds(monkeypatch):
    """A list that gains the shift of each series genexpr.pair_series builds."""
    built = []
    pair_series = genexpr_mod.pair_series

    def recording(monos, pairs, shift):
        built.append(shift)
        return pair_series(monos, pairs, shift)

    monkeypatch.setattr(genexpr_mod, "pair_series", recording)
    return built


@pytest.mark.parametrize("kind,n", [("dn", 8), ("dn", 32), ("g2", None)])
def test_report_support_builds_only_the_sums_that_add_up_to_zero(kind, n, monkeypatch):
    # a series that cancels has coefficients adding up to zero: a pair sum
    # whose coefficients share one sign (C(-2) of D_n) or add up to anything
    # else (C(-2) of G_2 has one -1 among 17 pairs) is on the support unbuilt
    preset = build_preset(kind, n)
    t1 = build_t1(preset)
    report = bracket_sum(t1, t1, preset)
    sums = report._sums
    assert min(sums[-2].values()) > 0 if kind == "dn" else min(sums[-2].values()) < 0
    zero_sums = sorted(a for a, pairs in sums.items() if not sum(pairs.values()))
    built = _recording_builds(monkeypatch)
    if kind == "dn":
        edge = 2 * n - 2
        # the mixed-sign shifts -(edge - 2) .. -4 cancel, and are built to see that
        assert zero_sums == list(range(2 - edge, -2, 2))
        assert report.shifts == [-edge, -2, 2, edge]
    else:
        assert zero_sums == [-10, -6, -4]
        assert report.shifts == [-12, -8, -2, 2, 8, 12]
    assert sorted(built) == zero_sums
    assert report.delta_terms == ordered_pair_bracket(t1, t1, build_preset(kind, n))[1]


# the pairs where C(-2) and T2 differ as pair sums: they cancel as series
T2_PAIR_DIFFERENCES = {"d8": 2, "d32": 2, "g2": 2}


@pytest.mark.parametrize("kind,n", [("dn", 8), ("dn", 32), ("g2", None)])
def test_closure_matches_t2_as_pair_sums(kind, n, monkeypatch):
    # verify_closure compares the pair sums of C(-2) and T2 and builds only the
    # pairs where they differ: neither T2 nor C(-2) is built, so the products
    # made are the pairs of every other stored sum (the zero-sum shifts and
    # the matched edge series) and the differing pairs
    preset = build_preset(kind, n)
    details = tuple(verify(build_preset(kind, n)).details
                    for verify in (verify_closure, verify_all))
    # one pair per ordered pair and negative delta other than -2
    t1 = build_t1(preset)
    others = sum(1 for x in t1.terms for y in t1.terms
                 for a in decompose(symbol(x, y, preset), preset).deltas if a < 0 and a != -2)

    def refuse(p):
        raise AssertionError("T2 was built")

    monkeypatch.setattr(genexpr_mod, "build_t2", refuse)
    calls = counting_products(monkeypatch)
    for verify, expected in zip((verify_closure, verify_all), details):
        calls.clear()
        out = verify(build_preset(kind, n))
        assert out.passed, out.failure
        assert out.details == expected
        assert len(calls) == others + T2_PAIR_DIFFERENCES[preset.name]


@pytest.mark.parametrize("kind,n", [("e6", None), ("dn", 7)])
def test_bracket_sum_divides_each_distinct_numerator_once(kind, n, monkeypatch):
    # where the Cartan residual holds, one laurent_divmod for the pair of the
    # root, plus the one of m11_split; where it fails, one per distinct
    # symbol numerator, plus the one of m11_split
    numerators, divided, m11 = [], [], []

    def numerator(a, b, nums, rows):
        numerators.append(LaurentPoly(_numerator_terms(a, b, nums, rows)))
        return numerators[-1].terms

    def counted(calls):
        def divmod_(a, q):
            calls.append(a)
            return exactfield.laurent_divmod(a, q)
        return divmod_

    monkeypatch.setattr(poisson_mod, "_numerator_terms", numerator)
    monkeypatch.setattr(poisson_mod, "laurent_divmod", counted(divided))
    monkeypatch.setattr(algebras_mod, "laurent_divmod", counted(m11))
    preset = build_preset(kind, n)
    bad = residual_failing(preset)
    t1 = build_t1(preset)
    for p, direct in ((preset, False), (bad, True)):
        for calls in numerators, divided, m11:
            calls.clear()
        bracket_sum(t1, t1, p)
        distinct = set(numerators)
        assert len(numerators) > len(distinct) if direct else len(numerators) == 1
        assert len(divided) == len(distinct) and set(divided) == distinct
        assert len(m11) == 1
        assert len(p.splits) == len(distinct)


@pytest.mark.parametrize("kind,n", [("dn", 8), ("e6", None), ("g2", None)])
def test_bracket_sum_splits_the_pair_of_the_root_once(kind, n, monkeypatch):
    # where the Cartan residual holds, only the pair of the root is split, on
    # a fresh preset and on one whose split table already holds the split
    preset = build_preset(kind, n)
    lams = sorted(preset.lambdas, key=lambda m: m.factors)
    split = poisson_mod._split_numerator
    calls = []

    def counting(num, p):
        calls.append(frozenset(num.terms.items()))
        return split(num, p)

    monkeypatch.setattr(poisson_mod, "_split_numerator", counting)
    t1 = build_t1(preset)
    root = lams[lowering_forest(preset, t1)[0][0]]
    root_split = frozenset(direct_symbol_numerator(root, root, preset).items())
    for _ in range(2):
        calls.clear()
        bracket_sum(t1, t1, preset)
        assert calls == [root_split]


def test_bracket_sum_hashes_no_monomial_per_pair(monkeypatch):
    # the coefficients are read into lists indexed like the sorted monomials:
    # at d32, 64 monomials and 2,080 unordered pairs
    preset = build_preset("dn", 32)
    t1 = build_t1(preset)
    preset.m_parity
    calls = []
    real = YMonomial.__hash__

    def counting(m):
        calls.append(None)
        return real(m)

    monkeypatch.setattr(YMonomial, "__hash__", counting)
    bracket_sum(t1, t1, preset)
    assert len(calls) <= 4 * len(t1)


def test_verify_all_hashes_each_laurent_poly_once(monkeypatch):
    # the oddness check and the limits of _limit_failure find the distinct
    # entries of D and Mtilde by id, so none of them is hashed; a LaurentPoly
    # that is hashed keeps its hash, so each builds its frozenset once
    hashed, built = [], []
    real_hash = LaurentPoly.__hash__

    def recording(p):
        hashed.append(p)
        return real_hash(p)

    def counting(items):
        built.append(None)
        return frozenset(items)

    preset = build_preset("dn", 32)
    entries = {id(e) for e in (*preset.d, *(e for row in preset.mtilde for e in row))}
    monkeypatch.setattr(LaurentPoly, "__hash__", recording)
    monkeypatch.setattr(exactfield, "frozenset", counting, raising=False)
    assert verify_all(preset).passed
    distinct = {id(p) for p in hashed}   # hashed holds them all, so no id is reused
    assert not distinct & entries
    assert len(built) == len(distinct)


@pytest.mark.parametrize("kind,n", [("dn", 32), ("e6", None), ("g2", None)])
def test_verify_all_splits_only_the_root_pair(kind, n, monkeypatch):
    # the closure's report keeps every diagonal split, so a verification on a
    # fresh preset sums and divides one numerator: the pair of T1's root
    preset = build_preset(kind, n)
    calls = counting_numerators(monkeypatch)
    divided = []

    def divmod_(a, q):
        divided.append(a)
        return exactfield.laurent_divmod(a, q)

    monkeypatch.setattr(poisson_mod, "laurent_divmod", divmod_)
    assert verify_all(preset).passed
    assert len(calls) == 1 and len(divided) == 1


@pytest.mark.parametrize("kind,n", [("dn", n) for n in range(4, 13)]
                         + [("e6", None), ("g2", None)]
                         + [("an", n) for n in range(1, 9)]
                         + [("dn_residual_fails", n) for n in (4, 5)]
                         + [("residual_failing", kind) for kind in ("e6", "g2")])
def test_report_keeps_each_diagonal_split(kind, n):
    # the split bracket_sum keeps for (x, x), derived along the lowering steps
    # or, where the residual fails, split directly, is the split of the
    # oracle's numerator of symbol(x, x), read on a second build of the preset
    if kind == "residual_failing":
        preset, oracle_preset = (residual_failing(build_preset(n)) for _ in range(2))
    else:
        preset, oracle_preset = _engine_and_oracle_presets(kind, n)
    t1 = build_t1(preset)
    report = bracket_sum(t1, t1, preset)
    for lam in preset.lambdas:
        num = LaurentPoly(direct_symbol_numerator(lam, lam, oracle_preset))
        assert report.diagonal_split(lam) == poisson_mod._split_numerator(num, oracle_preset)
    assert report.diagonal_split(YMonomial.identity()) is None


def test_verify_all_splits_each_diagonal_pair_where_bracket_sum_raises(g2):
    # on the corrupted g2 bracket_sum raises, so the report keeps no split and
    # every diagonal pair is split on its own, with the texts it always had
    out = verify_all(undecomposable_g2(g2))
    no_alpha = "no rational base coefficient leaves a pure delta part for symbol "
    assert not out.passed
    assert out.failure == ("entry (1,1) of M D^-1 Mtilde D^-1: computed "
                           "(t^8 + t^6 - t^4 + t^2 + 1) / (t^8 - t^4 + 1), expected 1")
    assert out.details == [
        "FAIL " + out.failure,
        "PASS M is symmetric",
        "PASS expected deformed Cartan matrix is symmetric",
        "PASS all matrix entries are odd under t -> 1/t",
        "FAIL dual identity fails",
        "FAIL diagonal bracket 2 does not decompose: " + no_alpha
        + "(2*t^8 - t^6 + t^2 - 2)/(t^8 - t^4 + 1)",
        "FAIL diagonal bracket 3 does not decompose: " + no_alpha
        + "(t^10 + t^8 - 1 - t^-2)/(t^8 - t^4 + 1)",
        "FAIL diagonal bracket 5 does not decompose: " + no_alpha
        + "(t^10 + t^8 - 1 - t^-2)/(t^8 - t^4 + 1)",
        "FAIL diagonal bracket 6 does not decompose: " + no_alpha
        + "(2*t^8 - t^6 + t^2 - 2)/(t^8 - t^4 + 1)",
        "NOTE diagonal brackets with delta terms: "
        "index 4: Delta(-4): 1, Delta(-2): -1, Delta(+2): 1, Delta(+4): -1",
        "FAIL pair (Y_1^{-1}(zq^{-12}), Y_1(zq^{-10}) Y_2^{-1}(zq^{-11})): " + no_alpha
        + "(-t^10 + t^8 + t^6 - 2*t^4 + t^2)/(t^8 - t^4 + 1)",
        "PASS duality: dual_transform(T1) = T1(zq^12)"]


def test_bracket_sum_nonuniform_base(g2):
    # the identity's symbols are 0, so its pairs come first and set the base 0;
    # the first pair of two Lambdas has base 1
    t1_plus_const = SeriesExpr(list(build_t1(g2).terms.items()) + [(YMonomial.identity(), 1)])
    with pytest.raises(NonUniformBaseError) as err:
        bracket_sum(t1_plus_const, t1_plus_const, g2)
    assert str(err.value) == ("pair (Y_1^{-1}(zq^{-12}), Y_1^{-1}(zq^{-12})) has base 1, "
                              "expected 0")


def undecomposable_g2(g2):
    """g2 with M_12 = M_21 = (t - t^-1)/(t^4 - 1 + t^-4): symmetric and odd, but it
    breaks the delta decomposition of the T1 x T1 symbols; Q = t^8 - t^4 + 1, so
    N_12 = t^4 (t - t^-1)."""
    q, nums = g2.pair_table
    odd = LaurentPoly({5: 1, 3: -1})
    corrupted = replace_preset(g2, pair_table=(q, ((nums[0][0], odd), (odd, nums[1][1]))))
    assert corrupted.m_parity == (True, True)
    return corrupted


@pytest.mark.parametrize("name", ["g2", "d4", "e6", "undecomposable_g2"])
def test_bracket_sum_never_fails_on_a_pair_with_zero_coefficients(request, name):
    # the identity brackets to 0 with every monomial, so the base is 0.  A pair
    # of two monomials of T1 has alpha 1 on g2, d4 and e6, and does not split
    # on the corrupted g2, but its two coefficients are 0, so it never fails
    preset = (undecomposable_g2(request.getfixturevalue("g2")) if name == "undecomposable_g2"
              else request.getfixturevalue(name))
    one, t1 = SeriesExpr({YMonomial.identity(): 1}), build_t1(preset)
    report = bracket_sum(one, t1, preset)
    assert (report.base_coeff, report.delta_terms) == (0, {})
    assert ordered_pair_bracket(one, t1, preset) == (0, {})


def test_bracket_sum_not_decomposable_names_pair(g2):
    corrupted = undecomposable_g2(g2)
    t1 = build_t1(corrupted)
    with pytest.raises(NotDecomposableError) as err:
        bracket_sum(t1, t1, corrupted)
    # the first pair, (Lambda_7, Lambda_7), reads N_11 only and splits
    assert str(err.value) == (
        "pair (Y_1^{-1}(zq^{-12}), Y_1(zq^{-10}) Y_2^{-1}(zq^{-11})): no rational base "
        "coefficient leaves a pure delta part for symbol "
        "(-t^10 + t^8 + t^6 - 2*t^4 + t^2)/(t^8 - t^4 + 1)")


def test_bracket_sum_requires_symmetric_odd_m(g2, monkeypatch, capsys):
    # M_12 = M_21 = 1/Q is symmetric but not odd: pairing each term pair with
    # its reverse would not be exact, so nothing is bracketed
    q, nums = g2.pair_table
    one = LaurentPoly.one()
    corrupted = replace_preset(g2, pair_table=(q, ((nums[0][0], one), (one, nums[1][1]))))
    assert corrupted.m_parity == (True, False)
    message = ("M of g2 is not both symmetric and odd under t -> 1/t; "
               "brackets over unordered pairs would not be exact")
    t1 = build_t1(corrupted)
    with pytest.raises(ValueError) as err:
        bracket_sum(t1, t1, corrupted)
    assert str(err.value) == message
    out = verify_closure(corrupted)
    assert out.passed is False and out.failure == message
    monkeypatch.setattr("wqalg.cli.build_preset", lambda kind, n=None: corrupted)
    assert main(["closure", "--algebra", "g2"]) == 1
    assert "mismatch: " + message in capsys.readouterr().out


def test_verify_closure_all_presets(closure_presets):
    for preset in closure_presets:
        out = verify_closure(preset)
        assert out.passed, (preset.name, out.failure)


def _refuse_mirror(report, b):
    raise AssertionError("C(%+d) was built" % b)


@pytest.mark.parametrize("kind,n", [("dn", 8), ("g2", None), ("e6", None)])
def test_verifiers_never_build_the_unstored_half(kind, n, monkeypatch):
    # a self-bracket's report stores C(a) for a <= 0; the verifiers match each
    # C(+b) through C(-b) and never build it
    details = tuple(verify(build_preset(kind, n)).details
                    for verify in (verify_closure, verify_all))
    preset, oracle_preset = build_preset(kind, n), build_preset(kind, n)
    with monkeypatch.context() as m:
        m.setattr(poisson_mod.BracketReport, "_mirror", _refuse_mirror)
        closure, everything = verify_closure(preset), verify_all(preset)
    assert closure.passed and everything.passed
    assert (closure.details, everything.details) == details
    # read afterwards, the report is the eager one: every C(+b) with int coefficients
    t1 = build_t1(oracle_preset)
    assert closure.report.delta_terms == ordered_pair_bracket(t1, t1, oracle_preset)[1]
    assert all(type(c) is int for series in closure.report.delta_terms.values()
               for c in series.terms.values())

    # a report built by hand is matched as given, each half on its own
    monkeypatch.setattr(poisson_mod.BracketReport, "_mirror", _refuse_mirror)
    real = closure.report
    for shift in (min(real.shifts), max(real.shifts)):
        terms = dict(real.delta_terms)
        first, c = terms[shift].sorted_terms()[0]
        terms[shift] = SeriesExpr({**terms[shift].terms, first: -c})
        doctored = poisson_mod.BracketReport(real.algebra, real.base_coeff, terms)
        monkeypatch.setattr(poisson_mod, "bracket_sum", lambda t, s, p, r=doctored: r)
        out = verify_closure(preset)
        assert not out.passed
        assert out.failure.startswith("shift %+d: expected " % shift), out.failure


def test_verify_closure_reports_series_mismatch(d4, monkeypatch):
    # the first pair counted twice: T2 gains 1 at its first monomial
    pairs = list(genexpr_mod._t2_pairs(d4))
    monkeypatch.setattr(genexpr_mod, "_t2_pairs", lambda preset: pairs + pairs[:1])
    out = verify_closure(d4)
    assert not out.passed
    assert "differing monomial" in out.failure and "shift" in out.failure


def test_verify_closure_matches_the_rows_of_the_closure_spec(g2):
    # the T1 row's shift moved by one: C(-8) is T1(zq^4), not T1(zq^5)
    rows = tuple(row[:2] + (row[2] + 1,) + row[3:] if row[1] == "T1" else row
                 for row in g2.closure.rows)
    out = verify_closure(replace_preset(g2, closure=g2.closure._replace(rows=rows)))
    assert not out.passed
    assert out.failure.startswith("shift -8: expected T1(zq^4); first differing monomial ")


@pytest.mark.parametrize("name", ["d4", "g2"])
def test_closure_builds_t2_through_the_module_attribute(name, monkeypatch):
    # a report with no pair sums is matched against the series that
    # genexpr.build_t2 gives when the row is read, so a T2 doctored there fails
    preset = build_preset("dn", 4) if name == "d4" else build_preset("g2")
    real = bracket_sum(build_t1(preset), build_t1(preset), preset)
    plain = poisson_mod.BracketReport(real.algebra, real.base_coeff, dict(real.delta_terms))
    monkeypatch.setattr(poisson_mod, "bracket_sum", lambda t, s, p: plain)
    assert verify_closure(preset).passed
    t2 = build_t2(preset)
    first, c = t2.sorted_terms()[0]
    monkeypatch.setattr(genexpr_mod, "build_t2", lambda p: SeriesExpr({**t2.terms, first: -c}))
    out = verify_closure(preset)
    assert not out.passed
    assert out.failure == ("shift -2: expected T2(z); first differing monomial %s "
                           "(got %s, want %s)" % (first, c, -c))


def test_verify_closure_detects_corrupted_lambda(g2):
    lams = list(g2.lambdas)
    lams[5] = lams[5].shift_arg(2)
    corrupted = replace_preset(g2, lambdas=tuple(lams))
    out = verify_closure(corrupted)
    assert not out.passed
    assert out.failure


# --- E6 closure and the derived second series -------------------------------------

def test_e6_closure_support_and_t5(e6):
    out = verify_closure(e6)
    assert out.passed, out.failure
    report = out.report
    assert report.shifts == [-8, -2, 2, 8]
    t5 = build_t5_e6(e6)
    assert report.delta_terms[-8] == t5.shift_arg(4)
    assert report.delta_terms[8] == -t5.shift_arg(-4)
    assert any("delta(w/zq^8) carries T5(zq^4)" in d for d in out.details)


def test_e6_closure_fails_on_the_flipped_magnitude_8_orientation(e6, monkeypatch):
    # a T5 that the flipped orientation, T5(zq^4) on delta(wq^8/z), would match
    c8 = bracket_sum(build_t1(e6), build_t1(e6), e6).delta_terms[8]
    monkeypatch.setattr(poisson_mod, "build_t5_e6", lambda preset: c8.shift_arg(-4))
    out = verify_closure(e6)
    assert not out.passed
    # the flipped T5(zq^4) is C(+8): its first term, coefficient -1, is not in C(-8)
    assert out.failure == ("shift -8: expected T5(zq^4), the orientation of the "
                           "D_n and G_2 closures; first differing monomial "
                           "Y_1^{-1}(zq^{-16}) (got 0, want -1)")
    assert not [d for d in out.details if "carries T5" in d]


def test_e6_closure_records_a_failed_extraction(e6, monkeypatch):
    def refuse(report):
        raise NotDecomposableError("no derived series")
    monkeypatch.setattr(poisson_mod, "extract_t2_e6", refuse)
    out = verify_closure(e6)
    assert out.passed is False
    assert out.failure == "no derived series"
    assert out.derived is None
    assert not [d for d in out.details if d.startswith("derived T2")]


def test_e6_derived_t2(e6):
    report = bracket_sum(build_t1(e6), build_t1(e6), e6)
    derived = extract_t2_e6(report)
    assert derived.shift == -2
    assert derived.term_count == 351
    assert derived.coefficient_counts == {Fraction(1): 324, Fraction(2): 27}
    # every monomial is a product of two fundamental monomials at shift 2
    products = set()
    lams = e6.lambdas
    for a in lams:
        for b in lams:
            products.add(a * b.shift_arg(2))
    assert set(derived.series.terms) <= products
    # total mass matches the 351 + 27 decomposition of the underlying module
    assert sum(derived.series.terms.values()) == 378


def test_extract_t2_requires_positive_side(g2):
    from wqalg.poisson import BracketReport
    fake = BracketReport(algebra="g2", base_coeff=Fraction(1),
                         delta_terms={-2: -SeriesExpr.one(), 2: -SeriesExpr.one()})
    with pytest.raises(NotDecomposableError):
        extract_t2_e6(fake)


def test_extract_t2_reads_only_the_minus_2_shift():
    from wqalg.poisson import BracketReport
    fake = BracketReport(algebra="e6", base_coeff=1,
                         delta_terms={-2: -SeriesExpr.one(), 2: SeriesExpr.one()})
    with pytest.raises(NotDecomposableError, match=r"C\(-2\)"):
        extract_t2_e6(fake)


def _nonunit_records(preset, caplog):
    with caplog.at_level(logging.INFO, logger="wqalg.poisson"):
        bracket_sum(build_t1(preset), build_t1(preset), preset)
    return [(rec.levelno, rec.getMessage()) for rec in caplog.records]


def test_nonunit_warning_emitted(d4, caplog):
    # logged at INFO: verify_closure matches every coefficient against its series
    assert _nonunit_records(d4, caplog) == [
        (logging.INFO, "d4 bracket: 2 delta-series coefficients are not +-1 "
         "(first: shift -2, coefficient 2)")]


@pytest.mark.parametrize("kind,n,count", [("dn", 8, 2), ("e6", None, 54)])
def test_nonunit_record_counts_both_halves(kind, n, count, caplog):
    # the count covers both halves of the self-bracket, C(-b) and C(+b)
    preset = build_preset(kind, n)
    assert _nonunit_records(preset, caplog) == [
        (logging.INFO, "%s bracket: %d delta-series coefficients are not +-1 "
         "(first: shift -2, coefficient 2)" % (preset.name, count))]


def test_verify_all_d4_logs_no_warning(d4, caplog):
    with caplog.at_level(logging.INFO):
        assert verify_all(d4).passed
    assert [rec.message for rec in caplog.records if rec.levelno >= logging.WARNING] == []


# --- verify_all -------------------------------------------------------------------

def test_verify_all_passes(g2, e6, d4):
    for preset in (g2, e6, d4):
        out = verify_all(preset)
        assert out.passed, (preset.name, out.failure)


@pytest.mark.parametrize("kind,t1_builds,t5_builds", [("e6", 2, 1), ("g2", 1, 0)])
def test_verify_all_builds_each_series_once(kind, t1_builds, t5_builds, monkeypatch):
    # the closure keeps the series it builds, and the duality checks read them:
    # E6 builds T1 for the bracket and once more inside its one build of T5
    built = []

    def counting(name, build):
        def wrapper(preset):
            built.append(name)
            return build(preset)
        return wrapper

    t1 = counting("T1", genexpr_mod.build_t1)
    monkeypatch.setattr(genexpr_mod, "build_t1", t1)
    monkeypatch.setattr(poisson_mod, "build_t1", t1)
    monkeypatch.setattr(poisson_mod, "build_t5_e6", counting("T5", genexpr_mod.build_t5_e6))
    out = verify_all(build_preset(kind))
    assert out.passed, out.failure
    assert (built.count("T1"), built.count("T5")) == (t1_builds, t5_builds)


def test_verify_all_memory_at_d32():
    # No series of C(-2) or T2 is built: the peak holds the report's pair sums
    # and the copy of the pair sum of C(-2) that the pairs of T2 are taken
    # off, about 2,000 int keys each.  It reads 0.33 MiB in a process of its
    # own (0.28 inside the suite).  With C(-2) and T2 built it read 0.72
    # (0.49), with every C(+b) built from C(-b) 1.69 MiB, both halves
    # accumulated 2.55, shifted copies of the matched series with them 3.52,
    # and nested ((node, shift), exp) factors with those 4.51
    preset = build_preset("dn", 32)
    tracemalloc.start()
    try:
        assert verify_all(preset).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20, "verify_all(d32) peaked at %.2f MiB" % (peak / 2**20)


def test_verify_all_records_g2_diagonal_note(g2):
    out = verify_all(g2)
    assert any(d.startswith("NOTE diagonal") for d in out.details)


@pytest.mark.parametrize("kind,n", [("dn", 4), ("e6", None)])
def test_verify_all_claims_no_pure_set_when_a_diagonal_bracket_fails(kind, n):
    # M_23 = M_32 = t^(deg Q / 2) (t - t^-1) / Q keeps M symmetric and odd, and
    # breaks the split of some diagonal brackets; the others are pure
    base = build_preset(kind, n)
    q, nums = base.pair_table
    rows = [list(r) for r in nums]
    rows[1][2] = rows[2][1] = sym_minus(1).shift(q.max_exp // 2)
    corrupted = replace_preset(base, pair_table=(q, tuple(map(tuple, rows))))
    assert corrupted.m_parity == (True, True)
    out = verify_all(corrupted)
    assert not out.passed
    diagonal = [d for d in out.details if "diagonal bracket" in d]
    assert diagonal and all(d.startswith("FAIL diagonal bracket ") for d in diagonal)
    assert not [d for d in out.details if "every diagonal bracket" in d]


def test_verify_all_reports_m_parity_once(g2):
    # M_12 = M_21 = 1/Q is symmetric but not odd: no diagonal bracket is split,
    # and the closure names the cause
    q, nums = g2.pair_table
    one = LaurentPoly.one()
    corrupted = replace_preset(g2, pair_table=(q, ((nums[0][0], one), (one, nums[1][1]))))
    out = verify_all(corrupted)
    assert not [d for d in out.details if "diagonal" in d]
    assert [d for d in out.details if "symmetric and odd" in d] == [
        "FAIL M of g2 is not both symmetric and odd under t -> 1/t; "
        "brackets over unordered pairs would not be exact"]


def test_verify_all_fails_on_corrupted_preset():
    base = build_preset("dn", 4)
    lams = list(base.lambdas)
    lams[0] = lams[0].shift_arg(1)
    corrupted = replace_preset(base, lambdas=tuple(lams))
    out = verify_all(corrupted)
    assert not out.passed
    assert out.failure
