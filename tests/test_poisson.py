"""Bracket symbols, delta decompositions, and closure verification."""

import dataclasses
import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqalg import (NonUniformBaseError, NotDecomposableError, bracket_sum,
                   build_preset, decompose, extract_t2_e6, symbol, verify_all,
                   verify_closure)
from wqalg.exactfield import LaurentPoly, RationalFunction, sym_minus
from wqalg.genexpr import SeriesExpr, YMonomial, build_t1, build_t2, build_t5_e6
from wqalg.poisson import _symbol_numerator
from wqalg.rflinalg import FieldMatrix

EVAL_POINTS = [Fraction(2), Fraction(3), Fraction(5, 7)]


def mono(*factors):
    return YMonomial.from_factors(factors)


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
    assert s - m11 == RationalFunction(LaurentPoly({-2: 1, 0: -1}))


def test_symbol_evaluation_oracle(g2, e6, d5):
    # direct Fraction arithmetic, bypassing the common-denominator machinery
    for preset in (g2, e6, d5):
        lams = preset.lambdas
        pairs = [(lams[0], lams[1]), (lams[2], lams[-1]), (lams[-1], lams[0])]
        for a, b in pairs:
            s = symbol(a, b, preset)
            for x in EVAL_POINTS:
                expected = Fraction(0)
                for (i, ash), e in a.items():
                    for (j, bsh), f in b.items():
                        expected += (e * f * preset.M.rows[i - 1][j - 1].evaluate(x)
                                     * x ** (bsh - ash))
                assert s.evaluate(x) == expected


def test_symbol_antisymmetry_sampled(g2, e6):
    for preset in (g2, e6):
        lams = preset.lambdas
        for a in lams[:4]:
            for b in lams[-4:]:
                assert symbol(b, a, preset) == -symbol(a, b, preset).invert_var()


def monomials(rank):
    return st.lists(st.tuples(st.integers(1, rank), st.integers(-12, 12),
                              st.sampled_from([-2, -1, 1, 2])),
                    max_size=4).map(YMonomial.from_factors)


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_symbol_antisymmetry_random_monomials(request, name, data):
    preset = request.getfixturevalue(name)
    a = data.draw(monomials(preset.rank))
    b = data.draw(monomials(preset.rank))
    assert symbol(b, a, preset) == -symbol(a, b, preset).invert_var()


def test_symbol_rejects_out_of_range_node(g2):
    with pytest.raises(ValueError):
        symbol(mono((3, 0, 1)), mono((1, 0, 1)), g2)


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 4), ("dn", 6)])
def test_symbol_numerators_have_int_coefficients(kind, n):
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    quo11, rem11 = preset.m11_split
    polys = [q] + [e for row in nums for e in row]
    polys += [_symbol_numerator(a, b, preset) for a in preset.lambdas for b in preset.lambdas]
    coeffs = [c for p in polys for c in p.terms.values()]
    coeffs += list(quo11.values()) + list(rem11.values())
    assert coeffs and all(type(c) is int for c in coeffs)


# --- decompose ---------------------------------------------------------------

def test_decompose_base_itself(g2):
    dec = decompose(g2.M.rows[0][0], g2)
    assert dec.base_coeff == 1 and dec.deltas == {}


def test_decompose_pure_delta(g2):
    dec = decompose(RationalFunction.t_power(3), g2)
    assert dec.base_coeff == 0 and dec.deltas == {3: 1}


def test_decompose_worked_g2_example(g2):
    dec = decompose(symbol(g2.lambdas[0], g2.lambdas[1], g2), g2)
    assert dec.base_coeff == 1
    assert dec.deltas == {-2: 1, 0: -1}


def test_decompose_solves_general_base_coefficient(g2):
    s = g2.M.rows[0][0] * Fraction(2) + RationalFunction.t_power(3)
    dec = decompose(s, g2)
    assert dec.base_coeff == 2 and dec.deltas == {3: 1}
    s = g2.M.rows[0][0] * Fraction(-5, 3)
    dec = decompose(s, g2)
    assert dec.base_coeff == Fraction(-5, 3) and dec.deltas == {}
    # deep negative exponents exercise the division's clearing by Q's constant term
    s = (g2.M.rows[0][0] * Fraction(7, 3)
         + RationalFunction(LaurentPoly({-9: 1, 0: -5})))
    dec = decompose(s, g2)
    assert dec.base_coeff == Fraction(7, 3)
    assert dec.deltas == {-9: 1, 0: -5}


@pytest.mark.parametrize("name", ["g2", "e6", "d5"])
@settings(deadline=None, max_examples=30)
@given(alpha=st.fractions(min_value=-20, max_value=20, max_denominator=9),
       deltas=st.dictionaries(
           st.integers(-15, 15),
           st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
           max_size=5))
def test_decompose_round_trip(request, name, alpha, deltas):
    preset = request.getfixturevalue(name)
    s = preset.M.rows[0][0] * alpha + RationalFunction(LaurentPoly(deltas))
    dec = decompose(s, preset)
    assert dec.base_coeff == alpha and dec.deltas == deltas
    assert type(dec.base_coeff) is Fraction
    assert all(type(c) is Fraction for c in dec.deltas.values())


def test_decompose_rejects_laurent_m11(g2):
    # uniqueness of the split rests on M_11 not being a Laurent polynomial
    rows = [list(row) for row in g2.M.rows]
    rows[0][0] = RationalFunction(sym_minus(1))
    laurent = dataclasses.replace(g2, M=FieldMatrix(rows))
    with pytest.raises(ValueError, match="M_11 of g2 is a Laurent polynomial"):
        decompose(RationalFunction.t_power(3), laurent)
    with pytest.raises(ValueError, match="M_11 of g2 is a Laurent polynomial"):
        verify_all(laurent)


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
                rebuilt = m11 * dec.base_coeff + RationalFunction(
                    LaurentPoly(dec.deltas))
                assert rebuilt == s
                for x in EVAL_POINTS:
                    assert rebuilt.evaluate(x) == s.evaluate(x)


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


def test_bracket_sum_returns_fraction_coefficients(g2, d4):
    # the sum runs in ints where it can; the report keeps the public Fraction
    # type, and rational series coefficients scale every delta series
    for preset in (g2, d4):
        t1 = build_t1(preset)
        report = bracket_sum(t1, t1, preset)
        scaled = bracket_sum(t1 * Fraction(1, 2), t1 * Fraction(2, 3), preset)
        for r in (report, scaled):
            assert type(r.base_coeff) is Fraction and r.base_coeff == 1
            coeffs = [c for s in r.delta_terms.values() for c in s.terms.values()]
            assert coeffs and all(type(c) is Fraction for c in coeffs)
        assert scaled.delta_terms == {a: s * Fraction(1, 3)
                                      for a, s in report.delta_terms.items()}


def test_bracket_report_antisymmetry(closure_presets):
    for preset in closure_presets:
        t1 = build_t1(preset)
        report = bracket_sum(t1, t1, preset)
        ok, msg = report.antisymmetry_ok()
        assert ok, (preset.name, msg)


def test_bracket_sum_nonuniform_base(g2):
    t1_plus_const = build_t1(g2) + SeriesExpr.one()
    with pytest.raises(NonUniformBaseError):
        bracket_sum(t1_plus_const, t1_plus_const, g2)


def test_bracket_sum_not_decomposable_names_pair(g2):
    from wqalg.rflinalg import FieldMatrix
    rows = [list(r) for r in g2.M.rows]
    rows[0][1] = rows[1][0] = RationalFunction(
        LaurentPoly.one(), LaurentPoly({0: 2, 1: 0, 2: 1}))
    corrupted = dataclasses.replace(g2, M=FieldMatrix(rows))
    t1 = build_t1(corrupted)
    with pytest.raises(NotDecomposableError) as err:
        bracket_sum(t1, t1, corrupted)
    assert "pair (" in str(err.value)


def test_verify_closure_all_presets(closure_presets):
    for preset in closure_presets:
        out = verify_closure(preset)
        assert out.passed, (preset.name, out.failure)


def test_verify_closure_reports_series_mismatch(d4, monkeypatch):
    import wqalg.poisson as poisson_mod
    real = build_t2(d4)
    key = next(iter(real.terms))
    doctored = real + SeriesExpr.single(key, 1)
    monkeypatch.setattr(poisson_mod, "build_t2", lambda preset: doctored)
    out = verify_closure(d4)
    assert not out.passed
    assert "differing monomial" in out.failure and "shift" in out.failure


def test_verify_closure_detects_corrupted_lambda(g2):
    lams = list(g2.lambdas)
    lams[5] = lams[5].shift_arg(2)
    corrupted = dataclasses.replace(g2, lambdas=tuple(lams))
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


def test_nonunit_warning_emitted(d4, caplog):
    # logged at INFO: verify_closure matches every coefficient against its series
    with caplog.at_level(logging.INFO, logger="wqalg.poisson"):
        bracket_sum(build_t1(d4), build_t1(d4), d4)
    assert any("not +-1" in rec.message and rec.levelno == logging.INFO
               for rec in caplog.records)


def test_verify_all_d4_logs_no_warning(d4, caplog):
    with caplog.at_level(logging.INFO):
        assert verify_all(d4).passed
    assert [rec.message for rec in caplog.records if rec.levelno >= logging.WARNING] == []


# --- verify_all -------------------------------------------------------------------

def test_verify_all_passes(g2, e6, d4):
    for preset in (g2, e6, d4):
        out = verify_all(preset)
        assert out.passed, (preset.name, out.failure)


def test_verify_all_records_g2_diagonal_note(g2):
    out = verify_all(g2)
    assert any(d.startswith("NOTE diagonal") for d in out.details)


def test_verify_all_fails_on_corrupted_preset():
    base = build_preset("dn", 4)
    lams = list(base.lambdas)
    lams[0] = lams[0].shift_arg(1)
    corrupted = dataclasses.replace(base, lambdas=tuple(lams))
    out = verify_all(corrupted)
    assert not out.passed
    assert out.failure
