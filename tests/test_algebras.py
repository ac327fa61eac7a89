"""Preset data: matrix entries, monomial tables, deformed Cartan verification."""

import dataclasses
import gc
import re
import weakref
from fractions import Fraction

import pytest

from wqalg import build_preset, verify_all, verify_cartan
from wqalg.algebras import _classical_limit, symmetrized_cartan
from wqalg.exactfield import LaurentPoly, RationalFunction, sym_minus, sym_plus
from wqalg.genexpr import YMonomial
from wqalg.rflinalg import FieldMatrix


def rf(num, den=None):
    return RationalFunction(num, den) if den is not None else RationalFunction(num)


def test_g2_m12_entry(g2):
    assert g2.M.rows[0][1] == rf(sym_minus(3) * sym_plus(2), sym_plus(6))
    assert g2.M.rows[0][1] == g2.M.rows[1][0]


def test_e6_m33_entry(e6):
    assert e6.M.rows[2][2] == rf(sym_minus(3) * sym_plus(1) * sym_plus(2), sym_plus(6))


def test_d5_fork_entry(d5):
    # entry (n, n-1) for n = 5
    assert d5.M.rows[4][3] == rf(sym_minus(3), sym_plus(1) * sym_plus(4))


def test_e6_mtilde_entry_3_6(e6):
    assert e6.expected_mtilde.rows[2][5] == rf(-sym_minus(1))


def test_g2_lambda5(g2):
    assert g2.lambdas[4] == YMonomial.from_factors([(1, -6, -1), (1, -8, -1), (2, -5, 1)])


def test_dn_lambda_boundaries(d4, d5):
    for preset in (d4, d5):
        n = preset.n
        assert preset.lambdas[0] == YMonomial.from_factors([(1, 0, 1)])
        assert preset.lambdas[2 * n - 1] == YMonomial.from_factors([(1, -2 * n + 2, -1)])


def test_fundamental_dims(g2, e6, d4, d5):
    assert g2.fundamental_dim == len(g2.lambdas) == 7
    assert e6.fundamental_dim == len(e6.lambdas) == 27
    assert d4.fundamental_dim == len(d4.lambdas) == 8
    assert d5.fundamental_dim == len(d5.lambdas) == 10


def test_lambdas_pairwise_distinct(g2, e6, d4, d5):
    for preset in (g2, e6, d4, d5):
        assert len(set(preset.lambdas)) == preset.fundamental_dim


def test_d_matrix_structure(g2, e6, d5):
    # diagonal entries are t^d - t^-d with d = 1 except the long g2 node
    for preset, ds in [(g2, [1, 3]), (e6, [1] * 6), (d5, [1] * 5)]:
        for i, d in enumerate(ds):
            assert preset.D.rows[i][i] == rf(sym_minus(d))
            for j in range(preset.rank):
                if j != i:
                    assert preset.D.rows[i][j].is_zero


def test_build_preset_rejects_bad_input():
    with pytest.raises(ValueError):
        build_preset("dn", 3)
    with pytest.raises(ValueError):
        build_preset("dn")
    with pytest.raises(ValueError):
        build_preset("e6", 6)
    with pytest.raises(ValueError):
        build_preset("f4")


def test_verify_cartan_g2_and_limit(g2):
    out = verify_cartan(g2)
    assert out.passed, out.failure
    assert symmetrized_cartan(g2) == [[2, -3], [-3, 6]]


def test_verify_cartan_e6(e6):
    assert verify_cartan(e6).passed


@pytest.mark.parametrize("n", range(4, 11))
def test_verify_cartan_dn_and_limit(n):
    preset = build_preset("dn", n)
    out = verify_cartan(preset)
    assert out.passed, out.failure
    expected = symmetrized_cartan(preset)
    assert all(expected[i][i] == 2 for i in range(n))
    assert expected[n - 3][n - 2] == expected[n - 3][n - 1] == -1
    assert expected[n - 2][n - 1] == 0


def test_verify_cartan_reports_first_mismatch(g2):
    import dataclasses
    from wqalg.rflinalg import FieldMatrix
    wrong = [list(r) for r in g2.expected_mtilde.rows]
    wrong[0][1] = RationalFunction(sym_minus(1))
    corrupted = dataclasses.replace(g2, expected_mtilde=FieldMatrix(wrong))
    out = verify_cartan(corrupted)
    assert not out.passed
    assert "(1,2)" in out.failure


def test_matrix_oddness_and_symmetry(g2, e6, d4, d5):
    for preset in (g2, e6, d4, d5):
        assert preset.M == preset.M.transpose()
        assert preset.expected_mtilde == preset.expected_mtilde.transpose()
        for mat in (preset.M, preset.D, preset.expected_mtilde):
            for row in mat.rows:
                for entry in row:
                    assert entry.invert_var() == -entry


# --- the t -> 1 limit, read off the Laurent entries -----------------------------

@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in range(4, 9)])
def test_classical_limit_matches_field_evaluation(kind, n):
    preset = build_preset(kind, n)
    norm = RationalFunction(sym_minus(1))
    for row in preset.expected_mtilde.rows:
        for e in row:
            assert _classical_limit(e.as_laurent()) == (e / norm).evaluate(Fraction(1))


def test_classical_limit_of_rational_coefficients():
    p = LaurentPoly({3: Fraction(1, 2), -3: Fraction(-1, 2), 1: 1, 0: -1})
    assert _classical_limit(p) == (RationalFunction(p) / rf(sym_minus(1))).evaluate(1)
    assert _classical_limit(LaurentPoly({2: 1})) is None


def test_verify_cartan_names_a_pole_of_the_limit(g2):
    # a consistent preset (M = D Mtilde'^-1 D, so the residual check passes)
    # whose Mtilde'_11 = t^2 - t^-2 + 1 is nonzero at t = 1
    entry = rf(sym_minus(2) + LaurentPoly.one())
    mtilde = _replace_entry(g2.expected_mtilde, 0, 0, entry)
    m = g2.D * mtilde.inverse() * g2.D
    out = verify_cartan(dataclasses.replace(g2, M=m, expected_mtilde=mtilde))
    assert out.identity_holds and not out.passed
    assert out.failure == ("limit entry (1,1): %s divided by t - t^-1 has a pole at t = 1"
                           % entry)


# --- the division-free identity check: failure paths --------------------------

def _replace_entry(mat, i, j, value):
    rows = [list(r) for r in mat.rows]
    rows[i][j] = value
    return FieldMatrix(rows)


def test_verify_cartan_names_a_residual_entry_in_the_changed_column(d5):
    mtilde = _replace_entry(d5.expected_mtilde, 1, 2, rf(sym_minus(3)))
    out = verify_cartan(dataclasses.replace(d5, expected_mtilde=mtilde))
    assert not out.passed and not out.identity_holds
    match = re.match(r"entry \((\d+),(\d+)\) of M D\^-1 Mtilde D\^-1: ", out.failure)
    assert match, out.failure
    i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
    # only column 3 of Mtilde changed, so only column 3 of the product can move
    assert j == 2
    # the named entry really breaks the identity under plain Fraction arithmetic
    x = Fraction(2)
    m, mt, d = d5.M.evaluate(x), mtilde.evaluate(x), d5.D.evaluate(x)
    value = sum(m[i][k] / d[k][k] * mt[k][j] / d[j][j] for k in range(5))
    assert value != (i == j)


def test_verify_cartan_rejects_off_diagonal_d(g2):
    d = _replace_entry(g2.D, 0, 1, rf(sym_minus(1)))
    out = verify_cartan(dataclasses.replace(g2, D=d))
    assert not out.passed
    assert out.failure.startswith("D entry (1,2) ")
    assert "diagonal" in out.failure


def test_verify_cartan_rejects_non_laurent_d(g2):
    d = _replace_entry(g2.D, 1, 1, rf(sym_minus(3), sym_plus(1)))
    out = verify_cartan(dataclasses.replace(g2, D=d))
    assert not out.passed
    assert out.failure.startswith("D entry (2,2) is not a Laurent polynomial")


def test_verify_cartan_rejects_non_laurent_mtilde(g2):
    mtilde = _replace_entry(g2.expected_mtilde, 0, 0, rf(sym_minus(2), sym_plus(2)))
    out = verify_cartan(dataclasses.replace(g2, expected_mtilde=mtilde))
    assert not out.passed
    assert out.failure.startswith("Mtilde entry (1,1) is not a Laurent polynomial")


def test_verify_cartan_rejects_matrices_larger_than_the_rank(e6):
    out = verify_cartan(dataclasses.replace(e6, rank=5))
    assert not out.passed
    assert out.failure == "matrix sizes M 6, D 6, Mtilde 6 do not match rank 5"


def test_verify_all_reports_singular_mtilde_without_raising(g2):
    a = rf(sym_minus(2))
    singular = FieldMatrix([[a, a], [a, a]])
    out = verify_all(dataclasses.replace(g2, expected_mtilde=singular))
    assert out.passed is False
    assert "FAIL dual identity fails" in out.details


# --- the pair table lives on the preset ----------------------------------------

def test_pair_table_is_freed_with_its_preset():
    preset = build_preset("g2")
    assert verify_all(preset).passed
    ref = weakref.ref(preset)
    del preset
    gc.collect()
    assert ref() is None
