"""Preset matrices, checked against the test-side oracles: exact products over
Laurent fractions and the Fraction-matrix inverse."""

from fractions import Fraction

import pytest

from oracle import (SingularMatrixError, diagonal_inverse, evaluate,
                    fraction_matrix_inverse, fractions_of, product_is_identity)
from wqalg.exactfield import LaurentPoly, RationalFunction, sym_minus, sym_plus
from wqalg.rflinalg import FieldMatrix


def frac_mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_g2_inverse_roundtrip(g2):
    # X = D^-1 M D^-1 is the two-sided inverse of Mtilde
    mt, m, d_inv = fractions_of(g2.expected_mtilde), fractions_of(g2.M), diagonal_inverse(g2.D)
    assert product_is_identity(mt, d_inv, m, d_inv)
    assert product_is_identity(d_inv, m, d_inv, mt)


def test_e6_inverse_matches_printed_deformation(e6):
    # Mtilde D^-1 M D^-1 = I, i.e. D M^-1 D = Mtilde
    d_inv = diagonal_inverse(e6.D)
    assert product_is_identity(fractions_of(e6.expected_mtilde), d_inv,
                               fractions_of(e6.M), d_inv)


def test_inverse_evaluation_oracle(e6):
    m = evaluate(e6.M, 2)
    inv = fraction_matrix_inverse(m)
    ident = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    assert frac_mat_mul(m, inv) == ident
    assert frac_mat_mul(inv, m) == ident


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        fraction_matrix_inverse([[1, 1], [1, 1]])


def test_determinant_nonzero_on_presets(g2, e6, d4):
    # det M(2) != 0 implies det M != 0; every M entry is finite at t = 2
    for preset in (g2, e6, d4):
        fraction_matrix_inverse(evaluate(preset.M, 2))


def test_transpose_and_json_roundtrip(g2):
    assert tuple(zip(*g2.M.rows)) == g2.M.rows
    # a matrix that is not symmetric: its JSON rows follow the entries
    a, b = RationalFunction(sym_minus(1)), RationalFunction(sym_minus(2), sym_plus(3))
    zero = RationalFunction(LaurentPoly.zero())
    mat = FieldMatrix([[a, b], [zero, a]])
    assert tuple(zip(*mat.rows)) != mat.rows
    assert mat.to_json() == {"dim": 2, "rows": [[a.to_json(), b.to_json()],
                                                [zero.to_json(), a.to_json()]]}


@pytest.mark.parametrize("rows", [[], [[RationalFunction(sym_minus(1))] * 2]])
def test_field_matrix_must_be_square_and_nonempty(rows):
    with pytest.raises(ValueError, match="^matrix must be square and nonempty$"):
        FieldMatrix(rows)


def test_latex_emitter_shape(g2):
    tex = g2.expected_mtilde.to_latex()
    assert tex.startswith("\\begin{pmatrix}")
    assert tex.endswith("\\end{pmatrix}")
    assert "&" in tex and "\\\\" in tex
