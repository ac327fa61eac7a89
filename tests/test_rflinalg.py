"""Matrix algebra over the rational-function field, checked against
an independent Fraction-matrix oracle."""

from fractions import Fraction

import pytest

from wqalg.exactfield import RationalFunction, sym_minus
from wqalg.rflinalg import FieldMatrix, SingularMatrixError


# test-side oracle helpers over plain Fraction matrices

def frac_mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_inverse(rows):
    n = len(rows)
    a = [list(r) for r in rows]
    inv = frac_identity(n)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
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


def test_identity_is_neutral(g2):
    assert FieldMatrix.identity(2) * g2.M == g2.M
    assert g2.M * FieldMatrix.identity(2) == g2.M


def test_g2_d_squared_is_diagonal(g2):
    sq = g2.D * g2.D
    assert sq.rows[0][0] == RationalFunction(sym_minus(1)) ** 2
    assert sq.rows[1][1] == RationalFunction(sym_minus(3)) ** 2
    assert sq.rows[0][1].is_zero and sq.rows[1][0].is_zero


def test_product_evaluation_oracle(e6):
    x = Fraction(2)
    prod = e6.M * e6.expected_mtilde
    assert prod.evaluate(x) == frac_mat_mul(e6.M.evaluate(x),
                                            e6.expected_mtilde.evaluate(x))


def test_dimension_mismatch_rejected(g2, e6):
    with pytest.raises(ValueError):
        g2.M * e6.M


def test_g2_inverse_roundtrip(g2):
    inv = g2.M.inverse()
    assert g2.M * inv == FieldMatrix.identity(2)
    assert inv * g2.M == FieldMatrix.identity(2)


def test_e6_inverse_matches_printed_deformation(e6):
    assert e6.D * e6.M.inverse() * e6.D == e6.expected_mtilde


def test_inverse_evaluation_oracle(e6):
    x = Fraction(2)
    assert e6.M.inverse().evaluate(x) == frac_inverse(e6.M.evaluate(x))


def test_singular_matrix_raises():
    one = RationalFunction.one()
    with pytest.raises(SingularMatrixError):
        FieldMatrix([[one, one], [one, one]]).inverse()


def test_determinant_nonzero_on_presets(g2, e6, d4):
    for preset in (g2, e6, d4):
        assert not preset.M.determinant().is_zero


def test_determinant_of_singular_is_zero():
    one = RationalFunction.one()
    assert FieldMatrix([[one, one], [one, one]]).determinant().is_zero


def test_transpose_and_json_roundtrip(g2):
    assert g2.M.transpose() == g2.M
    assert FieldMatrix.from_json(g2.M.to_json()) == g2.M


def test_latex_emitter_shape(g2):
    tex = g2.expected_mtilde.to_latex()
    assert tex.startswith("\\begin{pmatrix}")
    assert tex.endswith("\\end{pmatrix}")
    assert "&" in tex and "\\\\" in tex
