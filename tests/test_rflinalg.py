"""Matrix algebra over the rational-function field, checked against
an independent Fraction-matrix oracle."""

from fractions import Fraction

import pytest

from wqalg.exactfield import RationalFunction, sym_minus
from wqalg.rflinalg import FieldMatrix, SingularMatrixError, fraction_matrix_inverse


# test-side product over plain Fraction matrices; the inverse is the package's
# oracle, fraction_matrix_inverse

def frac_mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def identity(n):
    return FieldMatrix.diagonal([1] * n)


def d_inverse(preset):
    return FieldMatrix.diagonal([RationalFunction.one() / row[k]
                                 for k, row in enumerate(preset.D.rows)])


def test_identity_is_neutral(g2):
    assert identity(2) * g2.M == g2.M
    assert g2.M * identity(2) == g2.M


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
    # X = D^-1 M D^-1 is the two-sided inverse of Mtilde
    x = d_inverse(g2) * g2.M * d_inverse(g2)
    assert g2.expected_mtilde * x == identity(2)
    assert x * g2.expected_mtilde == identity(2)


def test_e6_inverse_matches_printed_deformation(e6):
    # Mtilde D^-1 M D^-1 = I, i.e. D M^-1 D = Mtilde
    assert e6.expected_mtilde * d_inverse(e6) * e6.M * d_inverse(e6) == identity(6)


def test_inverse_evaluation_oracle(e6):
    m = e6.M.evaluate(Fraction(2))
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
        fraction_matrix_inverse(preset.M.evaluate(Fraction(2)))


def test_transpose_and_json_roundtrip(g2):
    assert g2.M.transpose() == g2.M
    assert FieldMatrix.from_json(g2.M.to_json()) == g2.M


def test_latex_emitter_shape(g2):
    tex = g2.expected_mtilde.to_latex()
    assert tex.startswith("\\begin{pmatrix}")
    assert tex.endswith("\\end{pmatrix}")
    assert "&" in tex and "\\\\" in tex
