"""The deformed Cartan identity under sympy, which shares no code with wqalg.

Each preset's M, D and Mtilde are rebuilt as sympy rational functions from
their stored coefficients, and sympy.cancel must reduce every entry of
M D^-1 Mtilde D^-1 - I to 0.
"""

import pytest
import sympy

from wqalg import build_preset

t = sympy.Symbol("t")


def to_sympy(poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * t ** e
                for e, c in poly.terms.items()), sympy.Integer(0))


def to_matrix(mat):
    return sympy.Matrix([[to_sympy(e.num) / to_sympy(e.den) for e in row]
                         for row in mat.rows])


def residual_entries(m, d, mtilde, r):
    d_inv = sympy.diag(*[1 / d[k, k] for k in range(r)])
    residual = m * d_inv * mtilde * d_inv - sympy.eye(r)
    return [sympy.cancel(residual[i, j]) for i in range(r) for j in range(r)]


@pytest.mark.parametrize("kind, n", [("g2", None), ("e6", None),
                                     ("dn", 4), ("dn", 5), ("dn", 6), ("dn", 7), ("dn", 8)])
def test_cartan_identity_under_sympy(kind, n):
    preset = build_preset(kind, n)
    m, d, mtilde = (to_matrix(x) for x in (preset.M, preset.D, preset.expected_mtilde))
    r = preset.rank
    assert all(d[i, j] == 0 for i in range(r) for j in range(r) if i != j)
    assert residual_entries(m, d, mtilde, r) == [0] * (r * r)


def test_sympy_oracle_sees_a_wrong_entry():
    preset = build_preset("g2")
    m, d, mtilde = (to_matrix(x) for x in (preset.M, preset.D, preset.expected_mtilde))
    mtilde[0, 1] = t - 1 / t
    assert residual_entries(m, d, mtilde, 2) != [0] * 4
