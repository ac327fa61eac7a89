"""A_n, built in the tests from its published closed forms, through the real verifiers.

No family of build_preset and no CLI choice makes it: tests/oracle.py's
an_preset builds its tables, its B and its closure spec, so every check
below reads only what the preset carries.
"""

import pytest

from oracle import (an_preset, cartan_identity_at_two_to_the_k, laurent_sum,
                    ordered_pair_bracket, pair_table_at_two_to_the_k, replace_preset)
from wqalg import bracket_sum, build_t1, verify_all, verify_cartan, verify_closure
from wqalg.exactfield import LaurentPoly
from wqalg.genexpr import SeriesExpr, YMonomial


@pytest.mark.parametrize("n", [*range(1, 9), 16, 32])
def test_an_passes_every_verifier(n):
    preset = an_preset(n)
    for verify in (verify_cartan, verify_closure, verify_all):
        out = verify(preset)
        assert out.passed, (verify.__name__, out.failure)
    assert verify_closure(preset).report.shifts == [-2, 2]
    assert "PASS every diagonal bracket is exactly MM_11 (pure)" in verify_all(preset).details
    assert cartan_identity_at_two_to_the_k(preset)[0]
    holds, k_exp = pair_table_at_two_to_the_k(preset)
    assert holds and k_exp <= 12


def test_an_pair_table_oracle_rejects_a_corrupted_entry():
    # one entry of one triangle: the oracle reads both
    preset = an_preset(5)
    q, nums = preset.pair_table
    rows = [list(row) for row in nums]
    rows[3][1] = laurent_sum(rows[3][1], LaurentPoly({4: 1, 2: -1}))
    bad = replace_preset(preset, pair_table=(q, tuple(map(tuple, rows))))
    assert pair_table_at_two_to_the_k(bad)[0] is False


@pytest.mark.parametrize("n", range(1, 5))
def test_an_closure_is_the_sum_over_pairs(n):
    # C(-2) = sum_{i<j} Lambda_i(z) Lambda_j(zq^2), built from the factors,
    # and the bracket over every ordered pair agrees with bracket_sum
    preset = an_preset(n)
    t1 = build_t1(preset)
    lams = preset.lambdas
    t2 = SeriesExpr({YMonomial.from_factors(
        list(lams[i].factors) + [(k, a + 2, e) for k, a, e in lams[j].factors]): 1
        for i in range(n + 1) for j in range(i + 1, n + 1)})
    base, deltas = ordered_pair_bracket(t1, t1, an_preset(n))
    assert base == 1
    assert deltas == {-2: t2, 2: -t2.shift_arg(-2)}
    assert bracket_sum(t1, t1, preset).delta_terms == deltas


def test_a1_closure_is_the_q_virasoro_bracket():
    # T1 = Y_1(z) + Y_1(zq^-2)^-1: {T1(z), T1(w)} = MM_11 T1 T1 + delta(w/zq^2) - delta(wq^2/z)
    preset = an_preset(1)
    t1 = build_t1(preset)
    report = bracket_sum(t1, t1, preset)
    assert report.base_coeff == 1
    assert report.delta_terms == {-2: SeriesExpr.one(), 2: -SeriesExpr.one()}
