"""Preset data: matrix entries, monomial tables, deformed Cartan verification."""

import gc
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (an_preset, cartan_identity_at_two_to_the_k, evaluate, laurent_sum,
                    m_parity_by_products, pair_table_at_two_to_the_k, replace_preset,
                    residual_cleared_by_every_d)
from wqalg import algebras, build_preset, exactfield, verify_all, verify_cartan
from wqalg.algebras import _classical_limit, _pair_table
from wqalg.exactfield import LaurentPoly, RationalFunction, sym_minus, sym_plus
from wqalg.genexpr import YMonomial


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
        n = preset.rank
        assert preset.lambdas[0] == YMonomial.from_factors([(1, 0, 1)])
        assert preset.lambdas[2 * n - 1] == YMonomial.from_factors([(1, -2 * n + 2, -1)])


def test_fundamental_dims(g2, e6, d4, d5):
    assert len(g2.lambdas) == 7
    assert len(e6.lambdas) == 27
    assert len(d4.lambdas) == 8
    assert len(d5.lambdas) == 10


def test_lambdas_pairwise_distinct(g2, e6, d4, d5):
    for preset, k in ((g2, 7), (e6, 27), (d4, 8), (d5, 10)):
        assert len(set(preset.lambdas)) == k


def test_preset_rejects_repeated_lambdas(g2):
    lams = g2.lambdas
    with pytest.raises(ValueError, match="fundamental terms are not pairwise distinct for g2"):
        replace_preset(g2, lambdas=lams[:-1] + lams[:1])


@pytest.mark.parametrize("node", [0, 3])
def test_preset_rejects_a_lambda_factor_outside_its_nodes(g2, node):
    # verify_all would otherwise stop at the first bracket symbol, naming
    # neither the preset nor the table
    lams = g2.lambdas[:-1] + (g2.lambdas[-1] * YMonomial.from_factors([(node, -3, 1)]),)
    with pytest.raises(ValueError, match=re.escape(
            "the table lambdas of g2 has a factor on node %d, outside 1..2" % node)):
        replace_preset(g2, lambdas=lams)


@pytest.mark.parametrize("name", ["g2", "e6", "d8"])
def test_a_relabelled_preset_verifies_as_its_tables_say(name):
    # the verifiers read the preset's tables and closure spec, never its name
    preset = build_preset("dn", 8) if name == "d8" else build_preset(name)
    relabelled = replace_preset(preset, name="b2")
    assert relabelled.name == "b2"
    out, expected = verify_all(relabelled), verify_all(preset)
    assert out.passed and expected.passed
    assert out.details == expected.details


def test_pair_table_oracle_names_only_the_tabled_kinds(g2):
    class Relabelled:
        name, pair_table = "b2", g2.pair_table

    with pytest.raises(ValueError, match="no closed forms for 'b2'"):
        pair_table_at_two_to_the_k(Relabelled)


def test_d_matrix_structure(g2, e6, d5):
    # diagonal entries are t^d - t^-d with d = 1 except the long g2 node
    for preset, ds in [(g2, [1, 3]), (e6, [1] * 6), (d5, [1] * 5)]:
        for i, d in enumerate(ds):
            assert preset.D.rows[i][i] == rf(sym_minus(d))
            for j in range(preset.rank):
                if j != i:
                    assert preset.D.rows[i][j] == RationalFunction(LaurentPoly.zero())


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
    assert g2.b == ((2, -3), (-3, 6))


def test_verify_cartan_e6(e6):
    assert verify_cartan(e6).passed


@pytest.mark.parametrize("n", range(4, 11))
def test_verify_cartan_dn_and_limit(n):
    preset = build_preset("dn", n)
    out = verify_cartan(preset)
    assert out.passed, out.failure
    expected = preset.b
    assert all(expected[i][i] == 2 for i in range(n))
    assert expected[n - 3][n - 2] == expected[n - 3][n - 1] == -1
    assert expected[n - 2][n - 1] == 0


# the ranks sampled from d4..d64 keep the test well under a second
ORACLE_PRESETS = [("g2", None), ("e6", None)] + [("dn", n) for n in
                                                  (*range(4, 11), 16, 24, 32, 48, 64)]


@pytest.mark.parametrize("kind,n", ORACLE_PRESETS)
def test_cartan_identity_at_a_power_of_two(kind, n):
    # one exact evaluation per entry, with no LaurentPoly arithmetic, proves it
    holds, k_exp = cartan_identity_at_two_to_the_k(build_preset(kind, n))
    assert holds and k_exp <= 12


@pytest.mark.parametrize("kind,n", [("dn", 5), ("dn", 32), ("e6", None), ("g2", None)])
def test_power_of_two_oracle_rejects_a_corrupted_pair(kind, n):
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    wrong = laurent_sum(nums[0][1], LaurentPoly({4: 1, 2: -1}))
    bad = replace_preset(preset, pair_table=(
        q, _replace_entry(_replace_entry(nums, 0, 1, wrong), 1, 0, wrong)))
    assert cartan_identity_at_two_to_the_k(bad)[0] is False
    assert not verify_cartan(bad).passed


# ranks sampled from d4..d64, as above: building every rank would take about 2 s.
# Odd ranks take the cofactor path for every entry, even ranks divide twice
@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)] + [
    ("dn", n) for n in (*range(4, 13), 16, 24, 32, 33, 48, 63, 64)])
def test_pair_table_matches_the_closed_forms_at_a_power_of_two(kind, n):
    # N_ij den_ij = num_ij Q, with the closed forms restated in the oracle
    holds, k_exp = pair_table_at_two_to_the_k(build_preset(kind, n))
    assert holds and k_exp <= 12


@pytest.mark.parametrize("kind,n,i,j", [("dn", 5, 1, 0), ("dn", 32, 31, 30), ("g2", None, 1, 1),
                                       ("e6", None, 5, 2)])
def test_pair_table_oracle_rejects_a_corrupted_entry(kind, n, i, j):
    # one entry of one triangle: the oracle reads both
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    wrong = laurent_sum(nums[i][j], LaurentPoly({4: 1, 2: -1}))
    bad = replace_preset(preset, pair_table=(q, _replace_entry(nums, i, j, wrong)))
    assert pair_table_at_two_to_the_k(bad)[0] is False


def test_verify_cartan_reports_first_mismatch(g2):
    corrupted = replace_preset(g2, mtilde=_replace_entry(g2.mtilde, 0, 1, sym_minus(1)))
    out = verify_cartan(corrupted)
    assert not out.passed
    assert "(1,2)" in out.failure


def test_matrix_oddness_and_symmetry(g2, e6, d4, d5):
    for preset in (g2, e6, d4, d5):
        for mat in (preset.M, preset.expected_mtilde):
            assert tuple(zip(*mat.rows)) == mat.rows
        for mat in (preset.M, preset.D, preset.expected_mtilde):
            for row in mat.rows:
                for entry in row:
                    assert (RationalFunction(entry.num.invert_var(), entry.den.invert_var())
                            == RationalFunction(-entry.num, entry.den))


# --- the t -> 1 limit, read off the Laurent entries -----------------------------

@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in range(4, 9)])
def test_classical_limit_matches_field_evaluation(kind, n):
    preset = build_preset(kind, n)
    for row in preset.mtilde:
        for e in row:
            # the canonical form of e / (t - t^-1) cancels the zero at t = 1
            quotient = RationalFunction(e, sym_minus(1))
            assert _classical_limit(e) == evaluate(quotient, 1)


def test_classical_limit_of_rational_coefficients():
    p = LaurentPoly({3: Fraction(1, 2), -3: Fraction(-1, 2), 1: 1, 0: -1})
    assert _classical_limit(p) == evaluate(RationalFunction(p, sym_minus(1)), 1)
    assert _classical_limit(LaurentPoly({2: 1})) is None


def _tables_with_mtilde_11(g2, entry, dd=None):
    # a consistent preset (M = D Mtilde'^-1 D, so the residual check passes)
    # with Mtilde'_11 = entry: Mtilde', Q = det Mtilde' and N = D adj(Mtilde') D,
    # with D = diag(dd) (default g2's)
    mtilde = _replace_entry(g2.mtilde, 0, 0, entry)
    (a, b), (c, d) = mtilde
    det = laurent_sum(a * d, -(b * c))
    dd = dd or g2.d
    adj = [[d, -b], [-c, a]]
    nums = tuple(tuple(dd[i] * adj[i][j] * dd[j] for j in range(2)) for i in range(2))
    return mtilde, det, nums


def _consistent_preset(g2, entry, dd=None):
    # Q and N shift together, leaving M unchanged, so that Q has min exponent 0
    mtilde, det, nums = _tables_with_mtilde_11(g2, entry, dd)
    k = det.min_exp
    nums = tuple(tuple(e.shift(-k) for e in row) for row in nums)
    return replace_preset(g2, pair_table=(det.shift(-k), nums), mtilde=mtilde, d=dd or g2.d)


def test_verify_cartan_names_a_pole_of_the_limit(g2):
    # t^2 - t^-2 + 1 is nonzero at t = 1, so its quotient by t - t^-1 has a pole
    entry = laurent_sum(sym_minus(2), LaurentPoly.one())
    out = verify_cartan(_consistent_preset(g2, entry))
    assert out.identity_holds and not out.passed
    assert out.failure == ("limit entry (1,1): %s divided by t - t^-1 has a pole at t = 1"
                           % entry)


def test_verify_cartan_names_a_pole_of_the_limit_of_d(g2):
    # d_2 = t^3 - t^-3 + 1 with M = D Mtilde^-1 D: the residual holds, and
    # the limit of d_2 is read before any entry of Mtilde
    d2 = laurent_sum(g2.d[1], LaurentPoly.one())
    out = verify_cartan(_consistent_preset(g2, g2.mtilde[0][0], (g2.d[0], d2)))
    assert out.identity_holds and not out.passed
    assert out.failure == "limit of d_2: %s divided by t - t^-1 has a pole at t = 1" % d2


def test_verify_cartan_names_a_finite_wrong_limit(g2):
    # (t^4 - t^-4) / (t - t^-1) -> 4 at t = 1, where B_11 = 2
    out = verify_cartan(_consistent_preset(g2, sym_minus(4)))
    assert out.identity_holds and not out.passed
    assert out.failure == "limit entry (1,1): got 4, expected 2"


def test_preset_rejects_a_q_with_negative_exponents(g2):
    # laurent_divmod divides by Q, so Q must be a polynomial with a nonzero
    # constant term; unshifted, det Mtilde' has min exponent -8
    mtilde, det, nums = _tables_with_mtilde_11(g2, laurent_sum(sym_minus(2), LaurentPoly.one()))
    assert det.min_exp < 0
    with pytest.raises(ValueError, match="the table Q of g2 is not a polynomial"):
        replace_preset(g2, pair_table=(det, nums), mtilde=mtilde)


# --- the division-free identity check: failure paths --------------------------

def _replace_entry(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def test_verify_cartan_names_a_residual_entry_in_the_changed_column(d5):
    mtilde = _replace_entry(d5.mtilde, 1, 2, sym_minus(3))
    out = verify_cartan(replace_preset(d5, mtilde=mtilde))
    assert not out.passed and not out.identity_holds
    match = re.match(r"entry \((\d+),(\d+)\) of M D\^-1 Mtilde D\^-1: ", out.failure)
    assert match, out.failure
    i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
    # only column 3 of Mtilde changed, so only column 3 of the product can move
    assert j == 2
    # the named entry really breaks the identity under plain Fraction arithmetic
    x = Fraction(2)
    m, d = evaluate(d5.M, x), [evaluate(e, x) for e in d5.d]
    mt = [[evaluate(e, x) for e in row] for row in mtilde]
    value = sum(m[i][k] / d[k] * mt[k][j] / d[j] for k in range(5))
    assert value != (i == j)


def test_verify_cartan_rejects_a_zero_diagonal_d_entry(g2):
    out = verify_cartan(replace_preset(g2, d=(g2.d[0], LaurentPoly.zero())))
    assert not out.passed and not out.identity_holds
    assert out.failure == "D entry (2,2) is 0; D must be diagonal with a nonzero diagonal"


def test_preset_rejects_tables_larger_than_its_diagonal(e6):
    # the rank is len(d): the 6 x 6 tables of e6 do not fit a diagonal of 5
    with pytest.raises(ValueError, match="the table N of e6 is not square of size len"):
        replace_preset(e6, d=e6.d[:5])


def test_preset_rejects_a_table_that_is_not_square(g2):
    a = sym_minus(2)
    with pytest.raises(ValueError, match="the table mtilde of g2 is not square"):
        replace_preset(g2, mtilde=((a,), (a, a)))
    q, nums = g2.pair_table
    with pytest.raises(ValueError, match="the table N of g2 is not square"):
        replace_preset(g2, pair_table=(q, (nums[0], nums[1][:1])))
    with pytest.raises(ValueError, match="the table b of g2 is not square"):
        replace_preset(g2, b=((2, -3), (-3,)))


def test_preset_rejects_a_derived_closure_row_at_another_shift(e6):
    # a derived row records C(-2), so a row at b = 4 would check the support
    # at +-4 and still record the series derived from delta(w/zq^2)
    rows = tuple((4,) + row[1:] if row[1] is None else row for row in e6.closure.rows)
    with pytest.raises(ValueError) as err:
        replace_preset(e6, closure=e6.closure._replace(rows=rows))
    assert str(err.value) == ("the closure row (4, None, 0, None, None, None) of e6 reads "
                              "C(-4); a derived series is C(-2)")


def test_verify_all_reports_singular_mtilde_without_raising(g2):
    a = sym_minus(2)
    out = verify_all(replace_preset(g2, mtilde=((a, a), (a, a))))
    assert out.passed is False
    assert "FAIL dual identity fails" in out.details


# --- the pair table lives on the preset ----------------------------------------

def test_pair_table_divides_each_entry_exactly_or_raises():
    # t^3 + t^-3 = (t + t^-1)(t^2 - 1 + t^-2); Q and N shift together by t^3.
    # (1,1) multiplies num by the cofactor Q / (t + t^-1); (1,2)'s den is
    # wider than Q and t^2 + t^-2 does not divide Q, so (1,2) and (2,2)
    # divide num * Q instead, as even n's den_long forms do
    q, nums = _pair_table(sym_plus(3), {
        sym_plus(1): [(((1, 1),), sym_minus(1))],
        sym_plus(1) * sym_plus(3): [(((1, 2),), sym_minus(2))],
        sym_plus(2): [(((2, 2),), sym_minus(4))]})
    assert q == LaurentPoly({6: 1, 0: 1})
    off = sym_minus(1).shift(3)
    assert nums == ((sym_minus(1) * LaurentPoly({5: 1, 3: -1, 1: 1}), off),
                    (off, (sym_minus(2) * sym_plus(3)).shift(3)))
    # a den of 2 (t^3 + t^-3) leaves the unit cofactor t^3 / 2
    half = LaurentPoly({3: Fraction(1, 2)})
    assert _pair_table(sym_plus(3), {LaurentPoly({3: 2, -3: 2}): [(((1, 1),), sym_minus(1))]}) \
        == (q, ((sym_minus(1) * half,),))
    for den in (sym_plus(2), sym_plus(4)):
        with pytest.raises(ArithmeticError, match=re.escape(
                "declared Q = %s is not a multiple of %s" % (q, den))):
            _pair_table(sym_plus(3), {den: [(((1, 1),), sym_minus(1))]})


def _calls(monkeypatch, targets, fn):
    """(the number of calls to targets while fn() runs, fn()'s result).

    targets holds (owner, name) pairs naming one callable, patched in each
    owner that looks it up.
    """
    calls = []
    real = getattr(*targets[0])

    def counting(*args):
        calls.append(None)
        return real(*args)

    with monkeypatch.context() as patch:
        for owner, name in targets:
            patch.setattr(owner, name, counting)
        result = fn()
    return len(calls), result


def _divmod_calls(monkeypatch, kind, n=None):
    """The number of laurent_divmod calls that build_preset(kind, n) makes."""
    return _calls(monkeypatch, [(exactfield, "laurent_divmod"), (algebras, "laurent_divmod")],
                  lambda: build_preset(kind, n))[0]


@pytest.mark.parametrize("small,large", [(16, 64), (17, 65)])
def test_dn_build_divides_a_number_of_times_that_does_not_grow_with_n(
        monkeypatch, small, large):
    # one cofactor Q / den per den, and the even-n den_long forms, not one
    # division per entry (about n^2 / 2 of them)
    assert 0 < _divmod_calls(monkeypatch, "dn", small) == _divmod_calls(monkeypatch, "dn", large)


@pytest.mark.parametrize("kind,forms", [("e6", 12), ("g2", 3)])
def test_exceptional_builds_try_no_cofactor(monkeypatch, kind, forms):
    # no denominator of theirs divides Q: one division per distinct form,
    # and none for a cofactor that cannot exist
    assert _divmod_calls(monkeypatch, kind) == forms


@pytest.mark.parametrize("n", [32, 33])
def test_dn_build_makes_one_product_per_entry(monkeypatch, n):
    # each R_m = sym_plus(m) * Q / den is made once and each entry is the one
    # product sym_minus(i) * R_m
    products, preset = _calls(monkeypatch, [(LaurentPoly, "__mul__")],
                              lambda: build_preset("dn", n))
    nums = preset.pair_table[1]
    assert products <= len({e for row in nums for e in row}) + 2 * n


def test_pair_table_is_freed_with_its_preset():
    preset = build_preset("g2")
    assert verify_all(preset).passed
    ref = weakref.ref(preset)
    del preset
    gc.collect()
    assert ref() is None


# the failures recorded before the residual compared term maps in place:
# (kind, n, Mtilde entry (i, j) 0-based, new value) -> verify_cartan failure
RESIDUAL_FAILURES = {
    ("dn", 5, 1, 2): "entry (1,3) of M D^-1 Mtilde D^-1: computed "
                     "(t^8 + 2*t^6 + 2*t^4 + 2*t^2 + 1) / (t^8 + 1), expected 0",
    ("dn", 5, 0, 0): "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                     "(t^9 + t^7 - t^6 + t^5 + t^3 - t^2 + t + t^-1) / (t^8 + 1), expected 1",
    ("e6", None, 1, 2): "entry (1,3) of M D^-1 Mtilde D^-1: computed "
                        "(t^12 + 3*t^10 + 4*t^8 + 4*t^6 + 4*t^4 + 3*t^2 + 1) / "
                        "(t^12 + t^10 - t^6 + t^2 + 1), expected 0",
    ("e6", None, 0, 0): "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                        "(t^13 + 2*t^11 - t^10 + 2*t^9 - t^8 + t^7 - t^6 + t^5 - t^4 + 2*t^3 "
                        "- t^2 + 2*t + t^-1) / (t^12 + t^10 - t^6 + t^2 + 1), expected 1",
}


@pytest.mark.parametrize("kind,n,i,j", sorted(RESIDUAL_FAILURES, key=str))
def test_residual_failure_text_is_pinned(kind, n, i, j):
    # one off-diagonal and one diagonal Mtilde entry set to t^3 - t^-3; the
    # diagonal one breaks a diagonal entry of the product
    preset = build_preset(kind, n)
    out = verify_cartan(replace_preset(preset, mtilde=_replace_entry(
        preset.mtilde, i, j, sym_minus(3))))
    assert not out.identity_holds
    assert out.failure == RESIDUAL_FAILURES[kind, n, i, j]


# --- the parity of M: reflection or accumulation, against whole products ------

_PRODUCTS = [(LaurentPoly, "__mul__")]
_ACCUMULATIONS = [(exactfield, "_add_scaled"), (algebras, "_add_scaled")]


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in (*range(4, 13), 32)])
def test_m_parity_matches_the_product_oracle(monkeypatch, kind, n):
    # every preset's Q is self-reciprocal, so its parity is read by
    # reflection, with no product and no accumulation
    preset = build_preset(kind, n)
    assert _calls(monkeypatch, _PRODUCTS, lambda: _calls(
        monkeypatch, _ACCUMULATIONS, lambda: preset.m_parity)) == (0, (0, (True, True)))
    assert m_parity_by_products(preset) == (True, True)


def test_m_parity_matches_the_product_oracle_on_a_non_palindromic_q(monkeypatch, g2, e6, d5):
    # Q = det Mtilde' with Mtilde'_11 = t^2 + 1 - t^-2, as in the limit tests
    # above, where M is not odd; and Q and N of each preset times a factor
    # that leaves M as it is: 1 + 2t, after which Q is not self-reciprocal
    # and each entry is tested by accumulation, or t^2 - 1, after which Q is
    # self-reciprocal with the sign u = -1 and is read by reflection
    cases = [(_consistent_preset(g2, laurent_sum(sym_minus(2), LaurentPoly.one())),
              (True, False), True)]
    for preset in (g2, e6, d5):
        q, nums = preset.pair_table
        for f, accumulates in (LaurentPoly({0: 1, 1: 2}), True), (LaurentPoly({2: 1, 0: -1}), False):
            cases.append((replace_preset(preset, pair_table=(
                q * f, tuple(tuple(e * f for e in row) for row in nums))), (True, True),
                accumulates))
    for preset, parity, accumulates in cases:
        q = preset.pair_table[0]
        assert q.invert_var().shift(q.max_exp) != q
        calls, got = _calls(monkeypatch, _ACCUMULATIONS, lambda: preset.m_parity)
        assert got == m_parity_by_products(preset) == parity
        assert (calls > 0) == accumulates


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 4), ("dn", 7),
                                    ("dn", 32)])
def test_m_parity_matches_the_product_oracle_on_corrupted_entries(kind, n):
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    terms = nums[0][1].terms
    top = max(terms)
    corrupted = [
        # an off-diagonal entry times t, a diagonal entry plus 1, and the
        # lower triangle negated (each entry stays odd)
        ((False, False), _replace_entry(nums, 0, 1, nums[0][1].shift(1))),
        ((True, False), _replace_entry(nums, 1, 1, laurent_sum(nums[1][1], LaurentPoly.one()))),
        ((False, True), tuple(tuple(-e if j < i else e for j, e in enumerate(row))
                              for i, row in enumerate(nums))),
    ]
    # in both triangles, an off-diagonal entry without its top term, whose
    # reflection, its lowest term, stays, and one with its top coefficient
    # doubled, whose reflection keeps its coefficient
    for entry in (LaurentPoly({e: c for e, c in terms.items() if e != top}),
                  LaurentPoly({**terms, top: 2 * terms[top]})):
        corrupted.append(((True, False),
                          _replace_entry(_replace_entry(nums, 0, 1, entry), 1, 0, entry)))
    for parity, table in corrupted:
        bad = replace_preset(preset, pair_table=(q, table))
        assert bad.m_parity == m_parity_by_products(bad) == parity


# --- the residual over the q-Cartan matrix Z = L D^-1 Mtilde -------------------

def _q_cartan_entry(r, c):
    """[r c] / [r] for a Cartan integer c: sign(c) (t^(r(|c|-1)) + ... + t^(-r(|c|-1)))."""
    sign = 1 if c > 0 else -1
    return LaurentPoly({r * (abs(c) - 1 - 2 * m): sign for m in range(abs(c))})


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None)]
                         + [("dn", n) for n in (*range(4, 13), 32)]
                         + [("an", n) for n in range(1, 9)])
def test_q_cartan_of_a_correct_preset_clears_nothing(kind, n):
    # d_k = [r_k] divides row k of Mtilde = [B]: L is 1 and Z = D^-1 Mtilde is
    # the q-Cartan matrix, t^r_k + t^-r_k on the diagonal
    preset = an_preset(n) if kind == "an" else build_preset(kind, n)
    big_l, z = algebras._q_cartan(preset.d, preset.mtilde)
    assert big_l == LaurentPoly.one()
    for k, (row_b, row_z) in enumerate(zip(preset.b, z)):
        r = row_b[k] // 2
        assert row_z == [(j, _q_cartan_entry(r, bkj // r)) for j, bkj in enumerate(row_b) if bkj]


def _undivided(name, g2, d5, e6):
    """A preset in which some d_k does not divide row k of Mtilde, and its L."""
    return {
        "g2 Mtilde_21 = [2]": (replace_preset(g2, mtilde=_replace_entry(
            g2.mtilde, 1, 0, sym_minus(2))), sym_minus(3)),
        "g2 d_2 = [2]": (replace_preset(g2, d=(g2.d[0], sym_minus(2))), sym_minus(2)),
        "d5 d_1 = [2]": (replace_preset(d5, d=(sym_minus(2),) + d5.d[1:]), sym_minus(2)),
        "e6 d_6 = [3]": (replace_preset(e6, d=e6.d[:5] + (sym_minus(3),)), sym_minus(3)),
        # two undivided rows: L = [2] [4], and row k of Z is Mtilde_kj L / d_k
        "g2 d = ([2], [4])": (replace_preset(g2, d=(sym_minus(2), sym_minus(4))),
                              sym_minus(2) * sym_minus(4)),
        # M = D Mtilde^-1 D with D = diag([1], [2]), then diag([2], [4]): the
        # residual holds with L = [2], then with L = [2] [4]
        "g2 consistent, d_2 = [2]": (_consistent_preset(g2, g2.mtilde[0][0],
                                                        (g2.d[0], sym_minus(2))), sym_minus(2)),
        "g2 consistent, d = ([2], [4])": (
            _consistent_preset(g2, g2.mtilde[0][0], (sym_minus(2), sym_minus(4))),
            sym_minus(2) * sym_minus(4)),
    }[name]


# verify_cartan's failures on those presets, recorded while the residual was
# cleared by the product of every distinct d_k
UNDIVIDED_FAILURES = {
    "g2 Mtilde_21 = [2]": "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                          "(t^8 + t^6 + t^5 + t^3 + t^2 + 1) / (t^8 - t^4 + 1), expected 1",
    "g2 d_2 = [2]": "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                    "(t^10 - t^9 + 2*t^8 - 2*t^7 + t^6 - 3*t^5 + t^4 - 2*t^3 + 2*t^2 - t + 1) / "
                    "(t^10 + t^8 - t^6 - t^4 + t^2 + 1), expected 1",
    "d5 d_1 = [2]": "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                    "(t^8 - t^7 - t^3 + t^2) / (t^10 + t^8 + t^2 + 1), expected 1",
    "e6 d_6 = [3]": "entry (1,3) of M D^-1 Mtilde D^-1: computed "
                    "(t^8 + t^4) / (t^12 + t^10 - t^6 + t^2 + 1), expected 0",
    "g2 d = ([2], [4])": "entry (1,1) of M D^-1 Mtilde D^-1: computed "
                         "(t^14 - t^10 - t^8 - t^6 + t^2) / "
                         "(t^16 + 2*t^14 + t^12 + t^4 + 2*t^2 + 1), expected 1",
    "g2 consistent, d_2 = [2]": "limit of d_2: got 2, expected 3",
    "g2 consistent, d = ([2], [4])": "limit of d_1: got 2, expected 1",
}


@pytest.mark.parametrize("name", sorted(UNDIVIDED_FAILURES))
def test_undivided_rows_keep_the_verdict_text(name, g2, d5, e6):
    preset, big_l = _undivided(name, g2, d5, e6)
    assert algebras._q_cartan(preset.d, preset.mtilde)[0] == big_l
    out = verify_cartan(preset)
    assert not out.passed
    assert out.identity_holds == name.startswith("g2 consistent")
    assert out.failure == UNDIVIDED_FAILURES[name]
    assert residual_cleared_by_every_d(preset) == (None if out.identity_holds else out.failure)


@settings(max_examples=100)
@given(data=st.data())
def test_residual_matches_the_oracle_on_single_entry_corruptions(g2, d5, e6, data):
    # one entry of Mtilde, d or N set to a t-number or moved by one term,
    # integral, rational or large; a t-number on d or Mtilde often leaves a
    # row that d_k does not divide
    preset = data.draw(st.sampled_from([g2, d5, e6]))
    table = data.draw(st.sampled_from(["mtilde", "d", "N"]))
    i, j = data.draw(st.tuples(st.integers(0, preset.rank - 1), st.integers(0, preset.rank - 1)))
    q, nums = preset.pair_table
    old = preset.d[i] if table == "d" else (preset.mtilde if table == "mtilde" else nums)[i][j]
    value = data.draw(st.one_of(
        st.integers(-6, 6).map(algebras._t_number),
        st.tuples(st.integers(-4, 4), st.sampled_from(
            [-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
             2 ** 40, -2 ** 40])).map(
            lambda ec: laurent_sum(old, LaurentPoly({ec[0]: ec[1]})))))
    if table == "d":
        bad = replace_preset(preset, d=preset.d[:i] + (value,) + preset.d[i + 1:])
    elif table == "mtilde":
        bad = replace_preset(preset, mtilde=_replace_entry(preset.mtilde, i, j, value))
    else:
        bad = replace_preset(preset, pair_table=(q, _replace_entry(nums, i, j, value)))
    out, expected = verify_cartan(bad), residual_cleared_by_every_d(bad)
    assert out.identity_holds == (expected is None)
    if expected is not None:
        assert out.failure == expected


@pytest.mark.parametrize("kind,n", [("dn", 32), ("e6", None), ("g2", None)])
def test_a_passing_residual_sums_no_term_map(monkeypatch, kind, n):
    # each table entry is one int at t = 2^w, so a residual that holds adds no
    # N_ik into a term map
    preset = build_preset(kind, n)
    calls, out = _calls(monkeypatch, [(algebras, "_add_scaled")], lambda: verify_cartan(preset))
    assert out.passed
    assert calls == 0


def test_a_failing_residual_sums_only_the_entry_it_names(monkeypatch, d5):
    # the corruption of test_verify_cartan_names_a_residual_entry_in_the_changed_column:
    # the named entry (i, j) alone is summed again, N_ik once per term of Z_kj
    bad = replace_preset(d5, mtilde=_replace_entry(d5.mtilde, 1, 2, sym_minus(3)))
    calls, out = _calls(monkeypatch, [(algebras, "_add_scaled")], lambda: verify_cartan(bad))
    j = int(re.match(r"entry \(\d+,(\d+)\)", out.failure).group(1)) - 1
    assert calls == len(bad.cartan_residual[1][j]) > 0
    assert out.failure == residual_cleared_by_every_d(bad)


def test_the_first_failing_entry_is_taken_row_by_row(d5):
    # N_31 and N_15 moved by one break row 3 in columns 1 and 2, and row 1 in
    # columns 3 and 5 (node 5 hangs off node 3): column 1 breaks first, yet
    # the first entry row by row is (1,3)
    q, nums = d5.pair_table
    one = LaurentPoly.one()
    table = _replace_entry(nums, 2, 0, laurent_sum(nums[2][0], one))
    table = _replace_entry(table, 0, 4, laurent_sum(table[0][4], one))
    bad = replace_preset(d5, pair_table=(q, table))
    out = verify_cartan(bad)
    assert out.failure == residual_cleared_by_every_d(bad)
    assert out.failure.startswith("entry (1,3) ")


def _over(p, k):
    return LaurentPoly({e: Fraction(c, k) for e, c in p.terms.items()})


@pytest.mark.parametrize("kind,n", [("g2", None), ("dn", 5)])
def test_a_rational_pair_table_is_scaled_to_ints(kind, n):
    # Q and N both divided by 3 leave M as it is, and the residual still holds;
    # one coefficient of N moved by 1/3, on the diagonal (N stays symmetric)
    # or off it, breaks it where the term-map oracle says
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    thirds = replace_preset(preset, pair_table=(
        _over(q, 3), tuple(tuple(_over(e, 3) for e in row) for row in nums)))
    assert thirds.M.rows == preset.M.rows
    assert verify_cartan(thirds).passed
    third = LaurentPoly({0: Fraction(1, 3)})
    for i, j in (0, 0), (0, 1):
        bad = replace_preset(preset, pair_table=(q, _replace_entry(
            nums, i, j, laurent_sum(nums[i][j], third))))
        out = verify_cartan(bad)
        assert not out.identity_holds
        assert out.failure == residual_cleared_by_every_d(bad)


@pytest.mark.parametrize("kind,n", [("g2", None), ("e6", None), ("dn", 5)])
def test_a_corruption_that_vanishes_at_a_small_power_of_two_is_found(kind, n):
    # N_11 plus 2^64 - t vanishes at t = 2^64, where every entry of the
    # corrupted row would read true; w is bounded from the corrupted table,
    # so the residual evaluates past it
    preset = build_preset(kind, n)
    q, nums = preset.pair_table
    moved = LaurentPoly({0: 2 ** 64, 1: -1})
    assert evaluate(moved, 2 ** 64) == 0
    bad = replace_preset(preset, pair_table=(q, _replace_entry(
        nums, 0, 0, laurent_sum(nums[0][0], moved))))
    out = verify_cartan(bad)
    assert not out.identity_holds
    assert out.failure == residual_cleared_by_every_d(bad)
    assert out.failure.startswith("entry (1,")


def test_verify_cartan_names_a_half_integral_limit_of_d(g2):
    # B_11 = 3 with Mtilde_11 = [3] and d_1 = [1]: the residual holds, and the
    # limit of d_1 is 1, not B_11 / 2 = 3/2
    preset = replace_preset(_consistent_preset(g2, sym_minus(3)), b=((3, -3), (-3, 6)))
    out = verify_cartan(preset)
    assert out.identity_holds and not out.passed
    assert out.failure == "limit of d_1: got 1, expected 3/2"
