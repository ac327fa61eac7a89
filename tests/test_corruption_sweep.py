"""No false PASS: every small corruption of a preset's tables fails its check.

Each corruption changes one entry (or one symmetric pair of entries) of one
table of g2, e6, d4, d5, d6 or the A_3 control (oracle.an_preset), and
builds a new preset from it with ``replace_preset``.  A corruption that the
AlgebraPreset constructor refuses counts as caught.  The sweeps are
exhaustive over these moves:

* lambdas: each factor Y_i(zq^a)^e of each Lambda gets its shift moved by
  -2, -1, +1 or +2, gets its exponent negated, is dropped, or moves to each
  other node (1,546 presets); ``verify_closure`` must fail on every one.
* N: N_ij and N_ji get +-t^s (t^k - t^-k) added, k = 1, 2, 3, where
  Q = t^s Q_0 with Q_0 even under t -> 1/t, and +-t^s (t^k + t^-k) where
  Q_0 is odd (A_3's Q_0 = t^4 - t^-4), so M stays symmetric and odd (456
  presets).
* mtilde: Mtilde_ij and Mtilde_ji get t^k - t^-k added, k = 1, 2 (152
  presets).
* d: each entry has its sign flipped, and each two distinct entries are
  swapped (only G2's differ).

``verify_cartan`` must fail on every N, mtilde and d corruption, and on the
whole diagonal of D negated, which leaves D M^-1 D unchanged and is caught
by the t -> 1 limit of d alone.

Every lambda corruption is refused inside ``bracket_sum``, before any
series is matched.  So the expected side is swept on its own, and
``verify_closure`` must fail on each of these, with a recorded text:

* the real bracket report with one matched series doctored (a term
  dropped, a term added or a coefficient's sign flipped) at every matched
  shift of d4, d5, g2 and e6;
* the real report against a second series built from ``_t2_pairs`` with
  one pair dropped, reversed or added, on d4, d5, d6 and g2 (477 in all);
* the real report with the edge series C(-edge) = 1, C(+edge) = -1, or
  both, moved by +-2, on d4, d5, d6 and g2 (the edge of g2 is 12);
* the real E6 report against ``T5`` shifted by +-1, +-2 or +-4.
"""

import functools

import pytest

import wqalg.genexpr as genexpr_mod
import wqalg.poisson as poisson_mod
from oracle import an_preset, laurent_sum, replace_preset
from wqalg import bracket_sum, build_preset, verify_cartan, verify_closure
from wqalg.exactfield import sym_minus, sym_plus
from wqalg.genexpr import SeriesExpr, YMonomial, build_t1, build_t5_e6

PRESETS = [("g2", None), ("e6", None), ("dn", 4), ("dn", 5), ("dn", 6), ("an", 3)]
IDS = ["g2", "e6", "d4", "d5", "d6", "a3"]


@pytest.fixture(scope="module", params=PRESETS, ids=IDS)
def preset(request):
    kind, n = request.param
    return an_preset(n) if kind == "an" else build_preset(kind, n)


def _replaced(rows, i, j, value):
    """rows with entries (i, j) and (j, i) set to value."""
    rows = [list(r) for r in rows]
    rows[i][j] = rows[j][i] = value
    return tuple(map(tuple, rows))


def _lambda_corruptions(p):
    for n, lam in enumerate(p.lambdas):
        factors = lam.factors
        for f, (node, shift, e) in enumerate(factors):
            moves = [(node, shift + s, e) for s in (-2, -1, 1, 2)]
            moves += [(node, shift, -e), None]
            moves += [(other, shift, e) for other in range(1, p.rank + 1) if other != node]
            for move in moves:
                moved = factors[:f] + ((move,) if move else ()) + factors[f + 1:]
                lambdas = p.lambdas[:n] + (YMonomial.from_factors(moved),) + p.lambdas[n + 1:]
                yield "Lambda_%d factor %d -> %s" % (n + 1, f + 1, move), {"lambdas": lambdas}


def _matrix_corruptions(p):
    q, nums = p.pair_table
    half = q.max_exp // 2
    # M = N_0 / Q_0 is odd: the added term has the parity of N_0, the opposite of Q_0's
    sym = sym_minus if q.shift(-half).invert_var() == q.shift(-half) else sym_plus
    for i in range(p.rank):
        for j in range(i, p.rank):
            for k in (1, 2, 3):
                for delta in (sym(k), -sym(k)):
                    entry = laurent_sum(nums[i][j], delta.shift(half))
                    yield ("N_%d%d += %s" % (i + 1, j + 1, delta),
                           {"pair_table": (q, _replaced(nums, i, j, entry))})
            for k in (1, 2):
                entry = laurent_sum(p.mtilde[i][j], sym_minus(k))
                yield ("Mtilde_%d%d += %s" % (i + 1, j + 1, sym_minus(k)),
                       {"mtilde": _replaced(p.mtilde, i, j, entry)})
    for i in range(p.rank):
        yield "d_%d negated" % (i + 1), {"d": p.d[:i] + (-p.d[i],) + p.d[i + 1:]}
        for j in range(i + 1, p.rank):
            if p.d[i] != p.d[j]:
                d = list(p.d)
                d[i], d[j] = d[j], d[i]
                yield "d_%d and d_%d swapped" % (i + 1, j + 1), {"d": tuple(d)}


def _passing(p, corruptions, verifier):
    """The labels of the corruptions that build a preset on which verifier passes."""
    passed = []
    for label, changes in corruptions:
        try:
            corrupted = replace_preset(p, **changes)
        except ValueError:
            continue
        if verifier(corrupted).passed:
            passed.append(label)
    return passed


def test_closure_fails_on_every_lambda_corruption(preset):
    assert _passing(preset, _lambda_corruptions(preset), verify_closure) == []


def test_cartan_fails_on_every_matrix_corruption(preset):
    assert _passing(preset, _matrix_corruptions(preset), verify_cartan) == []


def test_matrix_corruptions_keep_m_symmetric_and_odd(preset):
    # the N corruptions are not caught by the parity of M, only by the identity
    for _, changes in _matrix_corruptions(preset):
        if "pair_table" in changes:
            assert replace_preset(preset, **changes).m_parity == (True, True)


# (lambda corruptions, N and mtilde corruptions) per preset: 1,546 and 608 in all
SIZES = {"g2": (98, 24), "e6": (792, 168), "d4": (144, 80), "d5": (200, 120), "d6": (264, 168),
         "a3": (48, 48)}


def test_sweep_sizes(preset):
    matrix = [label for label, _ in _matrix_corruptions(preset) if not label.startswith("d_")]
    assert (sum(1 for _ in _lambda_corruptions(preset)), len(matrix)) == SIZES[preset.name]


def test_cartan_fails_on_a_negated_diagonal(preset):
    # D M^-1 D is invariant under D -> -D: only the t -> 1 limit of d sees it
    out = verify_cartan(replace_preset(preset, d=tuple(-e for e in preset.d)))
    assert not out.passed and out.identity_holds
    assert out.failure == "limit of d_1: got -1, expected 1"


# --- the expected side: each matched series, doctored in the bracket report -------

# The shifts whose delta series verify_closure matches against a given
# series.  E6's -2 is left out: C(-2) is derived (recorded as T2), not matched.
MATCHED = {"d4": (-6, -2, 2, 6), "d5": (-8, -2, 2, 8),
           "g2": (-12, -8, -2, 2, 8, 12), "e6": (-8, 8)}
PRESET_ARGS = {"d4": ("dn", 4), "d5": ("dn", 5), "d6": ("dn", 6), "g2": ("g2",),
               "e6": ("e6",)}


def _first(series):
    return series.sorted_terms()[0]


DOCTORS = {
    "drop": lambda s: SeriesExpr({m: c for m, c in s.terms.items() if m != _first(s)[0]}),
    "add": lambda s: SeriesExpr({**s.terms, _first(s)[0] * YMonomial({(1, 99): 1}): 1}),
    "flip": lambda s: SeriesExpr({**s.terms, _first(s)[0]: -_first(s)[1]}),
}


@functools.cache
def _closure(name):
    """The preset and its real T1 x T1 bracket report, built once per module."""
    preset = build_preset(*PRESET_ARGS[name])
    t1 = build_t1(preset)
    return preset, bracket_sum(t1, t1, preset)


@pytest.mark.parametrize("name,shift,doctor", [
    (name, shift, doctor) for name, shifts in MATCHED.items()
    for shift in shifts for doctor in DOCTORS])
def test_closure_fails_on_a_doctored_series(name, shift, doctor, monkeypatch):
    preset, real = _closure(name)

    def doctored(t_series, s_series, p):
        terms = dict(real.delta_terms)
        terms[shift] = DOCTORS[doctor](terms[shift])
        return poisson_mod.BracketReport(real.algebra, real.base_coeff, terms)

    monkeypatch.setattr(poisson_mod, "bracket_sum", doctored)
    out = verify_closure(preset)
    assert not out.passed
    assert out.failure == SERIES_FAILURES["%s %+d %s" % (name, shift, doctor)]


E6_ORIENTATION = "shift -8: expected T5(zq^4), the orientation of the D_n and G_2 closures"

# verify_closure's failure text for each doctored series, byte for byte
SERIES_FAILURES = {
    "d4 -6 drop": "shift -6: expected 1; first differing monomial 1 (got 0, want 1)",
    "d4 -6 add": "shift -6: expected 1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "d4 -6 flip": "shift -6: expected 1; first differing monomial 1 (got -1, want 1)",
    "d4 -2 drop":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-4}) Y_1^{-1}(zq^{-2}) "
        "Y_2(zq^{-1}) (got 0, want 1)",
    "d4 -2 add":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-4}) Y_1^{-1}(zq^{-2}) "
        "Y_1(zq^{99}) Y_2(zq^{-1}) (got 1, want 0)",
    "d4 -2 flip":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-4}) Y_1^{-1}(zq^{-2}) "
        "Y_2(zq^{-1}) (got -1, want 1)",
    "d4 +2 drop":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-6}) "
        "Y_1^{-1}(zq^{-4}) Y_2(zq^{-3}) (got 0, want -1)",
    "d4 +2 add":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-6}) "
        "Y_1^{-1}(zq^{-4}) Y_1(zq^{99}) Y_2(zq^{-3}) (got 1, want 0)",
    "d4 +2 flip":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-6}) "
        "Y_1^{-1}(zq^{-4}) Y_2(zq^{-3}) (got 1, want -1)",
    "d4 +6 drop": "shift +6: expected -1; first differing monomial 1 (got 0, want -1)",
    "d4 +6 add": "shift +6: expected -1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "d4 +6 flip": "shift +6: expected -1; first differing monomial 1 (got 1, want -1)",
    "d5 -8 drop": "shift -8: expected 1; first differing monomial 1 (got 0, want 1)",
    "d5 -8 add": "shift -8: expected 1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "d5 -8 flip": "shift -8: expected 1; first differing monomial 1 (got -1, want 1)",
    "d5 -2 drop":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-6}) Y_1^{-1}(zq^{-2}) "
        "Y_2(zq^{-1}) (got 0, want 1)",
    "d5 -2 add":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-6}) Y_1^{-1}(zq^{-2}) "
        "Y_1(zq^{99}) Y_2(zq^{-1}) (got 1, want 0)",
    "d5 -2 flip":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-6}) Y_1^{-1}(zq^{-2}) "
        "Y_2(zq^{-1}) (got -1, want 1)",
    "d5 +2 drop":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-4}) Y_2(zq^{-3}) (got 0, want -1)",
    "d5 +2 add":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-4}) Y_1(zq^{99}) Y_2(zq^{-3}) (got 1, want 0)",
    "d5 +2 flip":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-4}) Y_2(zq^{-3}) (got 1, want -1)",
    "d5 +8 drop": "shift +8: expected -1; first differing monomial 1 (got 0, want -1)",
    "d5 +8 add": "shift +8: expected -1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "d5 +8 flip": "shift +8: expected -1; first differing monomial 1 (got 1, want -1)",
    "g2 -12 drop": "shift -12: expected 1; first differing monomial 1 (got 0, want 1)",
    "g2 -12 add": "shift -12: expected 1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "g2 -12 flip": "shift -12: expected 1; first differing monomial 1 (got -1, want 1)",
    "g2 -8 drop":
        "shift -8: expected T1(zq^4); first differing monomial Y_1^{-1}(zq^{-8}) (got 0, want 1)",
    "g2 -8 add":
        "shift -8: expected T1(zq^4); first differing monomial Y_1^{-1}(zq^{-8}) Y_1(zq^{99}) "
        "(got 1, want 0)",
    "g2 -8 flip":
        "shift -8: expected T1(zq^4); first differing monomial Y_1^{-1}(zq^{-8}) (got -1, want 1)",
    "g2 -2 drop":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-6}) Y_2(zq^{-5}) (got 0, want 1)",
    "g2 -2 add":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-6}) Y_1(zq^{99}) Y_2(zq^{-5}) (got 1, want 0)",
    "g2 -2 flip":
        "shift -2: expected T2(z); first differing monomial Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) "
        "Y_1^{-1}(zq^{-6}) Y_2(zq^{-5}) (got -1, want 1)",
    "g2 +2 drop":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-12}) "
        "Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) Y_2(zq^{-7}) (got 0, want -1)",
    "g2 +2 add":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-12}) "
        "Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) Y_1(zq^{99}) Y_2(zq^{-7}) (got 1, want 0)",
    "g2 +2 flip":
        "shift +2: expected -T2(zq^-2); first differing monomial Y_1^{-1}(zq^{-12}) "
        "Y_1^{-1}(zq^{-10}) Y_1^{-1}(zq^{-8}) Y_2(zq^{-7}) (got 1, want -1)",
    "g2 +8 drop":
        "shift +8: expected -T1(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) (got 0, want "
        "-1)",
    "g2 +8 add":
        "shift +8: expected -T1(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) Y_1(zq^{99}) "
        "(got 1, want 0)",
    "g2 +8 flip":
        "shift +8: expected -T1(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) (got 1, want "
        "-1)",
    "g2 +12 drop": "shift +12: expected -1; first differing monomial 1 (got 0, want -1)",
    "g2 +12 add": "shift +12: expected -1; first differing monomial Y_1(zq^{99}) (got 1, want 0)",
    "g2 +12 flip": "shift +12: expected -1; first differing monomial 1 (got 1, want -1)",
    "e6 -8 drop": E6_ORIENTATION + "; first differing monomial Y_1^{-1}(zq^{-8}) (got 0, want 1)",
    "e6 -8 add":
        E6_ORIENTATION + "; first differing monomial Y_1^{-1}(zq^{-8}) Y_1(zq^{99}) "
        "(got 1, want 0)",
    "e6 -8 flip": E6_ORIENTATION + "; first differing monomial Y_1^{-1}(zq^{-8}) (got -1, want 1)",
    "e6 +8 drop":
        "shift +8: expected -T5(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) (got 0, want "
        "-1)",
    "e6 +8 add":
        "shift +8: expected -T5(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) Y_1(zq^{99}) "
        "(got 1, want 0)",
    "e6 +8 flip":
        "shift +8: expected -T5(zq^-4); first differing monomial Y_1^{-1}(zq^{-16}) (got 1, want "
        "-1)",
}


# --- the expected side: the tables the matched series are built from -------------
# bracket_sum returns the real report; only the expected series change.

def _real_report(monkeypatch, name):
    preset, real = _closure(name)
    monkeypatch.setattr(poisson_mod, "bracket_sum", lambda t, s, p: real)
    return preset, real


def _t2_pair_corruptions(pairs, size):
    """Each pair dropped, each pair reversed, and each missing ordered pair added."""
    for n, (i, j) in enumerate(pairs):
        yield "drop %s" % ((i, j),), pairs[:n] + pairs[n + 1:]
        yield "reverse %s" % ((i, j),), pairs[:n] + [(j, i)] + pairs[n + 1:]
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i != j and (i, j) not in pairs:
                yield "add %s" % ((i, j),), pairs + [(i, j)]


@pytest.mark.parametrize("name", ["d4", "d5", "d6", "g2"])
def test_closure_fails_on_every_t2_pair_corruption(name, monkeypatch):
    preset, _ = _real_report(monkeypatch, name)
    pairs = list(genexpr_mod._t2_pairs(preset))
    passed, count = [], 0
    for label, corrupted in _t2_pair_corruptions(pairs, len(preset.lambdas)):
        monkeypatch.setattr(genexpr_mod, "_t2_pairs", lambda p, c=corrupted: c)
        out = verify_closure(preset)
        count += 1
        if out.passed or not out.failure.startswith("shift -2: expected T2(z); "):
            passed.append(label)
    assert passed == []
    assert count == T2_CORRUPTIONS[name]


# drops, reversals and additions: 2 * pairs + (k(k-1) - pairs), k = len(lambdas)
T2_CORRUPTIONS = {"d4": 85, "d5": 136, "d6": 199, "g2": 57}


@pytest.mark.parametrize("name", ["d4", "d5", "d6", "g2"])
@pytest.mark.parametrize("moved", [(-1,), (1,), (-1, 1)], ids=["minus", "plus", "both"])
@pytest.mark.parametrize("by", [-2, 2])
def test_closure_fails_on_a_moved_edge(name, moved, by, monkeypatch):
    # the edge series C(-edge) = 1 and C(+edge) = -1 sit at +-(edge + by)
    preset, real = _closure(name)
    edge = max(real.delta_terms)
    terms = dict(real.delta_terms)
    for sign in moved:
        terms[sign * (edge + by)] = terms.pop(sign * edge)
    doctored = poisson_mod.BracketReport(real.algebra, real.base_coeff, terms)
    monkeypatch.setattr(poisson_mod, "bracket_sum", lambda t, s, p: doctored)
    out = verify_closure(preset)
    assert not out.passed
    assert out.failure == "delta support %s differs from expected %s" % (
        sorted(terms), sorted(real.delta_terms))


@pytest.mark.parametrize("by", [-4, -2, -1, 1, 2, 4])
def test_e6_closure_fails_on_a_shifted_t5(by, monkeypatch):
    preset, _ = _real_report(monkeypatch, "e6")
    t5 = build_t5_e6(preset)
    monkeypatch.setattr(poisson_mod, "build_t5_e6", lambda p: t5.shift_arg(by))
    out = verify_closure(preset)
    assert not out.passed
    # the first differing monomial is the first term of the lower series:
    # T5(zq^(4+by)) wants it for by < 0, the real C(-8) has it for by > 0
    first, got, want = ("Y_1^{-1}(zq^{%d})" % (by - 8), 0, 1) if by < 0 else (
        "Y_1^{-1}(zq^{-8})", 1, 0)
    assert out.failure == "%s; first differing monomial %s (got %d, want %d)" % (
        E6_ORIENTATION, first, got, want)
