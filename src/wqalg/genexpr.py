"""Monomial calculus for generating series built from shifted Y factors.

A YMonomial encodes a finite product  prod Y_i(zq^a)^e  as the sorted
tuple of its (i, a, e) int triples: the map (i, a) -> e with one small
tuple per factor, since a series at rank holds hundreds of thousands of
monomials.  A SeriesExpr is a finite rational-coefficient sum of such
monomials; the sums T_1, T_2, T_5 and every delta-coefficient series live
here.  Its coefficients follow exactfield's policy: ints where integral,
Fractions only where not.  Like LaurentPoly it is an exactfield._TermMap,
which holds its constructor, equality and negation; SeriesExpr adds shifts,
dualisation and printing.  It has no sums or scalar products, and no hash.
T_2 and the delta-coefficient series are first held as pair sums, which
map l * len(monos) + r to the coefficient of monos[l] * monos[r](zq^-a):
bracket_sum accumulates them with no monomial product, and pair_series
builds the series of one, with one product per pair.  Monomials are ordered
by their factors tuples wherever they are sorted; the triples compare like
((i, a), e) pairs, since each (i, a) occurs once.  A product merges the
two sorted tuples in one pass, the empty one of the identity included.

Scalar prefactors of the Y generators are deliberately not represented.
Lemma: the prefactor of a product is determined by its Y-content (each
Y_i^{+-1} factor contributes a fixed exponent), so two expressions with
equal content carry equal prefactors, and log-bracket symbols do not see
constant prefactors at all; content-level equality is therefore equality.
"""

from __future__ import annotations

from .exactfield import _collect, _int_valued, _signed_sum, _TermMap


class YMonomial:
    """Finite product of Y_i(zq^a)^e factors, one (node, shift, exp) triple each.

    factors is the tuple of those int triples, sorted; each (node, shift)
    occurs once, with a nonzero exponent.
    """

    __slots__ = ("factors",)

    def __init__(self, content=()):
        """Build from a map (node, shift) -> exponent, or from its (key, exp) pairs."""
        data = _collect(content)
        for k, e in data.items():
            if not (type(k) is tuple and len(k) == 2 and all(isinstance(x, int) for x in (*k, e))):
                raise TypeError("a factor is (node, shift) -> exponent, all ints; got %r -> %r"
                                % (k, e))
        self.factors = tuple(sorted((i, a, e) for (i, a), e in data.items()))

    @classmethod
    def _raw(cls, factors):
        m = object.__new__(cls)
        m.factors = factors
        return m

    @classmethod
    def identity(cls):
        return cls._raw(())

    @classmethod
    def from_factors(cls, factors):
        """Build from (node, shift, exponent) triples; like (node, shift) add up."""
        return cls(((i, a), e) for i, a, e in factors)

    def __eq__(self, other):
        if not isinstance(other, YMonomial):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __mul__(self, other):
        if not isinstance(other, YMonomial):
            return NotImplemented
        a, b = self.factors, other.factors
        # both factors are sorted by (node, shift): merge them in one pass
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            x, y = a[i], b[j]
            if x[0] == y[0] and x[1] == y[1]:
                e = x[2] + y[2]
                if e:
                    out.append((x[0], x[1], e))
                i += 1
                j += 1
            elif x < y:
                # distinct (node, shift) keys: the triples order by key
                out.append(x)
                i += 1
            else:
                out.append(y)
                j += 1
        out += a[i:]
        out += b[j:]
        return YMonomial._raw(tuple(out))

    def shift_arg(self, s: int) -> "YMonomial":
        """Substitute z -> zq^s in every factor."""
        if not s:
            return self
        # one shift added to every (node, shift) key keeps the keys in order
        return YMonomial._raw(tuple([(i, a + s, e) for i, a, e in self.factors]))

    def dual(self) -> "YMonomial":
        """Replace every Y_i(zq^a)^e by Y_i(zq^-a)^-e."""
        return YMonomial._raw(tuple(sorted((i, -a, -e) for i, a, e in self.factors)))

    def _render(self, factor, sep):
        """The factors as factor % (node, exponent, argument), joined by sep."""
        if not self.factors:
            return "1"
        parts = []
        for i, a, e in self.factors:
            arg = "z" if a == 0 else ("zq" if a == 1 else "zq^{%d}" % a)
            exp = "" if e == 1 else "^{%d}" % e
            parts.append(factor % (i, exp, arg))
        return sep.join(parts)

    def __str__(self):
        return self._render("Y_%d%s(%s)", " ")

    __repr__ = __str__

    def to_latex(self) -> str:
        return self._render("Y_{%d}%s(%s)", "")

    def to_json(self):
        return [{"node": i, "shift": a, "exp": e} for i, a, e in self.factors]


class SeriesExpr(_TermMap):
    """Finite sum of YMonomials with nonzero rational coefficients."""

    __slots__ = ()
    _key = YMonomial

    @classmethod
    def one(cls):
        return cls._raw({YMonomial.identity(): 1})

    def shift_arg(self, s: int) -> "SeriesExpr":
        return SeriesExpr._raw({m.shift_arg(s): c for m, c in self.terms.items()})

    def dual(self) -> "SeriesExpr":
        return SeriesExpr._raw({m.dual(): c for m, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].factors)

    def __str__(self):
        return _signed_sum(((c, str(m) if abs(c) == 1 else "%s %s" % (abs(c), m))
                            for m, c in self.sorted_terms()), " ")

    __repr__ = __str__

    def to_json(self):
        return [{"coeff": [c.numerator, c.denominator], "monomial": m.to_json()}
                for m, c in self.sorted_terms()]


def build_t1(preset) -> SeriesExpr:
    """Sum of all fundamental-series terms with coefficient 1.

    The preset's terms are pairwise distinct (AlgebraPreset checks that), so
    each one is a term of T1.
    """
    return SeriesExpr({m: 1 for m in preset.lambdas})


def _t2_pairs(preset):
    """The pairs (i, j) of the second series, from the preset's closure spec."""
    rule = preset.closure.t2_pairs
    if rule is None:
        raise ValueError("no closed-form second series for %s" % preset.name)
    return rule(preset)


def pair_series(monos, pairs: dict, shift: int) -> SeriesExpr:
    """The series of a pair sum: sum of c * monos[l] * monos[r](zq^-shift).

    pairs maps l * len(monos) + r to c.  Each monos[r](zq^-shift) is built
    once, on first use; one monomial product is made per pair.
    """
    size, lowered, terms = len(monos), [None] * len(monos), {}
    for key, c in pairs.items():
        l, r = divmod(key, size)
        low = lowered[r]
        if low is None:
            low = lowered[r] = monos[r].shift_arg(-shift)
        m = monos[l] * low
        c += terms.get(m, 0)
        if c:
            terms[m] = c
        else:
            del terms[m]
    return SeriesExpr._raw(_int_valued(terms))


def t2_pair_keys(preset, monos):
    """The key over monos of each pair (i, j) of _t2_pairs, in turn (see pair_series).

    monos holds every Lambda.  The key of (i, j) is l * len(monos) + r, where
    monos[l] is L_i and monos[r] is L_j: at shift -2, L_i(z) L_j(zq^2).
    """
    at = {m: n for n, m in enumerate(monos)}
    index = [at[lam] for lam in preset.lambdas]
    size = len(monos)
    return (index[i - 1] * size + index[j - 1] for i, j in _t2_pairs(preset))


def build_t2(preset) -> SeriesExpr:
    """The displayed second series: sum of L_i(z) L_j(zq^2) over the pair set.

    Defined where the closure spec has a pair rule (D_n and G_2); the E6
    second series is derived from the closure computation instead (see the
    bracket engine).
    """
    pairs = {}
    for key in t2_pair_keys(preset, preset.lambdas):
        pairs[key] = pairs.get(key, 0) + 1
    return pair_series(preset.lambdas, pairs, -2)


def build_t5_e6(preset) -> SeriesExpr:
    """The E6 dual-series generator: the dual of T1, shifted by -12.

    With this normalization the dual of T1 equals T5(zq^12) by construction,
    matching the duality satisfied by the G_2 first series.  A preset whose
    closure spec names another dual, or none, is refused.
    """
    dual = preset.closure.dual
    if dual != "T5":
        raise ValueError("%s has no T5 dual series: its closure spec names %s as the dual"
                         % (preset.name, dual or "no series"))
    return build_t1(preset).dual().shift_arg(-12)
