"""Exact Laurent polynomials in one variable t, and canonical rational functions.

This module owns the coefficient policy of both term maps, LaurentPoly's
exponent -> coefficient and genexpr.SeriesExpr's monomial -> coefficient: a
coefficient is an exact rational, held as a Python int wherever it is
integral and as a Fraction only where it is not; zeros are never stored and
anything else (a float, say) is rejected.  Both kinds subclass _TermMap,
which holds their one constructor (through the collector _collect), their
equality and their negation; the constructor also rejects a key of the
wrong type (a LaurentPoly exponent must be an int).  Term maps are
normalised by _int_valued, so the policy is applied in one place.  Sums
of scaled, shifted term maps (products, the steps of laurent_divmod, the
bracket-symbol numerators, the entry a failing Cartan residual names) all
add through the one kernel _add_scaled, which is where such a sum drops
the terms that cancel; the Cartan residual itself compares one int per
entry at t = 2^w (algebras._identity_residual).

LaurentPoly is the ring the checks run in: products, division with
remainder by a polynomial (laurent_divmod) and exact division
(laurent_divide); sums are taken on term maps.  The presets are built and
the Cartan and bracket checks run in that ring, with no gcd.
laurent_divmod is the module's one division kernel: exact division and
the canonical form's gcd run on it too.

RationalFunction is a value type for display: the preset matrices M, D and
Mtilde as printed, and the bracket symbols.  It is not a field
implementation: it compares and prints, but does not add, multiply or
divide.  It keeps the (num, den) it was given, and its canonical form is
computed once, on first read; equality, hashing and printing go through that
form, so equality of field elements is equality of canonical forms.  That
first read is the one place that takes a polynomial gcd (a primitive
pseudo-remainder sequence, _poly_gcd), and a value that is never read (a
bracket symbol that is only decomposed, say) takes none.  In
canonical form numerator and denominator are coprime, the denominator is an
ordinary polynomial (nonzero constant term) with integer coprime
coefficients and positive leading coefficient, and all unit factors t^k and
rational scalars live in the numerator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm


def _int_valued(data: dict) -> dict:
    """Rewrite each integral coefficient of the term map as an int, in place.

    The one normaliser behind the invariant that a term map holds an int
    wherever a coefficient is integral and a Fraction only where it is not.
    Fraction(3) == 3 and hash(Fraction(3)) == hash(3), so equality, hashing
    and printing are unchanged by it.  Returns data.
    """
    for e, c in data.items():
        if type(c) is not int and c.denominator == 1:
            data[e] = c.numerator
    return data


def _exact(c):
    """c itself if it is an exact rational (int or Fraction); else TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("coefficients must be int or Fraction, got %r" % (c,))
    return c


def _collect(terms) -> dict:
    """Term map of a mapping or of (key, coeff) pairs: like keys summed, zeros dropped."""
    data = {}
    for k, c in terms.items() if hasattr(terms, "items") else terms:
        if _exact(c):
            c = data.get(k, 0) + c
            if c:
                data[k] = c
            else:
                del data[k]
    return _int_valued(data)


def _add_scaled(acc: dict, shift: int, coeff, terms: dict) -> None:
    """acc += coeff * t^shift * terms, in place, deleting each sum that cancels.

    coeff must be nonzero, and terms holds no zeros, so a key is deleted
    only where acc held it.  Fractions with denominator 1 are left for
    _int_valued.
    """
    for e, c in terms.items():
        k = e + shift
        s = acc.get(k, 0) + coeff * c
        if s:
            acc[k] = s
        else:
            del acc[k]


def _signed_sum(terms, sep) -> str:
    """The (coeff, body) pairs as a sum of the bodies, signed like the coeffs.

    Each body prints |coeff| times its term.  Terms are joined by sep on both
    sides of each sign, "a - b + c" for sep " "; a leading "+" is dropped and
    a leading "-" keeps no space.
    """
    minus, plus = "-" + sep, "+" + sep
    out = sep.join([(minus if c < 0 else plus) + body for c, body in terms])
    if not out:
        return "0"
    rest = out[len(plus):]
    return rest if out[0] == "+" else "-" + rest


class _TermMap:
    """A term map key -> nonzero exact rational coefficient, held as terms.

    The one copy of construction (through _collect), equality and negation of
    LaurentPoly and genexpr.SeriesExpr; each kind adds its own products,
    shifts and printing.  Equality holds only between maps of the same kind.
    """

    __slots__ = ("terms",)
    _key = object   # each kind's key type, checked on construction (not by _raw)

    def __init__(self, terms=()):
        self.terms = _collect(terms)
        for k in self.terms:
            if not isinstance(k, self._key):
                raise TypeError("%s keys must be %s, got %r"
                                % (type(self).__name__, self._key.__name__, k))

    @classmethod
    def _raw(cls, data):
        # internal: data already normalized (no zeros, integral values as ints)
        p = object.__new__(cls)
        p.terms = data
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})


class LaurentPoly(_TermMap):
    """Sparse Laurent polynomial: a map exponent -> nonzero rational coefficient.

    Integral coefficients are ints, the others Fractions (see the module notes).
    A LaurentPoly is a value: no code changes its term map once it is built
    (every operation returns a new one), so its hash is computed on the
    first call and kept.
    """

    __slots__ = ("_hash",)
    _key = int

    @classmethod
    def one(cls):
        return cls._raw({0: 1})

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:   # first call: the slot is unset until now
            self._hash = h = hash(frozenset(self.terms.items()))
            return h

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = {}
        for e, c in self.terms.items():
            _add_scaled(data, e, c, other.terms)
        return LaurentPoly._raw(_int_valued(data))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()})

    def invert_var(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly._raw({-e: c for e, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self):
        return [[e, c.numerator, c.denominator] for e, c in self.sorted_terms()]

    def _render(self, power, product, sep):
        """The terms by descending exponent as a signed sum joined by sep."""
        terms = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mag = abs(c)
            var = "t" if e == 1 else power % e
            terms.append((c, str(mag) if e == 0 else var if mag == 1 else product % (mag, var)))
        return _signed_sum(terms, sep)

    def __str__(self):
        return self._render("t^%d", "%s*%s", " ")

    __repr__ = __str__

    def to_latex(self) -> str:
        return self._render("t^{%d}", "%s %s", "")


def sym_minus(a: int) -> LaurentPoly:
    """t^a - t^-a, the antisymmetric factor; requires a >= 1."""
    if a < 1:
        raise ValueError("sym_minus requires a positive exponent, got %r" % (a,))
    return LaurentPoly._raw({a: 1, -a: -1})


def sym_plus(a: int) -> LaurentPoly:
    """t^a + t^-a, the symmetric factor; requires a >= 1."""
    if a < 1:
        raise ValueError("sym_plus requires a positive exponent, got %r" % (a,))
    return LaurentPoly._raw({a: 1, -a: 1})


def _exact_quotient(x, y):
    """x / y as an int when it is integral, else as a Fraction."""
    quo, rest = divmod(x, y)
    return quo if not rest else Fraction(x, y)


def laurent_divmod(a: LaurentPoly, q: LaurentPoly):
    """Division with remainder by a polynomial q with a nonzero constant term.

    Returns term maps (quo, rem), exponent -> coefficient, with
    a = quo * q + rem and rem supported in [0, deg q); both are unique.

    Exponents below 0 are cleared with q's constant term, then those at or
    above deg q with its leading term, visiting only q's nonzero terms.
    Each step divides exactly, falling back to Fraction only when a step is
    not integral; so an integral a over a q with end coefficients +-1 stays
    in ints throughout.  Integral coefficients of quo and rem are ints.
    """
    if not q:
        raise ZeroDivisionError("Laurent division by zero")
    qt = q.terms
    if min(qt) != 0:
        raise ValueError("divisor must be a polynomial with a nonzero constant term, "
                         "got %s" % q)
    deg = max(qt)
    rem = dict(a.terms)
    quo = {}
    if not rem:
        return quo, rem
    for pivot, exps in ((0, range(min(rem), 0)), (deg, range(max(rem), deg - 1, -1))):
        lead = qt[pivot]
        for e in exps:
            x = rem.get(e)
            if x is None:
                continue
            c = _exact_quotient(x, lead)
            quo[e - pivot] = c
            # clears the term at e exactly: c * lead == x
            _add_scaled(rem, e - pivot, -c, qt)
    return quo, _int_valued(rem)


def laurent_divide(a: LaurentPoly, b: LaurentPoly):
    """Exact quotient a / b in the Laurent ring, or None if b does not divide a."""
    if not b.terms:
        raise ZeroDivisionError("Laurent division by zero")
    k = min(b.terms)
    quo, rem = laurent_divmod(a, b.shift(-k))
    if rem:
        return None
    # laurent_divmod's quotient holds no zero, and an int wherever it is integral
    return LaurentPoly._raw({e - k: c for e, c in quo.items()})


def _primitive(p: LaurentPoly):
    """(c, q) with p = c * t^min_exp * q, for a nonzero p.

    q is a polynomial with a nonzero constant term, coprime int coefficients
    and a positive leading coefficient; c is p's content, signed like p's
    leading coefficient.
    """
    terms = p.terms
    off, top = min(terms), max(terms)
    den = _int_lcm(*(c.denominator for c in terms.values()))
    g = _int_gcd(*(c.numerator for c in terms.values()))
    if terms[top] < 0:
        g = -g
    q = {e - off: c.numerator * (den // c.denominator) // g for e, c in terms.items()}
    return _exact_quotient(g, den), LaurentPoly._raw(q)


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two polynomials as _primitive returns them, in the same form.

    A primitive pseudo-remainder sequence on laurent_divmod: prescaling a by
    lc(b)^(deg a - deg b + 1) keeps each division in ints, and _primitive
    takes content, sign and t^k out of each remainder.  Dropping t^k loses
    no common factor: after _primitive neither a nor b is divisible by t.
    Each remainder's degree is below b's, so the sequence ends; a remainder
    that breaks this (a term map holding a stored zero, say) raises
    ArithmeticError instead of looping.
    """
    if a.max_exp < b.max_exp:
        a, b = b, a
    while True:
        top = b.max_exp
        lead = b.terms[top] ** (a.max_exp - top + 1)
        _, rem = laurent_divmod(LaurentPoly._raw({e: c * lead for e, c in a.terms.items()}), b)
        if not rem:
            return b
        if max(rem) >= top:
            raise ArithmeticError("gcd remainder of degree %d is not below the divisor's %d"
                                  % (max(rem), top))
        a, b = b, _primitive(LaurentPoly._raw(rem))[1]


def _canonical(num: LaurentPoly, den: LaurentPoly):
    """The canonical (num, den) of num / den, for a nonzero den (see the module notes)."""
    if not num:
        return LaurentPoly.zero(), LaurentPoly.one()
    unit = num.min_exp - den.min_exp
    n_content, num = _primitive(num)
    d_content, den = _primitive(den)
    g = _poly_gcd(num, den)
    if g.max_exp:
        num, den = laurent_divide(num, g), laurent_divide(den, g)
    scale = _exact_quotient(n_content, d_content)
    return LaurentPoly._raw(_int_valued({e + unit: c * scale
                                         for e, c in num.terms.items()})), den


class RationalFunction:
    """Ratio of Laurent polynomials in t over exact rationals.

    A value type that keeps the (num, den) it was given as stored and
    computes its canonical form once, on first read of num or den.  Equality,
    hashing and printing read the canonical form, so two equal field elements
    compare, hash and print alike whatever their stored pairs.  It has no
    field arithmetic (see the module notes).
    """

    __slots__ = ("stored", "_canon")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.stored = (num, den)
        self._canon = None

    def _form(self):
        """The canonical (num, den), computed on the first call only."""
        if self._canon is None:
            self._canon = _canonical(*self.stored)
        return self._canon

    @property
    def num(self) -> LaurentPoly:
        return self._form()[0]

    @property
    def den(self) -> LaurentPoly:
        return self._form()[1]

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._form() == other._form()

    def __hash__(self):
        return hash(self._form())

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __str__(self):
        if self.den == LaurentPoly.one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__

    def to_latex(self) -> str:
        if self.den == LaurentPoly.one():
            return self.num.to_latex()
        return "\\frac{%s}{%s}" % (self.num.to_latex(), self.den.to_latex())

