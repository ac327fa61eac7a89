"""Exact arithmetic for Laurent polynomials and rational functions in one variable t.

Coefficients are exact rationals, held as Python ints wherever they are
integral and as Fractions only where they are not.  RationalFunction keeps a
unique canonical form so that equality of field elements is equality of
representations: numerator and denominator are coprime, the denominator is
an ordinary polynomial (nonzero constant term) with integer coprime
coefficients and positive leading coefficient.  All unit factors t^k and
rational scalars live in the numerator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


def _int_valued(data: dict) -> dict:
    """Rewrite each integral coefficient of the term map as an int, in place.

    The one normaliser behind the invariant that a LaurentPoly holds an int
    wherever a coefficient is integral and a Fraction only where it is not.
    Fraction(3) == 3 and hash(Fraction(3)) == hash(3), so equality, hashing
    and printing are unchanged by it.  Returns data.
    """
    for e, c in data.items():
        if type(c) is not int and c.denominator == 1:
            data[e] = c.numerator
    return data


class LaurentPoly:
    """Sparse Laurent polynomial: a map exponent -> nonzero rational coefficient.

    Integral coefficients are ints, the others Fractions (see _int_valued).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for e, c in items:
            c = c if isinstance(c, (int, Fraction)) else Fraction(c)
            if c:
                c0 = data.get(e)
                c = c if c0 is None else c0 + c
                if c:
                    data[e] = c
                else:
                    del data[e]
        self.terms = _int_valued(data)

    @classmethod
    def _raw(cls, data):
        # internal: data already normalized (no zeros, integral values as ints)
        p = object.__new__(cls)
        p.terms = data
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({0: 1})

    @classmethod
    def t_power(cls, k: int):
        return cls._raw({k: 1})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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

    def coeff(self, e: int):
        return self.terms.get(e, 0)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return LaurentPoly._raw(_int_valued(data))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e, 0) - c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return LaurentPoly._raw(_int_valued(data))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = data.get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                else:
                    del data[e]
        return LaurentPoly._raw(_int_valued(data))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "LaurentPoly":
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._raw(_int_valued({e: v * c for e, v in self.terms.items()}))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()})

    def invert_var(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly._raw({-e: c for e, c in self.terms.items()})

    def evaluate(self, x: Fraction) -> Fraction:
        """Direct term-by-term evaluation at a nonzero rational point."""
        x = Fraction(x)
        if not x:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        return sum((c * x ** e for e, c in self.terms.items()), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self):
        return [[e, c.numerator, c.denominator] for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data):
        return cls({e: Fraction(n, d) for e, n, d in data})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                body = str(c) if c > 0 else str(-c)
            else:
                var = "t" if e == 1 else "t^%d" % e
                mag = abs(c)
                body = var if mag == 1 else "%s*%s" % (mag, var)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    __repr__ = __str__

    def to_latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else "t^{%d}" % e
                mag = abs(c)
                body = var if mag == 1 else "%s %s" % (mag, var)
            parts.append(("-" if c < 0 else "+") + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


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


# ---------------------------------------------------------------------------
# Ordinary-polynomial helpers on dense integer coefficient lists.
#
# Canonicalization works on the integer images of numerator and denominator
# (clear t^min, clear rational content).  The gcd uses a primitive
# pseudo-remainder sequence, which keeps every intermediate coefficient an
# integer of moderate size; monic Euclid over Fraction would blow up.
# ---------------------------------------------------------------------------

def _dense_int(lp: LaurentPoly):
    """(offset, [c0..cd], scale): lp = scale * t^offset * poly, coeffs coprime ints."""
    if lp.is_zero:
        return 0, [], Fraction(0)
    off = lp.min_exp
    den_lcm = 1
    for c in lp.terms.values():
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    coeffs = [0] * (lp.max_exp - off + 1)
    for e, c in lp.terms.items():
        coeffs[e - off] = c.numerator * (den_lcm // c.denominator)
    g = 0
    for c in coeffs:
        g = _int_gcd(g, abs(c))
    if g > 1:
        coeffs = [c // g for c in coeffs]
    return off, coeffs, Fraction(g, den_lcm)


def _from_dense(offset: int, coeffs, scale=1) -> LaurentPoly:
    """scale * t^offset * sum_i coeffs[i] t^i, for int coeffs and a nonzero scale.

    An integral scale is applied as an int, so the result needs no normalising.
    """
    if scale.denominator == 1:
        scale = scale.numerator
    data = {offset + i: scale * c for i, c in enumerate(coeffs) if c}
    return LaurentPoly._raw(data if type(scale) is int else _int_valued(data))


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _prim(a):
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
    if g > 1:
        return [c // g for c in a]
    return a


def _pseudo_mod(a, b):
    """Pseudo-remainder of integer coefficient lists, lowest degree first."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        la = a[-1]
        g = _int_gcd(abs(la), abs(lb))
        mul_a, mul_b = lb // g, la // g
        k = len(a) - 1 - db
        a = [c * mul_a for c in a]
        for i, c in enumerate(b):
            a[k + i] -= mul_b * c
        _trim(a)
    return a


def _int_poly_gcd(a, b):
    """Primitive gcd of two integer coefficient lists (may be empty for zero)."""
    a, b = _prim(list(a)), _prim(list(b))
    while b:
        a, b = b, _prim(_pseudo_mod(a, b))
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _int_poly_divexact(a, b):
    """Exact quotient a / b of integer lists; raises if the division is not exact."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        num = a[k + db]
        if num % lb:
            raise ArithmeticError("inexact polynomial division")
        c = num // lb
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the ordinary-polynomial parts (t^min cleared) of a and b."""
    if a.is_zero:
        g = b
    elif b.is_zero:
        g = a
    else:
        _, da, _ = _dense_int(a)
        _, db, _ = _dense_int(b)
        g = _from_dense(0, _int_poly_gcd(da, db))
    if g.is_zero:
        return g
    _, cs, _ = _dense_int(g.shift(-g.min_exp))
    return _from_dense(0, cs, Fraction(1, cs[-1]))


def _exact_quotient(x, y):
    """x / y as an int when it is integral, else as a Fraction."""
    quo, rest = divmod(x, y)
    return quo if not rest else Fraction(x, y)


def laurent_divmod(a: LaurentPoly, q: LaurentPoly):
    """Division with remainder by a polynomial q with a nonzero constant term.

    Returns term maps (quo, rem), exponent -> coefficient, with
    a = quo * q + rem and rem supported in [0, deg q); both are unique.
    LaurentPoly(quo) gives the Fraction-valued form.

    Exponents below 0 are cleared with q's constant term, then those at or
    above deg q with its leading term, visiting only q's nonzero terms.
    Each step divides exactly, falling back to Fraction only when a step is
    not integral; so an integral a over a q with end coefficients +-1 stays
    in ints throughout.  Integral coefficients of quo and rem are ints.
    """
    if q.is_zero:
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
            x = rem.pop(e, 0)
            if not x:
                continue
            c = _exact_quotient(x, lead)
            s = e - pivot
            quo[s] = c
            for k, v in qt.items():
                if k != pivot:
                    y = rem.get(s + k, 0) - c * v
                    if y:
                        rem[s + k] = y
                    else:
                        rem.pop(s + k, None)
    return quo, _int_valued(rem)


def laurent_divide(a: LaurentPoly, b: LaurentPoly):
    """Exact quotient a / b in the Laurent ring, or None if b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("Laurent division by zero")
    k = b.min_exp
    quo, rem = laurent_divmod(a, b.shift(-k))
    if rem:
        return None
    return LaurentPoly({e - k: c for e, c in quo.items()})


def laurent_primitive(a: LaurentPoly) -> LaurentPoly:
    """a divided by its rational content: coprime integer coefficients, same support."""
    if a.is_zero:
        return a
    off, cs, _ = _dense_int(a)
    if cs[-1] < 0:
        cs = [-c for c in cs]
    return _from_dense(off, cs)


class RationalFunction:
    """Reduced ratio of Laurent polynomials in t over exact rationals.

    Instances are canonical on construction; two equal field elements are
    structurally equal.  All operations return new canonical instances.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        unit = num.min_exp - den.min_exp
        n_off, n_cs, n_scale = _dense_int(num)
        d_off, d_cs, d_scale = _dense_int(den)
        g = _int_poly_gcd(n_cs, d_cs)
        if len(g) > 1:
            n_cs = _int_poly_divexact(n_cs, g)
            d_cs = _int_poly_divexact(d_cs, g)
        scale = n_scale / d_scale
        if d_cs[-1] < 0:
            d_cs = [-c for c in d_cs]
            scale = -scale
        dg = 0
        for c in d_cs:
            dg = _int_gcd(dg, abs(c))
        if dg > 1:
            d_cs = [c // dg for c in d_cs]
            scale = scale / dg
        self.num = _from_dense(unit, n_cs, scale)
        self.den = _from_dense(0, d_cs)

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly):
        # internal: (num, den) already canonical
        rf = object.__new__(cls)
        rf.num = num
        rf.den = den
        return rf

    @classmethod
    def zero(cls):
        return cls._raw(LaurentPoly.zero(), LaurentPoly.one())

    @classmethod
    def one(cls):
        return cls._raw(LaurentPoly.one(), LaurentPoly.one())

    @classmethod
    def t_power(cls, k: int):
        return cls._raw(LaurentPoly.t_power(k), LaurentPoly.one())

    @classmethod
    def from_laurent(cls, lp: LaurentPoly):
        return cls._raw(LaurentPoly._raw(dict(lp.terms)), LaurentPoly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other) if not isinstance(other, LaurentPoly) \
                else RationalFunction.from_laurent(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other) if not isinstance(other, LaurentPoly) \
                else RationalFunction.from_laurent(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction._raw(self.num.scale(other), self.den) if other \
                else RationalFunction.zero()
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a rational function by zero")
            return RationalFunction._raw(self.num.scale(Fraction(1, 1) / other), self.den)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division of a rational function by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if n == 0:
            return RationalFunction.one()
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def shift(self, k: int) -> "RationalFunction":
        """Multiply by t^k; the canonical denominator is unchanged."""
        return RationalFunction._raw(self.num.shift(k), self.den)

    def invert_var(self) -> "RationalFunction":
        """Substitute t -> t^-1, staying canonical without a gcd.

        num(1/t) / den(1/t) = t^deg num(1/t) / (t^deg den(1/t)).  The canonical
        denominator has a nonzero constant term, so its reversal has the same
        degree, the same coprime integer coefficients and no common factor
        with the reversed numerator; only the sign may need fixing.
        """
        deg = self.den.max_exp
        num = {deg - e: c for e, c in self.num.terms.items()}
        den = {deg - e: c for e, c in self.den.terms.items()}
        if den[deg] < 0:
            num = {e: -c for e, c in num.items()}
            den = {e: -c for e, c in den.items()}
        return RationalFunction._raw(LaurentPoly._raw(num), LaurentPoly._raw(den))

    def as_laurent(self):
        """The value as a LaurentPoly if the reduced denominator is a unit, else None."""
        if self.den.terms == {0: 1}:
            return self.num
        return None

    def evaluate(self, x: Fraction) -> Fraction:
        return self.num.evaluate(x) / self.den.evaluate(x)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"]))

    def __str__(self):
        if self.den == LaurentPoly.one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__

    def to_latex(self) -> str:
        if self.den == LaurentPoly.one():
            return self.num.to_latex()
        return "\\frac{%s}{%s}" % (self.num.to_latex(), self.den.to_latex())

