"""Dense exact matrices over the rational-function field in t.

FieldMatrix holds the preset matrices and multiplies them; nothing inverts
a matrix over the function field.  The only inverse is that of a matrix of
Fractions, the evaluation oracle the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import RationalFunction


class SingularMatrixError(ValueError):
    pass


class FieldMatrix:
    """Square matrix of RationalFunction entries, immutable after construction."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(e if isinstance(e, RationalFunction) else RationalFunction(e)
                           for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        self.dim = n
        self.rows = rows

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        zero = RationalFunction.zero()
        return cls([[entries[i] if i == j else zero for j in range(len(entries))]
                    for i in range(len(entries))])

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __mul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = RationalFunction.zero()
                for a, b in zip(row, col):
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return FieldMatrix(out)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(tuple(zip(*self.rows)))

    def evaluate(self, x: Fraction):
        """Entrywise exact evaluation; returns nested lists of Fractions."""
        return [[e.evaluate(x) for e in row] for row in self.rows]

    def to_json(self):
        return {"dim": self.dim, "rows": [[e.to_json() for e in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data):
        return cls([[RationalFunction.from_json(e) for e in row] for row in data["rows"]])

    def __str__(self):
        return "\n".join("[ " + ", ".join(str(e) for e in row) + " ]" for row in self.rows)

    __repr__ = __str__

    def to_latex(self) -> str:
        body = " \\\\\n".join(" & ".join(e.to_latex() for e in row) for row in self.rows)
        return "\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body


def fraction_matrix_inverse(rows):
    """Exact inverse of a matrix of Fractions, used as the evaluation oracle."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix of rationals is singular")
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
