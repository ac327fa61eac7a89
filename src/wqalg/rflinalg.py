"""Dense matrices of rational functions in t, for holding and printing presets.

FieldMatrix holds the preset matrices M, D and Mtilde for display: it prints
them.  It has no products and no inverse; the verification works on the
presets' Laurent tables.
"""

from __future__ import annotations


class FieldMatrix:
    """Square matrix of RationalFunction entries, immutable after construction."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        self.dim = n
        self.rows = rows

    def to_json(self):
        return {"dim": self.dim, "rows": [[e.to_json() for e in row] for row in self.rows]}

    def __str__(self):
        return "\n".join("[ " + ", ".join(str(e) for e in row) + " ]" for row in self.rows)

    __repr__ = __str__

    def to_latex(self) -> str:
        body = " \\\\\n".join(" & ".join(e.to_latex() for e in row) for row in self.rows)
        return "\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body
