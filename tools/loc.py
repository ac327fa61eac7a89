#!/usr/bin/env python3
"""Count the code lines of the wqalg package, per module and in total.

A code line is a line that holds at least one token other than a comment,
a line break (NL, NEWLINE), INDENT or DEDENT, or a docstring.  A docstring
here is any string statement alone on its logical line, wherever it stands.
A token that spans several lines (a triple-quoted string that is not a
docstring) makes each of those lines a code line.

Usage: python3 tools/loc.py [package directory]   (default: src/wqalg)
Standard library only.
"""

from __future__ import annotations

import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    logical = []
    for tok in tokens:
        if tok.type in _SKIP:
            if tok.type == tokenize.NEWLINE:
                # a logical line that is one string and nothing else is a docstring
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
            continue
        logical.append(tok)
    for t in logical:
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "wqalg")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(root, name))
            total += count
            print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
