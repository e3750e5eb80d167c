"""Print the two size counts of ROADMAP item 7 for each module of the package.

    python3 tools/code_lines.py [DIRECTORY]

For every ``*.py`` file in DIRECTORY (default ``src/stabforce``) it prints
the ``wc -l`` count and the code lines: lines that hold a token other than
a comment, a docstring or layout, found with the ``tokenize`` module.  A
docstring is a string literal that is a whole statement; every line it
spans is left out.  The last row sums both columns.
"""

from __future__ import annotations

import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in SKIP:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            # a statement made of string literals alone is a docstring
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/stabforce")
    rows = [(p.name, len(p.read_bytes().splitlines()), code_lines(p))
            for p in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, wc, code in rows:
        print(f"{name:<{width}}  {wc:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
