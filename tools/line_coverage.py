"""List the statements inside the package's functions that a pytest run never ran.

    python3 tools/line_coverage.py [PYTEST ARGUMENTS]

It runs pytest in this process (by default on ``tests``, quietly) with a
line tracer installed by ``sys.settrace`` and ``threading.settrace`` before
the package is imported, and then prints, for each module of
``src/stabforce``, the statements inside function bodies that never ran,
with the count of such statements and of all statements in functions.
Module and class bodies are left out, as they run at import, and so are
docstrings.  A statement counts as run when any line of it (for a compound
statement, of its header) raised a line event.

Code that runs in another process is not seen: the CLI tests that start
``python -m stabforce`` and the demo golden tests report nothing here, so a
statement that only they reach is listed as never run.  A statement with no
bytecode of its own (``global``, ``nonlocal``, a ``try:`` header) is not
counted.  The tracer makes the suite several times slower.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stabforce"
NO_CODE = (ast.Global, ast.Nonlocal, ast.Try)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def _header_lines(stmt: ast.stmt) -> range:
    """The lines whose events show that ``stmt`` ran: all of a simple
    statement, the header of a compound one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, stmt.lineno + 1))
    return range(first, stmt.end_lineno + 1)


def function_statements(tree: ast.Module) -> dict[int, range]:
    """The statements inside every function of ``tree``, nested ones
    included, keyed by first line, each with the lines that show it ran."""
    statements: dict[int, range] = {}

    def visit_body(body: list[ast.stmt]) -> None:
        for i, stmt in enumerate(body):
            if i == 0 and _is_docstring(stmt):
                continue
            if not isinstance(stmt, NO_CODE):
                statements[stmt.lineno] = _header_lines(stmt)
            for block in _blocks(stmt):
                visit_body(block)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_body(node.body)
    return statements


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in ``stmt``, except the bodies of nested
    functions and classes, which ``function_statements`` visits itself."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    blocks = [getattr(stmt, name) for name in ("body", "orelse", "finalbody")
              if getattr(stmt, name, None)]
    return blocks + [h.body for h in getattr(stmt, "handlers", ())]


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package file."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    watched: dict = {}  # code object -> its file's set of lines, or None

    def local(frame, event, arg):
        if event == "line":
            watched[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = watched.get(code, False)
        if lines is False:
            name = code.co_filename
            lines = watched[code] = hits.setdefault(name, set()) \
                if name.startswith(prefix) else None
        return local if lines is not None else None

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the tests' subprocesses import the same checkout, as in the tier-1 run
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest  # the package under test is imported only by the tests

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv[1:] or ["-q", "-p", "no:cacheprovider", "tests"])
    total_missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        statements = function_statements(ast.parse(source))
        ran = hits.get(str(path), set())
        missed = sorted(line for line, lines in statements.items() if ran.isdisjoint(lines))
        total_missed += len(missed)
        total += len(statements)
        print(f"{path.name}: {len(missed)} of {len(statements)} statements in functions never ran")
        text = source.splitlines()
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"total: {total_missed} of {total} statements in functions never ran "
          f"(pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
