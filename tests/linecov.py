"""Statement coverage of ``src/tatekit`` with the standard library only.

    PYTHONPATH=src python tests/linecov.py [pytest arguments ...]

Installs a line hook through ``sys.settrace`` and ``threading.settrace``,
runs ``pytest.main`` on the given arguments (by default the whole suite),
then prints, per module of ``src/tatekit``, the statements no test executed,
docstrings left out, and exits with pytest's code.  A statement counts as
executed when a line event fell on one of its own lines: a simple statement
spans all its lines, a compound one only its header, up to its first body
statement.  Code that only runs in a child process (the CLI tests that start
``tatekit`` in a subprocess) is not seen.  The hook makes the suite four to
five times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tatekit"


def _docstrings(tree):
    """The docstring statements of the module, its classes and its functions."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                yield first


def _code_lines(code):
    """Every line the compiler attached an instruction to, nested code included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path):
    """(first line, lines) of each statement of a module that compiles to code."""
    source = path.read_text()
    tree = ast.parse(source)
    skip = {id(node) for node in _docstrings(tree)}
    code = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        lines = set(range(first, max(first, last) + 1))
        if lines & code:
            out.append((first, lines))
    return sorted(out, key=lambda s: s[0])


def main(argv) -> int:
    import pytest

    root = str(SRC) + os.sep
    ours = {}  # file name of a code object -> whether it is a tatekit module
    hit = {}  # file name of a tatekit module -> the lines executed in it

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(root)
            if ours[name]:
                hit[name] = set()
        return local if ours[name] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        seen = set().union(*(lines for name, lines in hit.items() if os.path.abspath(name) == str(path)))
        stmts = statements(path)
        never = [(first, lines) for first, lines in stmts if not lines & seen]
        total, missed = total + len(stmts), missed + len(never)
        print("%s: %d of %d statements never executed" % (path.name, len(never), len(stmts)))
        text = path.read_text().splitlines()
        for first, _ in never:
            print("  %s:%d: %s" % (path.name, first, text[first - 1].strip()))
    print("total: %d of %d statements never executed" % (missed, total))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
