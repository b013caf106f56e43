"""List the statements of the rootspiral package that tier-1 never runs.

Runs the tier-1 suite in this process under sys.settrace, recording the
lines executed in the package's own files, then walks each module's AST
and lists every executable statement that never ran: every statement
except function and class definitions, imports, docstrings and `global`.
A statement ran when any line it spans, less the lines of the statements
nested in it, ran.  Subprocesses that the tests start are not traced.

    PYTHONPATH=src python tests/trace_statements.py

Exits 1 unless the only statement listed is cli.py's
`raise SystemExit(main())`, which runs only when cli.py is run as a
script; exits with pytest's status when the suite itself fails.
"""

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package as the suite will import it, found without importing it
PACKAGE = Path(importlib.util.find_spec("rootspiral").origin).parent
ALLOWED = {("cli.py", "raise SystemExit(main())")}

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global)


def _traced_run() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status over tier-1, and the lines run in each package file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements(tree: ast.Module):
    """(statement, its own lines) for every executable statement of tree."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
                continue
            if _is_docstring(node, parent):
                continue
            lines = set(range(node.lineno, node.end_lineno + 1))
            for child in ast.walk(node):
                if child is not node and isinstance(child, ast.stmt):
                    lines -= set(range(child.lineno, child.end_lineno + 1))
            yield node, lines or {node.lineno}


def never_ran(ran: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(path relative to the package, line, source text) of each statement that never ran."""
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines_run = ran.get(str(path), set())
        for node, lines in _statements(ast.parse(source, str(path))):
            if not lines & lines_run:
                text = ast.get_source_segment(source, node).splitlines()[0]
                missed.append((path.relative_to(PACKAGE).as_posix(), node.lineno, text))
    return sorted(missed)


def main() -> int:
    status, ran = _traced_run()
    if status != 0:
        print(f"tier-1 exited {status}; the trace is incomplete", file=sys.stderr)
        return status
    missed = never_ran(ran)
    for name, lineno, text in missed:
        print(f"never ran: {name}:{lineno}: {text}")
    unexpected = [m for m in missed if (m[0], m[2]) not in ALLOWED]
    if unexpected:
        print(f"{len(unexpected)} statement(s) of {PACKAGE} never ran under tier-1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
