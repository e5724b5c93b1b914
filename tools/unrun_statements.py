#!/usr/bin/env python3
"""List the package statements that no default scenario executes.

Usage (from anywhere inside the repository)::

    python3 tools/unrun_statements.py [SCENARIO ...]

Runs ``smoothfem.cli.main(["run", S, "--out", DIR])`` for each named
scenario, by default the seven of ``same_outputs.SCENARIOS``, one after
another in this process and all writing into one temporary DIR, with a
``sys.settrace`` line tracer on the files of ``src/smoothfem`` (the
``coverage`` package is not needed).  It then prints, per module, how
many statements inside function bodies never ran and the outermost of
them, as ``first-last: source of the first line``: an unrun ``if`` is one
entry, not one per statement of its body.  Docstrings, ``def`` and
``class`` lines and imports are not statements here, and neither is
module or class body code, which runs on import.  A compound statement
(``if``, ``for``, ``try``...) counts as run when a line of its header or
any statement inside it ran.  On a 2-core VM the seven scenarios take
about 4.6 s traced against 3.6 s untraced.  Exit status 0 when every
scenario exits 0, 1 otherwise.
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import SCENARIOS  # noqa: E402

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smoothfem"


def _docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node):
    """The statements directly inside a module or statement."""
    inner = [*getattr(node, "body", ()), *getattr(node, "orelse", ()),
             *getattr(node, "finalbody", ())]
    for block in (*getattr(node, "handlers", ()), *getattr(node, "cases", ())):
        inner += block.body
    return inner


def statements(source):
    """(first, header_last, last, parent) of every statement inside a
    function body of ``source``, parents listed before their children;
    ``parent`` is the index of the enclosing listed statement or None."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, parent, in_function):
        for i, child in enumerate(_children(node)):
            if isinstance(child, (*functions, ast.ClassDef)):
                visit(child, parent, isinstance(child, functions))
            elif not in_function or isinstance(child, (ast.Import,
                                                       ast.ImportFrom)):
                continue
            elif i == 0 and isinstance(node, functions) and _docstring(child):
                continue
            else:
                inner = _children(child)
                header = (max(child.lineno, inner[0].lineno - 1) if inner
                          else child.end_lineno)
                found.append((child.lineno, header, child.end_lineno, parent))
                visit(child, len(found) - 1, True)

    visit(ast.parse(source), None, False)
    return found


def unrun(source, lines):
    """(statements, unrun statements, outermost unrun statements) of
    ``source`` given the set of executed ``lines``; each outermost entry
    is its (first, last) line."""
    found = statements(source)
    ran = [any(line in lines for line in range(first, header + 1))
           for first, header, _, _ in found]
    # children come after their parents, so one backward pass lifts a run
    # child to every enclosing statement
    for i in range(len(found) - 1, -1, -1):
        parent = found[i][3]
        if ran[i] and parent is not None:
            ran[parent] = True
    outer = [(first, last) for (first, _, last, parent), done
             in zip(found, ran)
             if not done and (parent is None or ran[parent])]
    return len(found), sum(not r for r in ran), outer


def trace_scenarios(scenarios):
    """Run each scenario with the package's lines traced; returns
    ({path: executed lines}, {scenario: exit status}, seconds)."""
    sys.path.insert(0, str(PACKAGE.parent))
    from smoothfem.cli import main

    root = str(PACKAGE)
    hits = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(root):
            return None
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    statuses = {}
    start = time.perf_counter()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory(prefix="unrun-") as out:
            for scenario in scenarios:
                with contextlib.redirect_stdout(io.StringIO()):
                    statuses[scenario] = main(["run", scenario, "--out", out])
    finally:
        sys.settrace(previous)
    return hits, statuses, time.perf_counter() - start


def report(scenarios):
    """({module file name: (statements, unrun, outermost unrun)},
    {scenario: exit status}, seconds) of one traced run."""
    hits, statuses, seconds = trace_scenarios(scenarios)
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        modules[path.name] = unrun(path.read_text(),
                                   hits.get(str(path), set()))
    return modules, statuses, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="List the package statements that no scenario runs.")
    parser.add_argument("scenarios", nargs="*", default=list(SCENARIOS),
                        help="scenarios to run (default: the seven "
                             "default scenarios)")
    args = parser.parse_args(argv)
    modules, statuses, seconds = report(args.scenarios)
    print(", ".join(f"{s}: exit {code}" for s, code in statuses.items())
          + f" ({seconds:.1f} s traced)")
    for name, (total, count, outer) in modules.items():
        print(f"{name}: {count} of {total} statements never ran")
        source = (PACKAGE / name).read_text().splitlines()
        for first, last in outer:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span}: {source[first - 1].strip()}")
    return 0 if all(code == 0 for code in statuses.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
