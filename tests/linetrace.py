"""Which lines of src/mpir a command never runs.

    python tests/linetrace.py -m pytest -q
    python tests/linetrace.py perfbench/run.py --workload mem_bulk --seed 1 --seconds 1

Runs the command in this process, as ``python -m MODULE ARGS`` or ``python
SCRIPT ARGS`` would (a script's own directory first on sys.path), with
sys.settrace and threading.settrace recording every line it runs in this
checkout's src/mpir.  Then it prints each line of code there that never ran,
by file and line number, leaving out docstrings, def and class lines with
their decorators, and imports, which run at import or not at all.  Child
processes are not traced: the servers that tcp_small and the CLI tests start
run untraced, so lines only they run are listed.  It writes no file and
exits with the command's exit code.  pytest does not collect this file; at
two to three times the suite's time, it is not part of any test run.
"""
from __future__ import annotations

import ast
import os
import runpy
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpir"


def code_lines(code: CodeType) -> set[int]:
    """The lines of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def skipped_lines(tree: ast.Module) -> set[int]:
    """Docstring, def, class, decorator and import lines."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skip.update(d.lineno for d in node.decorator_list)
            skip.update(range(node.lineno, node.body[0].lineno))  # a signature's lines
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.update(range(first.lineno, first.end_lineno + 1))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return skip


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    return code_lines(compile(source, str(path), "exec")) - skipped_lines(ast.parse(source))


def run(argv: list[str], hits: dict[str, set[int]]) -> int:
    """Run argv ("-m MODULE ARGS" or "SCRIPT ARGS") with every line run in
    a file of hits added to its set; the command's exit code."""
    by_name: dict[str, set[int] | None] = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        if (lines := by_name[name]) is None:
            return None
        add = lines.add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    module = argv[0] == "-m"
    sys.argv = argv[1:] if module else argv
    sys.path[0] = os.getcwd() if module else str(Path(argv[0]).resolve().parent)
    threading.settrace(call)
    sys.settrace(call)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return 0


def main(argv: list[str]) -> int:
    if not argv or argv == ["-m"]:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    paths = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {os.path.realpath(p): set() for p in paths}
    code = run(argv, hits)
    print(f"\nlines of {PACKAGE.relative_to(ROOT)} never run (child processes not traced):")
    total = missed = 0
    for path in paths:
        lines = executable_lines(path)
        never = sorted(lines - hits[os.path.realpath(path)])
        total, missed = total + len(lines), missed + len(never)
        source = path.read_text().splitlines()
        for n in never:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    if not any(hits.values()):
        print(f"note: the command ran nothing from {PACKAGE}; is mpir imported from elsewhere?")
    print(f"{missed} of {total} lines never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
