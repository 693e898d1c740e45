"""Every import in src/mpir and tests/ is used, and every top-level def or
class in src/mpir has a caller outside tests/.  No linter runs on the
package, so a deletion that leaves an import behind, or a helper that only
tests still call, fails here instead."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mpir").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in string annotations, or listed in __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_string_annotations_and_all_count_as_used():
    tree = ast.parse(
        "from a import B, C, D\nx: 'list[B]'\ndef f() -> 'C': ...\n__all__ = ['D']\n"
    )
    assert {"B", "C", "D"} <= used_names(tree)
    assert imported_names(ast.parse("import os.path\nfrom x import y as z")) == {"os": 1, "z": 2}


def referenced_names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names node reads, as a name, an attribute or an import, and with
    strings the words of its string constants (perfbench wraps functions by
    name, "plan.sample_row")."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.replace(".", " ").split())
    return names


def helpers_without_callers(sources: list[Path], others: list[Path]) -> list[str]:
    """The top-level defs and classes in sources that no other top-level
    statement of sources references, that no file in others references,
    and that no __all__ in sources lists."""
    statements = [(path, node) for path in sources
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    reads = [referenced_names(node) for _, node in statements]
    outside = set().union(*(referenced_names(ast.parse(path.read_text()), strings=True)
                            for path in others))
    outside |= {name for _, node in statements if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return [f"{path.name}:{node.lineno} {node.name}"
            for index, (path, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in outside
            and not any(node.name in names for other, names in enumerate(reads) if other != index)]


def test_every_src_definition_has_a_caller_outside_tests():
    unused = helpers_without_callers(SOURCES, sorted((ROOT / "perfbench").glob("*.py")))
    assert not unused, f"defined in src/mpir but called only from tests: {', '.join(unused)}"


def test_a_helper_only_its_own_body_and_tests_call_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['api']\n"
        "def api(): return used()\n"
        "def used(): return 1\n"
        "def loop(n): return loop(n - 1) if n else 'spare'\n"
        "class Spare: pass\n"
        "def wrapped(): pass\n"
    )
    (tmp_path / "bench.py").write_text("wrap(a, 'wrapped')\n")
    assert helpers_without_callers([tmp_path / "a.py"], [tmp_path / "bench.py"]) == [
        "a.py:4 loop", "a.py:5 Spare"]
