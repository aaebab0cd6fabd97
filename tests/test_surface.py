"""The library has no test-only surface: every public top-level function
or class in `src/schramsey` is named somewhere in `src/` or `bench/`
outside its own definition, or is the reference behind an acceptance
criterion and listed here with it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schramsey"
BENCH = sorted((ROOT / "bench").glob("*.py"))  # bench/tests/ is test code

# Public names no program path calls, kept as the reference that
# tests/test_acceptance.py checks the criterion against.
CRITERION_REFERENCES = {
    "schreier.shifted_members": "03",
    "wxi.enumerate_reductions_wxi": "05",
    "cbindex.so_index": "06",
    "verify.hj_line_search": "09",
}


def _names(node: ast.AST) -> Counter:
    """Identifiers, attribute names, imported names and string constants
    (bench/tracer.py names the functions it wraps) under node, counted."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _public(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def unreferenced(package: Path, bench=BENCH) -> list:
    """`module.name` for each public top-level function or class of the
    package that no package or bench file names outside its definition."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    named = sum((_names(t) for t in trees.values()), Counter())
    named += sum((_names(ast.parse(p.read_text())) for p in bench), Counter())
    return [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in _public(tree)
            if named[node.name] == _names(node)[node.name]]


def test_every_public_name_has_a_caller_or_backs_a_criterion():
    assert [n for n in unreferenced(PACKAGE) if n not in CRITERION_REFERENCES] == []


def test_criterion_references_exist():
    public = {f"{p.stem}.{n.name}" for p in PACKAGE.glob("*.py") for n in _public(ast.parse(p.read_text()))}
    assert set(CRITERION_REFERENCES) <= public


@pytest.mark.parametrize("name, source", [
    ("only_tests_call_this", "def only_tests_call_this(x):\n    return only_tests_call_this(x - 1)\n"),
    ("OnlyTestsUseThis", "class OnlyTestsUseThis:\n    pass\n"),
], ids=["function", "class"])
def test_guard_catches_a_test_only_addition(tmp_path, name, source):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "words.py").write_text((PACKAGE / "words.py").read_text() + "\n\n" + source)
    assert f"words.{name}" in unreferenced(tmp_path)
