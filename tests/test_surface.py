"""The library has no test-only surface: every public top-level function
or class in `src/schramsey` is named somewhere in `src/` or `bench/`
outside its own definition, or is the reference behind an acceptance
criterion and listed here with it.  Every budget stop in it is worded by
`BudgetExceeded` from its fields, never by its caller.  No library walk
catches an exception to learn an answer.  And the tests' reference module
imports no engine code."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

from schramsey.errors import BudgetExceeded

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schramsey"
BENCH = sorted((ROOT / "bench").glob("*.py"))  # bench/tests/ is test code
REFERENCE = ROOT / "tests" / "reference.py"

# Public names no program path calls, kept as the reference that
# tests/test_acceptance.py checks the criterion against.
CRITERION_REFERENCES = {
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


def preformatted_budget_stops(package: Path) -> list:
    """`module:line` of each `BudgetExceeded(...)` call in the package that
    does not bind the structured fields of its one constructor (what, amount,
    budget, ...) or passes text as the amount or the budget."""
    signature = inspect.signature(BudgetExceeded)
    out = []
    for path in sorted(package.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "BudgetExceeded"):
                continue
            try:
                bound = signature.bind(*n.args, **{k.arg: k.value for k in n.keywords}).arguments
            except TypeError:
                bound = {}
            fields = [bound.get("amount"), bound.get("budget")]
            if any(f is None or isinstance(f, ast.JoinedStr) or isinstance(getattr(f, "value", None), str)
                   for f in fields):
                out.append(f"{path.stem}:{n.lineno}")
    return out


def test_every_budget_stop_passes_its_fields():
    assert preformatted_budget_stops(PACKAGE) == []


def test_guard_catches_a_preformatted_budget_stop(tmp_path):
    source = (PACKAGE / "words.py").read_text()
    (tmp_path / "words.py").write_text(source + '\n\ndef stop():\n    raise BudgetExceeded(f"x")\n')
    lines = source.count("\n") + 4
    assert preformatted_budget_stops(tmp_path) == [f"words:{lines}"]


# The one `except` outside cli.py that answers instead of re-raising, by
# module and caught type: past the stream horizon, a seed lies outside the
# universe that the derivative sees.
ANSWERING_EXCEPTS = {("cbindex", "HorizonExceeded")}


def answering_excepts(package: Path) -> list:
    """`module:line` of each `except` clause of the package outside cli.py
    whose body does not end in a `raise`, unless ANSWERING_EXCEPTS lists it:
    a negative answer is a return value, and an exception is an error that
    the CLI maps to an exit code."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ExceptHandler) and not isinstance(n.body[-1], ast.Raise):
                if (path.stem, n.type and ast.unparse(n.type)) not in ANSWERING_EXCEPTS:
                    out.append(f"{path.stem}:{n.lineno}")
    return out


def test_no_library_walk_catches_an_exception_to_learn_an_answer():
    assert answering_excepts(PACKAGE) == []


@pytest.mark.parametrize("handler", [
    "except HorizonExceeded:\n        return False",
    "except ValueError:\n        pass",
    "except:\n        return None",
], ids=["typed", "pass", "bare"])
def test_guard_catches_an_answering_except(tmp_path, handler):
    source = (PACKAGE / "wxi.py").read_text()
    (tmp_path / "wxi.py").write_text(source + f"\n\ndef probe():\n    try:\n        return True\n    {handler}\n")
    lines = source.count("\n") + 6
    assert answering_excepts(tmp_path) == [f"wxi:{lines}"]


# What tests/reference.py may import from the package, by module: ordinal
# parsing and type, the independent recursion mem_direct with its config,
# record and coloring types, and the alphabet type, constants and text
# helpers of words.  Nothing that lists, reduces, aligns, enumerates or walks.
REFERENCE_IMPORTS = {
    "ordinal": {"parse", "Ordinal"},
    "schreier": {"SchreierConfig"},
    "verify": {"mem_direct", "Witness", "SearchOutcome", "Coloring"},
    "words": {"Alphabet", "VAR", "MAX_BLOCK_WORDS", "seq_text", "seq_sort_key"},
}


def engine_imports(path: Path) -> list:
    """`module.name` for each name the file imports from the package
    outside REFERENCE_IMPORTS; a module imported whole is never allowed."""
    out = []
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Import):
            out += [a.name for a in n.names if a.name.split(".")[0] == "schramsey"]
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "schramsey":
            module = n.module.partition(".")[2] or "schramsey"
            out += [f"{module}.{a.name}" for a in n.names if a.name not in REFERENCE_IMPORTS.get(module, ())]
    return out


def test_reference_module_imports_no_engine_code():
    assert engine_imports(REFERENCE) == []


@pytest.mark.parametrize("line, caught", [
    ("from schramsey.words import reductions", "words.reductions"),
    ("from schramsey import words", "schramsey.words"),
    ("import schramsey.wxi", "schramsey.wxi"),
], ids=["name", "module", "import"])
def test_guard_catches_an_engine_import_in_the_reference(tmp_path, line, caught):
    (tmp_path / "reference.py").write_text(REFERENCE.read_text() + "\n" + line + "\n")
    assert engine_imports(tmp_path / "reference.py") == [caught]
