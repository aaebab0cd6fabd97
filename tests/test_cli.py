"""The CLI: answers, and one table per other outcome.  Every input gets an
answer (exit 0 or 1), a usage error (exit 2, USAGE_ERRORS) or a budget
stop (exit 3, the table of `test_unbounded_walks_stop_at_their_budget`).
`run_cli` is the one in-process runner, here and in tests/test_golden.py."""

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import cli, errors, ordinal, schreier, verify

from test_schreier import small_indices


class Run(NamedTuple):
    code: int
    out: str
    err: str

    @property
    def report(self) -> dict:
        return json.loads(self.out)


def run_cli(argv) -> Run:
    """`cli.main(argv)` in process, with its exit code, stdout and stderr;
    a string argv is split on whitespace.  An argv that argparse refuses
    gives argparse's own exit (2) and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv.split() if isinstance(argv, str) else argv)
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


TREE = {"alphabet": ["a", "b"], "side": "constant", "members": [[], ["a"], ["a", "b"]]}

# files by name, which argv tables name as {name}: families, and files
# that are not one
FILES = {
    "tree": json.dumps(TREE),
    "var": json.dumps({"alphabet": ["a", "b"], "side": "variable", "members": [[], ["_"], ["_", "a_"]]}),
    "fam": json.dumps({"alphabet": ["a", "b"], "side": "constant", "members": [["a"], []]}),
    "empty": "",
    "deep": "[" * 100_000 + "]" * 100_000,
    "shape": json.dumps([["a"]]),
    "symbol": json.dumps({"alphabet": ["ab", "c"], "side": "constant", "members": [["c"]]}),
    "no_alphabet": json.dumps({"side": "constant", "members": [["a"]]}),
    "member_3": json.dumps({"alphabet": ["a", "b"], "side": "constant", "members": [["a"], 3]}),
    "array": json.dumps([["a"], ["a", "b"]]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The path of each file of FILES; `missing` names no file and `dir` a directory."""
    root = tmp_path_factory.mktemp("files")
    for name, text in FILES.items():
        (root / f"{name}.json").write_text(text)
    return {"dir": str(root), "missing": str(root / "missing.json"), **{n: str(root / f"{n}.json") for n in FILES}}


def test_schreier_mem_true():
    run = run_cli("schreier mem --xi w --set {3,5,9}")
    assert run.code == 0 and run.report["member"] is True


def test_schreier_mem_false_exit():
    run = run_cli("schreier mem --xi w --set {2,3,4}")
    assert run.code == 1 and run.report["member"] is False


def test_schreier_decompose():
    run = run_cli("schreier decompose --xi w --stream 3,7,8,9,10")
    assert run.code == 0 and run.report["initial_segment"] == [3, 7, 8]


def test_schreier_enumerate_and_transfer():
    run = run_cli("schreier enumerate --xi w --max-n 4")
    assert run.code == 0 and run.report["members"] == [[1], [2, 3], [2, 4]]
    run = run_cli("schreier transfer --xi w -n 3")
    assert run.code == 0 and run.report["transfer_index"] == "2"


def expanded_report(xi, max_n, rule="fixed") -> str:
    """The stdout of `schreier enumerate` as json.dumps writes its report
    with the member tuples expanded."""
    members = schreier.enumerate_members(xi, max_n)
    report = {"command": "schreier enumerate", "count": len(members), "max_n": max_n, "members": members,
              "rule": rule, "schema_version": cli.SCHEMA_VERSION, "xi": str(xi)}
    return json.dumps(report, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(small_indices(), st.integers(0, 14), st.sampled_from(["fixed", "succ"]))
def test_enumerate_writes_the_expanded_listing(xi, max_n, rule):
    # the listing is written from the walk's runs, byte for byte
    run = run_cli(["--rule", rule, "schreier", "enumerate", "--xi", str(xi), "--max-n", str(max_n)])
    assert run == (cli.EXIT_FOUND, expanded_report(xi, max_n, rule), "")


def test_ordinal_commands():
    run = run_cli(["ordinal", "classify", "w^2*3 + w + 5"])
    assert run.code == 0 and run.report["canonical"] == "w^2*3 + w + 5"
    assert run_cli("ordinal fixed-seq w^w -n 2 --succ").report["value"] == "w + 2"
    rep = run_cli("ordinal classify w+4").report
    assert rep["kind"] == "successor" and rep["pred"] == "w + 3"


def test_words_and_wxi_commands():
    assert run_cli("words d --alphabet ab --seq (ab,ba,aab)").report["d"] == [3, 5]
    run = run_cli("wxi member --xi 2 --alphabet ab --side c --seq (ab,ba,aab)")
    assert run.code == 0 and run.report["member"] is True
    rep = run_cli("wxi decompose --xi 1 --alphabet ab --seq (a,b,a)").report
    assert rep["boundaries"] == [2, 3] and rep["residual"] is False


def test_family_commands(files):
    run = run_cli(["family", "tree", "--file", files["fam"]])
    assert run.code == 0 and run.report["tree"] is True
    run = run_cli(["family", "dichotomy", "--file", files["fam"], *"--xi 1 --stream e:3 --letters 3".split()])
    assert run.code == 0 and run.report["equivalent"] is True


def test_cbindex_command():
    run = run_cli("cbindex --family len:2 --stream e:40 --oracle exact:length")
    assert run.code == 0 and run.report["so_index"] == 2 and run.report["nodes"] == 0
    rep = run_cli("cbindex --family len:1 --stream e:30 --oracle horizon:3 --levels 2").report
    assert rep["profile"] == [3, 1, 0]  # seeds, then only the empty sequence, then nothing
    assert rep["nodes"] > 0
    # --levels L needs L passes; past the budget it is a budget stop (the cbindex-levels row below)
    run = run_cli("cbindex --family len:1 --stream e:10 --levels 17 --budget 17")
    assert run.code == 0 and len(run.report["profile"]) == 18


def test_cbindex_seed_letters_zero_is_a_budget():
    # 0 letters seed only the empty sequence; it is not read as "unset"
    for letters, profile in (("0", [1]), ("1", [3]), ("2", [11])):
        run = run_cli(["cbindex", "--family", "len:2", "--seed-letters", letters, "--levels", "0"])
        assert run.code == 0 and run.report["profile"] == profile, letters


def test_deep_successor_index_is_answered():
    # a successor index in the thousands is decided, not a stack overflow
    for top, member, code in ((2500, False, cli.EXIT_EXHAUSTED), (3000, True, cli.EXIT_FOUND)):
        members = ",".join(str(i) for i in range(1, top + 1))
        run = run_cli(["schreier", "mem", "--xi", "3000", "--set", "{" + members + "}"])
        assert run.code == code and run.report["member"] is member


# one instance of each class of `errors`, of ValueError and of an unexpected
# exception, with the exit code and the one line of stderr it gives
RAISED = [
    (errors.SchramseyError("boom"), cli.EXIT_USAGE),
    (errors.OrdinalRangeError("boom"), cli.EXIT_USAGE),
    (errors.OrdinalParseError("boom", 3), cli.EXIT_USAGE),
    (errors.HorizonExceeded("boom"), cli.EXIT_USAGE),
    (ValueError("boom"), cli.EXIT_USAGE),
    (errors.BudgetExceeded("walk takes", 5, 4), cli.EXIT_BUDGET),
    (errors.OracleUndecided("boom"), cli.EXIT_BUDGET),
    (RuntimeError("boom\nsecond line"), cli.EXIT_INTERNAL),
]


def test_exit_table_holds_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)}
    assert classes <= {type(exc) for exc, _code in RAISED}


@pytest.mark.parametrize("exc, code", RAISED, ids=[type(exc).__name__ for exc, _code in RAISED])
def test_handler_error_exit_code(exc, code, monkeypatch):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_ordinal", broken)
    if code == cli.EXIT_INTERNAL:
        err = f"internal error: {type(exc).__name__}: boom second line\n"
    else:
        err = f"error: {exc}\n"
    assert run_cli("ordinal classify w") == (code, "", err)


def test_verify_commands():
    run = run_cli("verify hj --r 2 --n 1 --k 2 --xi 0 --mmax 4")
    assert run.code == 0 and run.report["M"] == 2
    run = run_cli("verify ramsey --xi 1 --max-n 5 --coloring min_mod:2 --target 3")
    assert run.code == 0 and run.report["found"] and run.report["witness_checked"] is True
    run = run_cli("verify nw --fixture narrow --alphabet ab --letters 6")
    assert run.code == 0 and run.report["consistent"] is True


TOWER = "w**a would exceed the supported tower depth"
NOT_JSON = "is not JSON: Expecting value: line 1 column 1 (char 0)"
NESTED = "is not JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"
FAMILY_SHAPE = 'a family file is an object with an "alphabet" list, a "side" and a "members" list'

# Each input that is refused before any answer: its argv, and its one line
# of stderr after "error: ", or a pattern for that line where the OS or
# the Python version words it.  Both are formatted with the paths of FILES,
# so a literal brace is doubled.
USAGE_ERRORS = {
    # an ordinal that does not parse, or is nested past the tower-depth cap
    # (stopped before the parser recurses)
    "xi-not-normal-form": ("schreier mem --xi w+w --set {{1}}",
                           "terms not in strictly decreasing exponent order (at position 2)"),
    "ordinal-incomplete": ("ordinal classify w^", "expected a number, 'w', or 'w^' (at position 2)"),
    "tower-parens": ("ordinal classify " + "w^(" * 400 + "1" + ")" * 400, TOWER),
    "tower-bare": ("ordinal classify " + "w^" * 1000, TOWER),
    "tower-ramsey": ("verify ramsey --xi " + "w^" * 1000 + "0", TOWER),
    # a number that does not parse names the spec it came in
    "stream-e-x": ("words reduce --alphabet ab --seq (a) --stream e:x",
                   "stream spec 'e:x' needs an integer horizon, got 'x'"),
    "stream-e-empty": ("words reduce --alphabet ab --seq (a) --stream e:",
                       "stream spec 'e:' needs an integer horizon, got ''"),
    "stream-pat-x": ("words reduce --alphabet ab --seq (a) --stream pat:_;__:x",
                     "stream spec 'pat:_;__:x' needs an integer horizon, got 'x'"),
    "family-len-x": ("cbindex --family len:x", "--family len:K needs an integer K, got 'x'"),
    "set-element": ("schreier mem --xi w --set {{a}}", "set spec '{{a}}' needs an integer element, got 'a'"),
    # a file that is not JSON is named, also one nested past the decoder's recursion limit
    "family-file-empty": ("family dichotomy --file {empty}", f"family file '{{empty}}' {NOT_JSON}"),
    "cbindex-family-empty": ("cbindex --family {empty}", f"family file '{{empty}}' {NOT_JSON}"),
    "family-file-deep": ("family tree --file {deep}", f"family file '{{deep}}' {NESTED}"),
    "cbindex-family-deep": ("cbindex --family {deep}", f"family file '{{deep}}' {NESTED}"),
    # a file that cannot be read
    "family-missing": ("family tree --file {missing}", re.compile(r"\[Errno [^\n]*")),
    "cbindex-missing": ("cbindex --family {missing}", re.compile(r"\[Errno [^\n]*")),
    "family-directory": ("family tree --file {dir}", re.compile(r"\[Errno [^\n]*")),
    # a family file that is JSON but no family
    "alphabet-symbol": ("family tree --file {symbol}", "alphabet symbol 'ab' is not a single character"),
    "family-no-alphabet": ("family tree --file {no_alphabet}", FAMILY_SHAPE),
    "cbindex-no-alphabet": ("cbindex --family {no_alphabet}", FAMILY_SHAPE),
    "family-member-not-a-list": ("family tree --file {member_3}", "family member 3 is not a list of words"),
    "cbindex-member-not-a-list": ("cbindex --family {member_3}", "family member 3 is not a list of words"),
    "family-top-level-array": ("family tree --file {array}", FAMILY_SHAPE),
    "cbindex-top-level-array": ("cbindex --family {array}", FAMILY_SHAPE),
    "oracle-bogus": ("cbindex --family len:2 --oracle bogus:4", "unknown oracle mode 'bogus'"),
    "oracle-bogus-x": ("cbindex --family len:2 --oracle bogus:x", "unknown oracle mode 'bogus'"),
    "oracle-horizon": ("cbindex --family len:2 --oracle horizon", "horizon mode needs H (horizon:H)"),
    "oracle-horizon-x": ("cbindex --family len:2 --oracle horizon:x",
                         "--oracle horizon:H needs an integer H, got 'x'"),
    # each of these crashed (exit 4) or answered for a rule its domain lacks
    "chi1-min-mod": ("verify carlson --chi1 min_mod:2 --stream e:6 --depth 2",
                     "coloring 'min_mod:2': no rule 'min_mod' on wordseqs "
                     "(rules: const, size_mod, first_len_mod, total_len_mod, first_letter, min_len_mod)"),
    "coloring-min-mod-0": ("verify ramsey --coloring min_mod:0", "coloring 'min_mod:0': colors must be >= 1, got 0"),
    "coloring-first-len-mod": ("verify ramsey --coloring first_len_mod:2 --max-n 0 --target 0",
                               "coloring 'first_len_mod:2': no rule 'first_len_mod' on finsets "
                               "(rules: const, size_mod, min_mod)"),
    "coloring-const-color-7": ("verify ramsey --coloring const:1:7", "coloring 'const:1:7': color 7 is outside 1..1"),
    "chi-min-len-mod-two": ("verify subspace --chi min_len_mod:two",
                            "coloring 'min_len_mod:two': fields must be integers"),
    "coloring-size-mod-fields": ("verify ramsey --coloring size_mod:2:1",
                                 "coloring 'size_mod:2:1': too many fields for size_mod"),
    # a recursion crash, a threshold claimed from zero colorings, and a
    # report stamped with more letters than ran
    "hj-n-0": ("verify hj --n 0", "hales_jewett_M needs r >= 1 and n >= 1, got r=2, n=0"),
    "hj-r-0": ("verify hj --r 0", "hales_jewett_M needs r >= 1 and n >= 1, got r=0, n=1"),
    "hj-k-12": ("verify hj --xi 0 --k 12 --mmax 1 --r 1", "k=12 letters exceeds the 8 available"),
    # below 2 * depth stream words some step lists are cut, so an exhausted
    # search would not have covered its space; a witness found over a cut
    # table (as e:5 at depth 3 would give) is given up with it
    "carlson-stream-3-depth-4": ("verify carlson --xi 1 --stream e:3 --depth 4",
                                 "a prefix search of depth 4 needs a stream horizon of at least 8, got 3"),
    "subspace-stream-5-depth-3": ("verify subspace --xi 1 --stream e:5 --depth 3",
                                  "a prefix search of depth 3 needs a stream horizon of at least 6, got 5"),
    "subspace-stream-2-depth-3": ("verify subspace --xi 1 --stream e:2 --depth 3",
                                  "a prefix search of depth 3 needs a stream horizon of at least 6, got 2"),
    # a stream that ends inside a member, the one error a greedy decomposition raises
    "decompose-short-stream": ("schreier decompose --xi w --stream {{3,4}}",
                               "stream exhausted while consuming a member"),
    "wxi-base-horizon": ("wxi member --alphabet ab --base list:a_,_b,__,__,_ --xi 1 --side c --seq (aa,ab,aa,aa,a,a)",
                         "stream list:a_,_b,__,__,_ has horizon 5"),
    # a required flag left out, for each subcommand that has one
    "schreier-no-xi": ("schreier mem --set {{1}}", "the following arguments are required: --xi"),
    "words-no-alphabet-seq": ("words d", "the following arguments are required: --alphabet, --seq"),
    "wxi-no-xi-alphabet": ("wxi member --seq (a)", "the following arguments are required: --xi, --alphabet"),
    "family-no-file": ("family tree", "the following arguments are required: --file"),
    "cbindex-no-family": ("cbindex --oracle exact", "the following arguments are required: --family"),
    # the removed --format and --config: argparse reads their value as the subcommand
    "format-removed": ("--format csv schreier enumerate --xi w",
                       re.compile(r"argument module: invalid choice: 'csv' \(choose from [^\n]*\)")),
    "config-removed": ("--config {tree} ordinal classify w",
                       re.compile(r"argument module: invalid choice: '[^'\n]*tree\.json' \(choose from [^\n]*\)")),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS))
def test_bad_input_is_a_usage_error(argv, message, files):
    code, out, err = run_cli([a.format(**files) for a in argv.split()])
    assert (code, out) == (cli.EXIT_USAGE, "")
    # argparse's own refusal is its usage lines, then one `schramsey: error:`
    # line, or `schramsey <module>: error:` from a subcommand's parser
    if err.startswith("usage: schramsey "):
        err = err[err.index("error: ", err.rindex("\nschramsey")):]
    if isinstance(message, str):
        assert err == f"error: {message.format(**files)}\n"
    else:
        assert re.fullmatch(f"error: {message.pattern}\n", err), err


def test_reductions_of_the_empty_sequence():
    run = run_cli("words reductions --alphabet ab --seq ()")
    assert run.code == 0
    assert run.report["constant"] == [["()", []]] and run.report["variable"] == [["()", []]]


# every flag row of the option table, with its subcommand (None: the top level)
FLAG_ROWS = [pytest.param(module, name, kw, id=f"{module or 'top'}{name}") for module, rows in cli.OPTIONS.items()
             for name, kw in rows if name.startswith("-")]
# an argv that parses for each subcommand, with its required flags given
PARSING_ARGV = {
    None: ["ordinal", "classify", "w"],
    "ordinal": ["ordinal", "classify", "w"],
    "schreier": ["schreier", "mem", "--xi", "w"],
    "words": ["words", "d", "--alphabet", "ab", "--seq", "(a)"],
    "wxi": ["wxi", "member", "--xi", "1", "--alphabet", "ab"],
    "family": ["family", "close", "--file", "fam.json"],
    "cbindex": ["cbindex", "--family", "len:1"],
    "verify": ["verify", "hj"],
}


def _with_flag(module, given):
    # a top-level flag goes before the subcommand, a subcommand's flag after it
    argv = PARSING_ARGV[module]
    return [*given, *argv] if module is None else [*argv, *given]


@pytest.mark.parametrize("module, name, kw", FLAG_ROWS)
def test_every_flag_row_is_a_config_key(module, name, kw, monkeypatch):
    # each flag row is a key of the job's configuration, which argv alone
    # sets: the flag sets its row's dest, and a required flag left out is a
    # usage error
    dest = name.lstrip("-").replace("-", "_")
    if kw.get("action") == "store_true":
        value, given = True, [name]
    else:
        if "choices" in kw:
            value = kw["choices"][-1]
        elif kw.get("type") is int:
            value = (kw.get("default") or 0) + 5
        else:
            value = "from-argv"
        given = [name, str(value)]
    seen = []
    # a report that answers yes for every action, so that the job exits 0
    answered = dict.fromkeys(cli.ANSWERS.values(), True)
    monkeypatch.setattr(cli, f"_cmd_{module or 'ordinal'}", lambda args: seen.append(args) or dict(answered))
    assert run_cli(_with_flag(module, given)).code == 0
    assert vars(seen.pop())[dest] == value
    if kw.get("required"):
        argv = PARSING_ARGV[module]
        i = argv.index(name)
        code, out, err = run_cli([*argv[:i], *argv[i + 2:]])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.endswith(f" error: the following arguments are required: {name}\n"), err


@pytest.mark.parametrize("module, name, kw", FLAG_ROWS)
def test_every_flag_row_checks_its_config_value(module, name, kw):
    # argparse checks each flag's value against its row's type and choices
    if kw.get("action") == "store_true":
        cases = [(_with_flag(module, [f"{name}=1"]), "ignored explicit argument '1'")]
    else:
        # at the top level, the subcommand after the flag would be its value
        cases = [([name] if module is None else _with_flag(module, [name]), "expected one argument")]
    if kw.get("type") is int:
        cases.append((_with_flag(module, [name, "3.5"]), "invalid int value: '3.5'"))
    if "choices" in kw:
        cases.append((_with_flag(module, [name, "bogus"]), "invalid choice: 'bogus' (choose from "))
    for argv, message in cases:
        code, out, err = run_cli(argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert f" error: argument {name}: {message}" in err.splitlines()[-1], err


def test_mono_set_checker_budget_stops_fast():
    # the search answers at once; walking the 2^22 subsets of L would not
    start = time.perf_counter()
    run = run_cli("verify ramsey --xi 1 --max-n 22 --coloring const:1 --target 22")
    elapsed = time.perf_counter() - start
    assert run.code == 3 and run.out == ""
    assert run.err == f"error: mono_set check walks {1 << 22} subsets, over its budget of {1 << 20}; frontier |L|=22\n"
    assert elapsed < 1.0


WALK_STOP = ("descent takes 1001 steps, over its budget of 1000; frontier "
             "w^(w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 4)*4 + w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 3)*4...")
UNIVERSE_STOP = ("universe of constant sequences with up to 11 letters lists 2796202 sequences by 11 letters, "
                 "over its budget of 1048576")
# a stop made before any work keeps the tighter bound it had in process
STOP_SECONDS = {"reductions-14": 1.0}


@pytest.mark.parametrize("argv, message", [
    # 2^36 and 2^21 colorings of the pairs, over the 2^20 of the budget
    pytest.param("verify pair-sweep --max-n 9", "pair-sweep colors 36 pairs, over its budget of 20 pairs; frontier n=9",
                 id="pair-sweep"),
    pytest.param("verify pair-sweep --max-n 7", "pair-sweep colors 21 pairs, over its budget of 20 pairs; frontier n=7",
                 id="pair-sweep-7"),
    pytest.param("schreier transfer --xi w^w^9 -n 4",
                 "descent takes 1001 steps, over its budget of 1000; "
                 "frontier w^(w^8*3 + w^7*3 + w^6*3 + w^5*2 + w^4 + w^3 + w^2 + w + 4)", id="transfer"),
    pytest.param("ordinal fixed-seq w^w^w -n 5 --succ",
                 "descent takes 1001 steps, over its budget of 1000; "
                 "frontier w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 4)*4 + w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 3)*4 + ...",
                 id="fixed-seq-succ"),
    # 2^20 subsets pass the subset budget, but each w^2 membership is a split search
    pytest.param("verify ramsey --xi w^2 --max-n 20 --coloring const:1 --target 20",
                 "mono_set check takes 131073 membership steps, over its budget of 131072; "
                 "frontier subsets of size 5 of |L|=20", id="mono-set-steps"),
    # the checker would list the found prefix's reductions over their budget
    pytest.param("verify carlson --xi 1 --chi1 first_letter:2 --chi2 first_len_mod:2 --stream e:40 --depth 12",
                 "finite_reductions of 12 words needs 1088391168 cases, over its budget of 1048576",
                 id="carlson-depth-12"),
    # 2^13 * 4^14 cases: refused up front, not enumerated
    pytest.param("words reductions --alphabet abc --seq (" + ",".join(["_"] * 14) + ")",
                 "finite_reductions of 14 words needs 2199023255552 cases, over its budget of 1048576",
                 id="reductions-14"),
    # at minimum 5 the first blocks of w^(w^(w^w)) form a chain of 3,907
    # expansions; membership ran on past 20 s, and enumeration crashed
    pytest.param("schreier mem --xi w^(w^(w^w)) --set {{5,6,7}}", WALK_STOP, id="mem-chain"),
    pytest.param("schreier enumerate --xi w^(w^(w^w)) --max-n 5", WALK_STOP, id="enumerate-chain"),
    pytest.param("verify ramsey --xi w^(w^(w^w)) --max-n 5", WALK_STOP, id="ramsey-chain"),
    # the sequence universes over ab grow x4 a letter: both listed 11 million
    # sequences in several GB; the count is taken before the listing
    pytest.param("cbindex --family len:11", UNIVERSE_STOP, id="cbindex-universe"),
    pytest.param("family dichotomy --file {fam} --xi 1 --stream e:11 --letters 11", UNIVERSE_STOP,
                 id="dichotomy-universe"),
    # the level-xi listing is counted by its shapes before it is built: these
    # listed for 3-6 s in 0.5 GB
    pytest.param("wxi enumerate --xi w --alphabet abc --side v --letters 10",
                 "level-w listing of variable sequences with up to 10 letters holds 2362735 sequences, "
                 "over its budget of 1048576", id="wxi-enumerate-w"),
    pytest.param("wxi enumerate --xi 0 --alphabet abc --letters 13",
                 "level-0 listing of constant sequences with up to 13 letters holds 2391483 sequences, "
                 "over its budget of 1048576", id="wxi-enumerate-0"),
    # few but long seeds: 20,000 seeds of 1..20,000 letters took 8 s
    pytest.param("cbindex --alphabet a --family len:1 --seed-letters 20000 --levels 0",
                 "universe of constant sequences with up to 20000 letters lists 16782321 letters by 5793 letters, "
                 "over its budget of 16777216 letters", id="cbindex-universe-letters"),
    pytest.param("schreier enumerate --xi w --max-n 25",
                 "enumeration ground set reaches 25, over its budget of 24; frontier xi=w", id="enumerate-ground"),
    pytest.param("schreier enumerate --xi w --max-n 30",
                 "enumeration ground set reaches 30, over its budget of 24; frontier xi=w", id="enumerate-ground-30"),
    pytest.param("schreier transfer --xi w^10001 -n 2",
                 "transfer index needs 10001 terms, over its budget of 10000; frontier w^10001", id="transfer-terms"),
    # the budget counts the whole index, not one tower: at -n 499 this
    # answered with 497,005 terms (5.4 MB) in 3 s
    pytest.param("schreier transfer --xi w^(w^2) -n 101",
                 "transfer index needs 10100 terms, over its budget of 10000; frontier w^(w + 101)",
                 id="transfer-terms-whole-index"),
    # membership answers false here through the room cut; the transfer has no room to cut
    pytest.param("schreier transfer --xi w^(w^(w^2)) -n 3",
                 "descent takes 1001 steps, over its budget of 1000; "
                 "frontier w^(w^(w*2 + 2)*2 + w^(w*2 + 1)*2 + w^(w*2) + w^(w + 2) + w^w*2 + w^2*2 + w*2)",
                 id="transfer-chain"),
    pytest.param("wxi enumerate --xi 1 --alphabet ab --letters 17",
                 "level-xi listing asks for 17 letters, over its budget of 16; frontier xi=1, side=constant",
                 id="wxi-letters"),
    # the horizon was an allocation: a large one exhausted memory
    pytest.param("words reduce --alphabet ab --seq (a) --stream e:1048577",
                 "stream e:1048577 has horizon 1048577, over its budget of 1048576 words", id="stream-e"),
    pytest.param("words reduce --alphabet ab --seq (a) --stream pat:_;__:1048577",
                 "stream pat:_;__:1048577 has horizon 1048577, over its budget of 1048576 words", id="stream-pat"),
    pytest.param("verify hj --xi 0 --k 3 --r 2 --mmax 4",
                 "hj coloring space holds 134217728 colorings, over its budget of 1048576; frontier M=3",
                 id="hj-space"),
    # r^cube has more digits than an int prints: the stop is decided, and
    # worded, on a lower bound of its log2, and the power is never built
    pytest.param(f"verify hj --xi 0 --k 2 --r {'9' * 2200} --mmax 1",
                 "hj coloring space has a log2 of at least 14616, over its budget of 20; frontier M=1",
                 id="hj-huge-r"),
    pytest.param("verify hj --xi w^2 --k 4 --r 2 --mmax 7",
                 "hj coloring space has a log2 of at least 16384, over its budget of 20; frontier M=7",
                 id="hj-huge-cube"),
    pytest.param("cbindex --family len:2 --budget 0",
                 "derivation needs pass 1, over its budget of 0 passes; frontier 11 seeds left", id="cbindex-passes"),
    # each level is a pass: a million levels answered with a 3 MB report of trailing zeros
    pytest.param("cbindex --family len:1 --stream e:10 --levels 17",
                 "derivation needs pass 17, over its budget of 16 passes", id="cbindex-levels"),
    # chains of 1200 steps nested inside each other's escape tests: the
    # search runs out of nodes, and says so, rather than out of stack
    pytest.param("cbindex --family len:1 --stream e:1500 --oracle horizon:1200",
                 "chain searches visit 500001 nodes, over its budget of 500000; frontier level 0, sequence "
                 "(" + "a" * 61 + "...", id="chain-nodes"),  # the frontier is cut to 80 characters
])
def test_unbounded_walks_stop_at_their_budget(argv, message, files, request):
    # each walk ran for more than 6 s, or an allocation took the memory; a
    # subprocess, so that one that never ends fails the test at its timeout
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *[a.format(**files) for a in argv.split()]],
                          capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_BUDGET, "", f"error: {message}\n")
    assert elapsed < STOP_SECONDS.get(request.node.callspec.id, 2.0)


def test_stream_horizon_at_its_budget_is_read():
    # one word past it is a budget stop (the stream-e row above)
    run = run_cli("words reduce --alphabet ab --seq (a) --stream e:1048576")
    assert run.code == cli.EXIT_FOUND and run.report["reduced"] == "(a)"


@pytest.mark.parametrize("argv, name, value", [
    pytest.param(["verify", "carlson", "--depth", "-1"], "depth", -1, id="carlson"),
    pytest.param(["verify", "subspace", "--depth", "-1"], "depth", -1, id="subspace"),
    pytest.param(["verify", "pair-sweep", "--max-n", "-2"], "max-n", -2, id="pair-sweep-max-n"),
    pytest.param(["verify", "ramsey", "--max-n", "-1"], "max-n", -1, id="ramsey-max-n"),
    pytest.param(["verify", "hj", "--mmax", "-1"], "mmax", -1, id="hj-mmax"),
    pytest.param(["cbindex", "--family", "len:-1"], "len", -1, id="cbindex-len"),
    pytest.param(["cbindex", "--family", "len:2", "--levels", "-1"], "levels", -1, id="cbindex-levels"),
    pytest.param(["cbindex", "--family", "len:2", "--seed-letters", "-1"], "seed-letters", -1,
                 id="cbindex-seed-letters"),
    pytest.param(["wxi", "enumerate", "--xi", "1", "--alphabet", "ab", "--letters", "-1"], "letters", -1,
                 id="wxi-letters"),
    pytest.param(["schreier", "enumerate", "--xi", "w", "--max-n", "-3"], "max-n", -3, id="schreier-max-n"),
])
def test_negative_depth_is_a_usage_error(argv, name, value):
    # a subprocess, so that a search which never ends fails the test at its timeout
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *argv], capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {name} must be >= 0, got {value}\n")
    assert elapsed < 1.0
    # 0 is a size like any other
    code, _, err = run_cli([a.replace(str(value), "0") for a in argv])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED) and err == ""


# Each job is a fresh interpreter, so it loads only the layers its subcommand runs.
LAYER_JOBS = {
    "ordinal": (["ordinal", "classify", "w^2+3"], {"ordinal"}),
    "schreier": (["schreier", "enumerate", "--xi", "w^2", "--max-n", "6"], {"ordinal", "schreier"}),
    "words": (["words", "d", "--alphabet", "ab", "--seq", "(ab,a)"], {"words"}),
    "wxi": (["wxi", "enumerate", "--xi", "1", "--alphabet", "ab", "--letters", "4"],
            {"ordinal", "schreier", "words", "wxi"}),
    "family": (["family", "tree", "--file", "{tree}"], {"words", "families"}),
    "cbindex": (["cbindex", "--family", "len:2", "--stream", "e:16", "--oracle", "horizon:4"],
                {"words", "cbindex"}),
    "cbindex-file": (["cbindex", "--family", "{tree}", "--stream", "e:12", "--oracle", "horizon:3"],
                     {"words", "families", "cbindex"}),
    "verify": (["verify", "ramsey", "--xi", "2", "--max-n", "8", "--target", "4"],
               {"ordinal", "schreier", "verify"}),
    "verify-pair-sweep": (["verify", "pair-sweep", "--max-n", "4"], {"ordinal", "schreier", "verify"}),
    "verify-carlson": (["verify", "carlson", "--xi", "1", "--stream", "e:6", "--depth", "2"],
                       {"ordinal", "schreier", "words", "wxi", "verify"}),
    "verify-nw": (["verify", "nw", "--fixture", "narrow", "--letters", "5"],
                  {"ordinal", "schreier", "words", "wxi", "cbindex", "verify"}),
}
HEAVY = {"dataclasses", "inspect"}


def _loaded_modules(code: str, *argv) -> set:
    probe = code + "\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("name", sorted(LAYER_JOBS))
def test_jobs_import_only_their_layers(name, files):
    argv, layers = LAYER_JOBS[name]
    loaded = _loaded_modules("import sys\nfrom schramsey import cli\ncli.main(sys.argv[1:])",
                             *[a.format(**files) for a in argv])
    assert {m for m in loaded if m.startswith("schramsey.")} == {f"schramsey.{m}" for m in {"cli", "errors"} | layers}
    assert loaded & HEAVY <= _loaded_modules("import sys") & HEAVY


# --- interpreter exit ---------------------------------------------------------

FREEZE_PROBE = "import atexit, gc, {module}\natexit._run_exitfuncs()\nprint(gc.get_freeze_count())"


@pytest.mark.parametrize("module, frozen", [("schramsey.cli", True), ("schramsey.schreier", False)])
def test_only_the_cli_freezes_the_heap_at_exit(module, frozen):
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE.format(module=module)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout) > 0) is frozen


def test_largest_report_arrives_whole_through_the_exit_freeze():
    argv = ["schreier", "enumerate", "--xi", "w^w", "--max-n", "20"]
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *argv], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_FOUND, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert rep["count"] == 21181 == len(rep["members"])
    assert proc.stdout == expanded_report(ordinal.parse("w^w"), 20)


# --- coloring specs ---------------------------------------------------------

# each coloring option with small bounds
COLORING_JOBS = {
    "--coloring": ["verify", "ramsey", "--xi", "2", "--max-n", "5", "--target", "3"],
    "--chi1": ["verify", "carlson", "--xi", "1", "--stream", "e:6", "--depth", "2"],
    "--chi2": ["verify", "carlson", "--xi", "1", "--stream", "e:6", "--depth", "2"],
    "--chi": ["verify", "subspace", "--xi", "0", "--stream", "e:6", "--depth", "2"],
}


BASE = ["--alphabet", "ab", "--base", "list:a_,_b,__,__,_"]


@pytest.mark.parametrize("args, code, member, relative_d", [
    # (aa,bb) is the base reduced by the letter words (a,b), offsets {2}
    ("--xi 1 --side c --seq (aa,bb)", cli.EXIT_FOUND, True, [2]),
    ("--xi 2 --side c --seq (aa,bb)", cli.EXIT_EXHAUSTED, False, [2]),
    # non-reductions of the base, side-consistent or not, are non-members
    ("--xi 1 --side v --seq (a_b,__)", cli.EXIT_EXHAUSTED, False, None),
    ("--xi 1 --side c --seq (bb,bb)", cli.EXIT_EXHAUSTED, False, None),
])
def test_wxi_member_relative_to_base(args, code, member, relative_d):
    run = run_cli(["wxi", "member", *BASE, *args.split()])
    assert (run.code, run.err) == (code, "")
    assert (run.report["member"], run.report["relative_d"]) == (member, relative_d)


_FIELD = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["", "x", "1.5", "+2"]))


@settings(max_examples=150, deadline=None)
@given(
    option=st.sampled_from(sorted(COLORING_JOBS)),
    rule=st.one_of(st.sampled_from([*verify.RULES, "set_size_mod"]), st.text("abdelmnostz_:", max_size=8)),
    fields=st.lists(_FIELD, max_size=3),
)
def test_coloring_specs_never_crash(option, rule, fields):
    spec = ":".join([rule, *fields])
    code, out, err = run_cli(COLORING_JOBS[option] + [option, spec])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED, cli.EXIT_USAGE), (spec, err)
    if code == cli.EXIT_USAGE:
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (spec, err)
    else:
        assert err == "" and json.loads(out)["witness_checked"] in (True, None), spec


# --- argv fuzz ----------------------------------------------------------------


def _mostly(valid, malformed):
    """Valid text seven times in eight, malformed text otherwise."""
    return st.integers(0, 7).flatmap(lambda i: malformed if i == 0 else valid)


def _small(hi):
    return st.integers(0, hi).map(str)


# cheap indices, or text that is no ordinal, not a normal form, or too deep
XI = _mostly(st.sampled_from(["0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w", "w^(w+1)", "w^2*2+w+3"]),
             st.sampled_from(["", "x", "w+w", "1+w", "w^", "w^(", "w*0", "1.5", "-1",
                              "w^" * 65 + "0", "w^(" * 400 + "1" + ")" * 400, "w^" * 1000]))
ALPHABET = _mostly(st.sampled_from(["ab", "abc", "a"]), st.sampled_from(["", "aa", "a_"]))
STREAM = _mostly(
    st.one_of(_small(8).map("e:{}".format), st.sampled_from(["list:_,a_,_b,__", "list:_"]),
              st.tuples(st.sampled_from(["_", "a_", "_;__", ";_b", "a_,_b;__"]), _small(8))
              .map(lambda t: f"pat:{t[0]}:{t[1]}")),
    st.sampled_from(["list:a", "e:x", "e:", "e:-1", "pat:_;__:x", "pat::4", "pat:c_:4", "q:3", ""]),
)
SEQ = _mostly(st.sampled_from(["()", "(a)", "(ab,_)", "(a_,b,_b)", "(_,_,_)", "(_,a_)", "(b_,_)"]),
              st.sampled_from(["(a", "(c)", "(,)", "a b", "(ab,ab,ab,ab,ab,ab,ab,ab,ab)"]))
SET = _mostly(st.sampled_from(["{}", "{1}", "{3,5,9}", "{2,3,4}", "{1,2,3,4,5,6,7,8}", "{4,5,6,7,8,9}"]),
              st.sampled_from(["{a}", "{3,2}", "{0}", "{-1}", "{1,,2}", "{1.5}", "{"]))
FINITE_STREAM = _mostly(st.sampled_from(["3,7,8,9,10", "2,3,5,7,8,9,10,11,12", "1,2"]),
                        st.sampled_from(["", "2,1", "x", "3"]))
COLORING = _mostly(
    st.sampled_from(["min_mod:2", "min_mod:3", "size_mod", "set_size_mod:2", "const:1", "const:2:2",
                     "first_letter:2", "first_len_mod:2", "total_len_mod:3", "min_len_mod:2"]),
    st.tuples(st.sampled_from([*verify.RULES, "bogus", ""]), st.lists(_FIELD, max_size=3))
    .map(lambda t: ":".join([t[0], *t[1]])),
)
# a file of FILES by @name
FAMILY = _mostly(st.sampled_from(["@tree", "@var"]), st.sampled_from(["@empty", "@deep", "@shape", "@missing"]))


SWITCH = st.just(None)  # a flag that takes no value

# the values drawn for each flag, by subcommand (None: the top level): one
# entry per flag row of the option table, so that no option skips the fuzz
FLAGS = {
    None: {"--rule": st.sampled_from(["fixed", "succ"])},
    "ordinal": {"-n": _small(4), "--succ": SWITCH},
    "schreier": {"--xi": XI, "--set": SET, "--stream": FINITE_STREAM, "--max-n": _small(9), "-n": _small(4)},
    "words": {"--alphabet": ALPHABET, "--seq": SEQ, "--stream": STREAM},
    "wxi": {"--xi": XI, "--alphabet": ALPHABET, "--side": st.sampled_from("cv"), "--seq": SEQ, "--base": STREAM,
            "--letters": _small(5)},
    "family": {"--file": FAMILY, "--closure": st.sampled_from(["star", "hereditary"]), "--xi": XI,
               "--stream": STREAM, "--letters": _small(5)},
    "cbindex": {
        "--family": st.one_of(_small(3).map("len:{}".format), FAMILY, st.sampled_from(["len:x", "len:"])),
        "--alphabet": ALPHABET, "--side-full": st.sampled_from(["constant", "variable"]),
        "--seed-letters": _small(5), "--stream": STREAM,
        "--oracle": st.one_of(_small(8).map("horizon:{}".format),
                              st.sampled_from(["exact", "exact:length", "exact:bogus", "horizon", "bogus:2"])),
        "--budget": _small(4), "--levels": _small(3)},
    "verify": {
        "--xi": XI, "--alphabet": ALPHABET, "--max-n": _small(9), "--target": _small(9), "--coloring": COLORING,
        "--chi1": COLORING, "--chi2": COLORING, "--chi": COLORING, "--stream": STREAM, "--depth": _small(3),
        "--r": _small(2), "--n": _small(2), "--k": _small(3), "--mmax": _small(2),
        "--fixture": st.sampled_from(["wide", "narrow", "empty"]), "--letters": _small(5)},
}


def _flags(required=(), **options):
    """argv for the named options: the required ones always given, the
    others given or left out."""
    parts = []
    for flag, value in options.items():
        part = value.map(lambda v, f=flag: [f] if v is None else [f, v])
        parts.append(part if flag in required else st.one_of(st.just([]), part))
    return st.tuples(*parts).map(lambda got: [token for part in got for token in part])


# each subcommand's actions, as its action row in the option table lists them
ACTIONS = {module: kw["choices"] for module, rows in cli.OPTIONS.items() for name, kw in rows if name == "action"}


def _command(module, required=()):
    return st.tuples(st.sampled_from(ACTIONS[module]), _flags(required, **FLAGS[module])).map(
        lambda t: [module, t[0], *t[1]])


COMMANDS = st.one_of(
    st.tuples(st.sampled_from(ACTIONS["ordinal"]), XI, _flags(**FLAGS["ordinal"]))
    .map(lambda t: ["ordinal", t[0], t[1], *t[2]]),
    _command("schreier", ["--xi"]),
    _command("words", ["--alphabet", "--seq"]),
    _command("wxi", ["--xi", "--alphabet"]),
    _command("family", ["--file"]),
    _flags(["--family"], **FLAGS["cbindex"]).map(lambda flags: ["cbindex", *flags]),
    _command("verify"),
)
# defaults past the small bounds above; a flag the command draws comes later and wins
SMALL_DEFAULTS = {"verify": ["--stream", "e:4", "--letters", "4", "--mmax", "2"],
                  "cbindex": ["--stream", "e:6", "--budget", "3"]}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command=COMMANDS, top=_flags(**FLAGS[None]))
def test_argv_fuzz_never_crashes(files, command, top):
    # every argv gets an answer, a usage error or a budget stop: exit 4 or a
    # traceback fails, and an error is one stderr line with nothing on stdout
    module, *rest = command
    argv = [*top, module, *SMALL_DEFAULTS.get(module, []), *rest]
    code, out, err = run_cli([files[a[1:]] if a.startswith("@") else a for a in argv])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED, cli.EXIT_USAGE, cli.EXIT_BUDGET), (argv, err)
    if code in (cli.EXIT_USAGE, cli.EXIT_BUDGET):
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
    else:
        assert err == "" and out.endswith("\n"), argv


def test_argv_fuzz_draws_every_flag_row():
    table = {module: sorted(name for name, _ in rows if name.startswith("-")) for module, rows in cli.OPTIONS.items()}
    assert {module: sorted(flags) for module, flags in FLAGS.items()} == table


# --- README -----------------------------------------------------------------


README_LINES = [line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                if line.startswith("schramsey ")]


@pytest.mark.parametrize("line", README_LINES)
def test_readme_cli_examples_run(line, tmp_path, monkeypatch):
    (tmp_path / "fam.json").write_text(json.dumps(TREE))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(shlex.split(line)[1:])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED), err
    assert json.loads(out)["schema_version"] == 1
