import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import cli, verify


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def test_schreier_mem_true(capsys):
    code, rep = run_json(["schreier", "mem", "--xi", "w", "--set", "{3,5,9}"], capsys)
    assert code == 0 and rep["member"] is True


def test_schreier_mem_false_exit(capsys):
    code, rep = run_json(["schreier", "mem", "--xi", "w", "--set", "{2,3,4}"], capsys)
    assert code == 1 and rep["member"] is False


def test_schreier_decompose(capsys):
    code, rep = run_json(
        ["schreier", "decompose", "--xi", "w", "--stream", "3,7,8,9,10"], capsys
    )
    assert code == 0 and rep["initial_segment"] == [3, 7, 8]


def test_schreier_enumerate_and_transfer(capsys):
    code, rep = run_json(["schreier", "enumerate", "--xi", "w", "--max-n", "4"], capsys)
    assert code == 0 and rep["members"] == [[1], [2, 3], [2, 4]]
    code, rep = run_json(["schreier", "transfer", "--xi", "w", "-n", "3"], capsys)
    assert code == 0 and rep["transfer_index"] == "2"


def test_ordinal_commands(capsys):
    code, rep = run_json(["ordinal", "eval", "w^2*3 + w + 5"], capsys)
    assert code == 0 and rep["canonical"] == "w^2*3 + w + 5"
    code, rep = run_json(["ordinal", "fixed-seq", "w^w", "-n", "2", "--succ"], capsys)
    assert rep["value"] == "w + 2"
    code, rep = run_json(["ordinal", "classify", "w+4"], capsys)
    assert rep["kind"] == "successor" and rep["pred"] == "w + 3"


def test_words_and_wxi_commands(capsys):
    code, rep = run_json(
        ["words", "d", "--alphabet", "ab", "--seq", "(ab,ba,aab)"], capsys
    )
    assert rep["d"] == [3, 5]
    code, rep = run_json(
        ["wxi", "member", "--xi", "2", "--alphabet", "ab", "--side", "c", "--seq", "(ab,ba,aab)"],
        capsys,
    )
    assert code == 0 and rep["member"] is True
    code, rep = run_json(
        ["wxi", "decompose", "--xi", "1", "--alphabet", "ab", "--seq", "(a,b,a)"], capsys
    )
    assert rep["boundaries"] == [2, 3] and rep["residual"] is False


def test_family_commands(tmp_path, capsys):
    fam = {
        "alphabet": ["a", "b"],
        "side": "constant",
        "members": [["a"], []],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, rep = run_json(["family", "tree", "--file", str(path)], capsys)
    assert code == 0 and rep["tree"] is True
    code, rep = run_json(
        ["family", "dichotomy", "--file", str(path), "--xi", "1", "--stream", "e:3", "--letters", "3"],
        capsys,
    )
    assert code == 0 and rep["equivalent"] is True


def test_cbindex_command(capsys):
    code, rep = run_json(
        ["cbindex", "--family", "len:2", "--stream", "e:40", "--oracle", "exact:length"],
        capsys,
    )
    assert code == 0 and rep["so_index"] == 2 and rep["nodes"] == 0
    code, rep = run_json(
        ["cbindex", "--family", "len:1", "--stream", "e:30", "--oracle", "horizon:3", "--levels", "2"],
        capsys,
    )
    assert rep["profile"] == [3, 1, 0]  # seeds, then only the empty sequence, then nothing
    assert rep["nodes"] > 0


def test_cbindex_seed_letters_zero_is_a_budget(capsys):
    # 0 letters seed only the empty sequence; it is not read as "unset"
    for letters, profile in (("0", [1]), ("1", [3]), ("2", [11])):
        code, rep = run_json(["cbindex", "--family", "len:2", "--seed-letters", letters, "--levels", "0"], capsys)
        assert code == 0 and rep["profile"] == profile, letters


@pytest.mark.parametrize("oracle, message", [
    ("bogus:4", "error: unknown oracle mode 'bogus'\n"),
    ("horizon", "error: horizon mode needs H (horizon:H)\n"),
    ("horizon:x", "error: --oracle horizon:H needs an integer H, got 'x'\n"),
    ("bogus:x", "error: unknown oracle mode 'bogus'\n"),
])
def test_cbindex_bad_oracle_is_a_usage_error(oracle, message, capsys):
    code = cli.main(["cbindex", "--family", "len:2", "--oracle", oracle])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", message)


def test_deep_horizon_search_does_not_crash(capsys):
    # chains of 1200 steps nested inside each other's escape tests: the
    # search runs out of nodes, and says so, rather than out of stack
    code = cli.main(["cbindex", "--family", "len:1", "--stream", "e:1500", "--oracle", "horizon:1200"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET
    assert captured.err == "error: chain search exceeded its node budget\n"


def test_deep_successor_index_is_answered(capsys):
    # a successor index in the thousands is decided, not a stack overflow
    for top, member, code in ((2500, False, cli.EXIT_EXHAUSTED), (3000, True, cli.EXIT_FOUND)):
        members = ",".join(str(i) for i in range(1, top + 1))
        got, rep = run_json(["schreier", "mem", "--xi", "3000", "--set", "{" + members + "}"], capsys)
        assert got == code and rep["member"] is member


def test_unexpected_exception_in_handler_exits_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_ordinal", broken)
    code = cli.main(["ordinal", "eval", "w"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL and captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom second line\n"


def test_verify_commands(capsys):
    code, rep = run_json(
        ["verify", "hj", "--r", "2", "--n", "1", "--k", "2", "--xi", "0", "--mmax", "4"],
        capsys,
    )
    assert code == 0 and rep["M"] == 2
    code, rep = run_json(
        ["verify", "ramsey", "--xi", "1", "--max-n", "5", "--coloring", "min_mod:2", "--target", "3"],
        capsys,
    )
    assert code == 0 and rep["found"] and rep["witness_checked"] is True
    code, rep = run_json(
        ["verify", "nw", "--fixture", "narrow", "--alphabet", "ab", "--letters", "6"], capsys
    )
    assert code == 0 and rep["consistent"] is True


def test_usage_errors(capsys):
    code, _ = run_cli(["schreier", "mem", "--xi", "w+w", "--set", "{1}"], capsys)
    assert code == 2
    code, _ = run_cli(["ordinal", "eval", "w^"], capsys)
    assert code == 2


def test_multi_character_alphabet_symbol_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"alphabet": ["ab", "c"], "side": "constant", "members": [["c"]]}))
    code = cli.main(["family", "tree", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == "error: alphabet symbol 'ab' is not a single character\n"


def test_reductions_over_budget_stop_before_any_work(capsys):
    # 2^13 * 4^14 cases: refused up front, not enumerated
    start = time.perf_counter()
    code = cli.main(["words", "reductions", "--alphabet", "abc", "--seq", "(" + ",".join(["_"] * 14) + ")"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET and elapsed < 1.0
    assert captured.err == (
        "error: finite_reductions of 14 words needs 2199023255552 cases, over its budget of 1048576\n"
    )


def test_reductions_of_the_empty_sequence(capsys):
    code, rep = run_json(["words", "reductions", "--alphabet", "ab", "--seq", "()"], capsys)
    assert code == 0
    assert rep["constant"] == [["()", []]] and rep["variable"] == [["()", []]]


def test_budget_exit_code(capsys):
    code, _ = run_cli(["schreier", "enumerate", "--xi", "w", "--max-n", "30"], capsys)
    assert code == 3


def test_reports_embed_bounds(capsys):
    _, rep = run_json(["verify", "pair-sweep", "--max-n", "5"], capsys)
    assert rep["colorings"] == 1024 and "max_n" in rep
    assert rep["schema_version"] == 1


def test_plain_and_csv_formats(capsys):
    code, out = run_cli(["--format", "plain", "ordinal", "eval", "w"], capsys)
    assert code == 0 and "canonical: w" in out
    code, out = run_cli(["--format", "csv", "schreier", "transfer", "--xi", "w", "-n", "2"], capsys)
    assert code == 0 and out.count("\n") == 2


def test_config_file_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"max_n": 4}))
    _, rep = run_json(
        ["--config", str(cfgfile), "schreier", "enumerate", "--xi", "w"], capsys
    )
    assert rep["max_n"] == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # the removed `threads` and a misspelled `max_n` are usage errors, not silent drops
    cases = [
        ({"threads": 8}, "error: unknown config key 'threads'\n"),
        ({"max_nn": 3}, "error: unknown config key 'max_nn'\n"),
        ({"threads": 8, "max-nn": 3}, "error: unknown config keys 'max-nn', 'threads'\n"),
        ([1, 2], "error: config file must hold a JSON object\n"),
    ]
    for data, message in cases:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        code = cli.main(["--config", str(cfgfile), "schreier", "enumerate", "--xi", "w"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message), data


def test_mono_set_checker_budget_stops_fast(capsys):
    # the search answers at once; walking the 2^22 subsets of L would not
    start = time.perf_counter()
    code = cli.main(["verify", "ramsey", "--xi", "1", "--max-n", "22", "--coloring", "const:1", "--target", "22"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: mono_set check walks {1 << 22} subsets, over its budget of {1 << 20}; frontier |L|=22\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, message", [
    pytest.param("verify pair-sweep --max-n 9", "coloring space 2^36 exceeds budget; n=9", id="pair-sweep"),
    pytest.param("verify pair-sweep --max-n 7", "coloring space 2^21 exceeds budget; n=7", id="pair-sweep-7"),
    pytest.param("schreier transfer --xi w^w^9 -n 4",
                 "descent exceeded its budget of 1000 steps; "
                 "reached w^(w^8*3 + w^7*3 + w^6*3 + w^5*2 + w^4 + w^3 + w^2 + w + 4)", id="transfer"),
    pytest.param("ordinal fixed-seq w^w^w -n 5 --succ",
                 "descent exceeded its budget of 1000 steps; "
                 "reached w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 4)*4 + w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 3)*4 + ...",
                 id="fixed-seq-succ"),
])
def test_unbounded_walks_stop_at_their_budget(argv, message):
    # each of these ran for more than 6 s; a subprocess, so that one that
    # never ends fails the test at its timeout
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *argv.split()],
                          capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_BUDGET, "", f"error: {message}\n")
    assert elapsed < 2.0


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
def test_negative_depth_is_a_usage_error(argv, name, value, capsys):
    # a subprocess, so that a search which never ends fails the test at its timeout
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *argv], capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {name} must be >= 0, got {value}\n")
    assert elapsed < 1.0
    # 0 is a size like any other
    assert cli.main([a.replace(str(value), "0") for a in argv]) in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED)
    assert capsys.readouterr().err == ""


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    cases = [["family", "tree", "--file", missing], ["cbindex", "--family", missing],
             ["family", "tree", "--file", str(tmp_path)]]  # a directory
    for argv in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == "", argv
        assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1, argv


@pytest.mark.parametrize("data, message", [
    ({"side": "constant", "members": [["a"]]},
     'error: a family file is an object with an "alphabet" list, a "side" and a "members" list\n'),
    ({"alphabet": ["a", "b"], "side": "constant", "members": [["a"], 3]},
     "error: family member 3 is not a list of words\n"),
    ([["a"], ["a", "b"]], 'error: a family file is an object with an "alphabet" list, a "side" and a "members" list\n'),
], ids=["no-alphabet", "member-not-a-list", "top-level-array"])
def test_malformed_family_file_is_a_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    for argv in (["family", "tree", "--file", str(path)], ["cbindex", "--family", str(path)]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", message), argv


BATTERY = [
    ["schreier", "enumerate", "--xi", "w^2", "--max-n", "8"],
    ["verify", "hj", "--r", "2", "--n", "1", "--k", "2", "--xi", "0", "--mmax", "4"],
    ["verify", "pair-sweep", "--max-n", "5"],
    ["cbindex", "--family", "len:2", "--stream", "e:40", "--oracle", "horizon:4"],
    ["wxi", "enumerate", "--xi", "w", "--alphabet", "ab", "--side", "c", "--letters", "5"],
]


def test_hash_seed_does_not_change_output():
    for args in BATTERY:
        runs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "schramsey.cli", *args],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1]
        assert runs[0][1]  # some output was produced


TREE = {"alphabet": ["a", "b"], "side": "constant", "members": [[], ["a"], ["a", "b"]]}

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
               {"ordinal", "schreier", "words", "wxi", "verify"}),
}
HEAVY = {"dataclasses", "inspect"}


def _loaded_modules(code: str, *argv) -> set:
    probe = code + "\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("name", sorted(LAYER_JOBS))
def test_jobs_import_only_their_layers(name, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE))
    argv, layers = LAYER_JOBS[name]
    loaded = _loaded_modules("import sys\nfrom schramsey import cli\ncli.main(sys.argv[1:])",
                             *[a.format(tree=path) for a in argv])
    assert {m for m in loaded if m.startswith("schramsey.")} == {f"schramsey.{m}" for m in {"cli", "errors"} | layers}
    assert loaded & HEAVY <= _loaded_modules("import sys") & HEAVY


# --- coloring specs ---------------------------------------------------------


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# each coloring option with small bounds
COLORING_JOBS = {
    "--coloring": ["verify", "ramsey", "--xi", "2", "--max-n", "5", "--target", "3"],
    "--chi1": ["verify", "carlson", "--xi", "1", "--stream", "e:6", "--depth", "2"],
    "--chi2": ["verify", "carlson", "--xi", "1", "--stream", "e:6", "--depth", "2"],
    "--chi": ["verify", "subspace", "--xi", "0", "--stream", "e:6", "--depth", "2"],
}


@pytest.mark.parametrize("argv, message", [
    # each of these crashed (exit 4) or answered for a rule its domain lacks
    ("verify carlson --chi1 min_mod:2 --stream e:6 --depth 2",
     "coloring 'min_mod:2': no rule 'min_mod' on wordseqs "
     "(rules: const, size_mod, first_len_mod, total_len_mod, first_letter, min_len_mod)"),
    ("verify ramsey --coloring min_mod:0", "coloring 'min_mod:0': colors must be >= 1, got 0"),
    ("verify ramsey --coloring first_len_mod:2 --max-n 0 --target 0",
     "coloring 'first_len_mod:2': no rule 'first_len_mod' on finsets (rules: const, size_mod, min_mod)"),
    ("verify ramsey --coloring const:1:7", "coloring 'const:1:7': color 7 is outside 1..1"),
    ("verify subspace --chi min_len_mod:two", "coloring 'min_len_mod:two': fields must be integers"),
    ("verify ramsey --coloring size_mod:2:1", "coloring 'size_mod:2:1': too many fields for size_mod"),
])
def test_bad_coloring_is_a_usage_error(argv, message):
    assert _run_quiet(argv.split()) == (cli.EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    # a recursion crash, a threshold claimed from zero colorings, and a
    # report stamped with more letters than ran
    "verify hj --n 0",
    "verify hj --r 0",
    "verify hj --xi 0 --k 12 --mmax 1 --r 1",
])
def test_hj_bounds_that_cannot_run_are_usage_errors(argv):
    code, out, err = _run_quiet(argv.split())
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert re.fullmatch(r"error: [^\n]*\n", err), err


@pytest.mark.parametrize("argv, depth, horizon", [
    # below 2 * depth stream words some step lists are cut, so an
    # exhausted search would not have covered its space; a witness found
    # over a cut table (as e:5 at depth 3 would give) is given up with it
    ("verify carlson --xi 1 --stream e:3 --depth 4", 4, 3),
    ("verify subspace --xi 1 --stream e:5 --depth 3", 3, 5),
    ("verify subspace --xi 1 --stream e:2 --depth 3", 3, 2),
])
def test_prefix_search_refuses_a_stream_it_cannot_fill(argv, depth, horizon):
    code, out, err = _run_quiet(argv.split())
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == (f"error: a prefix search of depth {depth} needs a stream horizon of at least "
                   f"{2 * depth}, got {horizon}\n")


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
    got, out, err = _run_quiet(["wxi", "member", *BASE, *args.split()])
    report = json.loads(out)
    assert (got, err) == (code, "")
    assert (report["member"], report["relative_d"]) == (member, relative_d)


def test_wxi_member_past_the_base_horizon_is_a_usage_error():
    argv = ["wxi", "member", *BASE, *"--xi 1 --side c --seq (aa,ab,aa,aa,a,a)".split()]
    assert _run_quiet(argv) == (cli.EXIT_USAGE, "", "error: stream 'explicit' has horizon 5\n")


_FIELD = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["", "x", "1.5", "+2"]))


@settings(max_examples=150, deadline=None)
@given(
    option=st.sampled_from(sorted(COLORING_JOBS)),
    rule=st.one_of(st.sampled_from([*verify.RULES, "set_size_mod"]), st.text("abdelmnostz_:", max_size=8)),
    fields=st.lists(_FIELD, max_size=3),
)
def test_coloring_specs_never_crash(option, rule, fields):
    spec = ":".join([rule, *fields])
    code, out, err = _run_quiet(COLORING_JOBS[option] + [option, spec])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED, cli.EXIT_USAGE), (spec, err)
    if code == cli.EXIT_USAGE:
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (spec, err)
    else:
        assert err == "" and json.loads(out)["witness_checked"] in (True, None), spec


# --- README -----------------------------------------------------------------


README_LINES = [line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                if line.startswith("schramsey ")]


@pytest.mark.parametrize("line", README_LINES)
def test_readme_cli_examples_run(line, tmp_path, monkeypatch):
    (tmp_path / "fam.json").write_text(json.dumps(TREE))
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_quiet(shlex.split(line)[1:])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED), err
    assert json.loads(out)["schema_version"] == 1
