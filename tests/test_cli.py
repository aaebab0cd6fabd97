import contextlib
import io
import json
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


def test_usage_errors(tmp_path, capsys):
    code, _ = run_cli(["schreier", "mem", "--xi", "w+w", "--set", "{1}"], capsys)
    assert code == 2
    code, _ = run_cli(["ordinal", "eval", "w^"], capsys)
    assert code == 2
    # a number that does not parse names the spec it came in
    words_reduce = ["words", "reduce", "--alphabet", "ab", "--seq", "(a)", "--stream"]
    cases = [
        (words_reduce + ["e:x"], "stream spec 'e:x' needs an integer horizon, got 'x'"),
        (words_reduce + ["e:"], "stream spec 'e:' needs an integer horizon, got ''"),
        (words_reduce + ["pat:_;__:x"], "stream spec 'pat:_;__:x' needs an integer horizon, got 'x'"),
        (["cbindex", "--family", "len:x"], "--family len:K needs an integer K, got 'x'"),
    ]
    # a file that is not JSON is named
    bad = tmp_path / "bad.json"
    bad.write_text("")
    decode = "is not JSON: Expecting value: line 1 column 1 (char 0)"
    cases += [
        (["family", "dichotomy", "--file", str(bad)], f"family file {str(bad)!r} {decode}"),
        (["cbindex", "--family", str(bad)], f"family file {str(bad)!r} {decode}"),
        (["--config", str(bad), "ordinal", "eval", "w"], f"config file {str(bad)!r} {decode}"),
    ]
    # so is one nested past the decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    nested = "is not JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    cases += [
        (["--config", str(deep), "ordinal", "eval", "w"], f"config file {str(deep)!r} {nested}"),
        (["family", "tree", "--file", str(deep)], f"family file {str(deep)!r} {nested}"),
        (["cbindex", "--family", str(deep)], f"family file {str(deep)!r} {nested}"),
    ]
    # an ordinal nested past the tower-depth cap stops before the parser recurses
    tower = "w**a would exceed the supported tower depth"
    cases += [
        (["ordinal", "eval", "w^(" * 400 + "1" + ")" * 400], tower),
        (["ordinal", "eval", "w^" * 1000], tower),
        (["verify", "ramsey", "--xi", "w^" * 1000 + "0"], tower),
    ]
    cases.append((["schreier", "mem", "--xi", "w", "--set", "{a}"], "set spec '{a}' needs an integer element, got 'a'"))
    for argv, message in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"error: {message}\n"), argv


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


@pytest.mark.parametrize("flag", ["--config"[:i] for i in range(3, 9)])
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_config_file_loads_under_every_spelling(flag, joined, tmp_path, capsys):
    # argparse accepts any unambiguous prefix of --config, as --x F or --x=F
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"max_n": 4}))
    spelled = [f"{flag}={cfgfile}"] if joined else [flag, str(cfgfile)]
    code, rep = run_json([*spelled, "schreier", "enumerate", "--xi", "w"], capsys)
    assert (code, rep["max_n"], rep["count"]) == (0, 4, 3)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # the removed `threads` and a misspelled `max_n` are usage errors, not silent drops
    cases = [
        ({"threads": 8}, "error: unknown config key 'threads'\n"),
        ({"max_nn": 3}, "error: unknown config key 'max_nn'\n"),
        ({"threads": 8, "max-nn": 3}, "error: unknown config keys 'max-nn', 'threads'\n"),
        ([1, 2], "error: config file must hold a JSON object\n"),
        # values pass the type and choice checks of their flags
        ({"max_n": 3.5}, "error: config key 'max_n' takes an integer, got 3.5\n"),
        ({"max_n": True}, "error: config key 'max_n' takes an integer, got true\n"),
        ({"format": "xml"}, "error: config key 'format' takes one of 'json', 'plain', 'csv', got 'xml'\n"),
        # only a flag's value can come from a file
        ({"help": True}, "error: unknown config key 'help'\n"),
        ({"config": "x"}, "error: unknown config key 'config'\n"),
        ({"module": "ordinal"}, "error: unknown config key 'module'\n"),
        ({"action": "enumerate"}, "error: unknown config key 'action'\n"),
        ({"expr": "w"}, "error: unknown config key 'expr'\n"),
    ]
    for data, message in cases:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        code = cli.main(["--config", str(cfgfile), "schreier", "enumerate", "--xi", "w"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message), data


# every flag row of the option table but --config, with its subcommand (None: the top level)
FLAG_ROWS = [pytest.param(module, name, kw, id=f"{module or 'top'}{name}") for module, rows in cli.OPTIONS.items()
             for name, kw in rows if name.startswith("-") and name != "--config"]
# an argv that parses for each subcommand, with its required flags given
PARSING_ARGV = {
    None: ["ordinal", "eval", "w"],
    "ordinal": ["ordinal", "eval", "w"],
    "schreier": ["schreier", "mem", "--xi", "w"],
    "words": ["words", "d", "--alphabet", "ab", "--seq", "(a)"],
    "wxi": ["wxi", "member", "--xi", "1", "--alphabet", "ab"],
    "family": ["family", "close", "--file", "fam.json"],
    "cbindex": ["cbindex", "--family", "len:1"],
    "verify": ["verify", "hj"],
}


@pytest.mark.parametrize("module, name, kw", FLAG_ROWS)
def test_every_flag_row_is_a_config_key(module, name, kw, tmp_path, monkeypatch):
    # the row's dest, spelled with _ or with -, sets the flag's default;
    # a required flag stays required
    dest = name.lstrip("-").replace("-", "_")
    if kw.get("action") == "store_true":
        value = True
    elif "choices" in kw:
        value = kw["choices"][-1]
    elif kw.get("type") is int:
        value = (kw.get("default") or 0) + 5
    else:
        value = "from-config"
    seen = []
    monkeypatch.setattr(cli, f"_cmd_{module or 'ordinal'}", lambda args: seen.append(args) or 0)
    argv = PARSING_ARGV[module]
    cfgfile = tmp_path / "cfg.json"
    for key in {dest, name.lstrip("-")}:
        cfgfile.write_text(json.dumps({key: value}))
        if kw.get("required"):
            i = argv.index(name)
            with pytest.raises(SystemExit):
                cli.main(["--config", str(cfgfile), *argv[:i], *argv[i + 2:]])
        else:
            assert cli.main(["--config", str(cfgfile), *argv]) == 0
            assert vars(seen.pop())[dest] == value, key


@pytest.mark.parametrize("module, name, kw", FLAG_ROWS)
def test_every_flag_row_checks_its_config_value(module, name, kw, tmp_path, capsys):
    dest = name.lstrip("-").replace("-", "_")
    if kw.get("action") == "store_true":
        cases = [(1, "true or false, got 1")]
    elif kw.get("type") is int:
        cases = [("4", 'an integer, got "4"'), (3.5, "an integer, got 3.5")]
    else:
        cases = [(3, "a string, got 3")]
    if "choices" in kw:
        cases.append(("bogus", f"one of {', '.join(map(repr, kw['choices']))}, got 'bogus'"))
    cfgfile = tmp_path / "cfg.json"
    for value, message in cases:
        cfgfile.write_text(json.dumps({dest: value}))
        code = cli.main(["--config", str(cfgfile), *PARSING_ARGV[module]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: config key {dest!r} takes {message}\n")


def test_mono_set_checker_budget_stops_fast(capsys):
    # the search answers at once; walking the 2^22 subsets of L would not
    start = time.perf_counter()
    code = cli.main(["verify", "ramsey", "--xi", "1", "--max-n", "22", "--coloring", "const:1", "--target", "22"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: mono_set check walks {1 << 22} subsets, over its budget of {1 << 20}; frontier |L|=22\n"
    assert elapsed < 1.0


WALK_STOP = ("descent takes 1001 steps, over its budget of 1000; frontier "
             "w^(w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 4)*4 + w^(w^4*4 + w^3*4 + w^2*4 + w*4 + 3)*4...")
UNIVERSE_STOP = ("universe of constant sequences with up to 11 letters lists 2796202 sequences by 11 letters, "
                 "over its budget of 1048576")


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
    # at minimum 5 the first blocks of w^(w^(w^w)) form a chain of 3,907
    # expansions; membership ran on past 20 s, and enumeration crashed
    pytest.param("schreier mem --xi w^(w^(w^w)) --set {5,6,7}", WALK_STOP, id="mem-chain"),
    pytest.param("schreier enumerate --xi w^(w^(w^w)) --max-n 5", WALK_STOP, id="enumerate-chain"),
    pytest.param("verify ramsey --xi w^(w^(w^w)) --max-n 5", WALK_STOP, id="ramsey-chain"),
    # the sequence universes over ab grow x4 a letter: both listed 11 million
    # sequences in several GB; the count is taken before the listing
    pytest.param("cbindex --family len:11", UNIVERSE_STOP, id="cbindex-universe"),
    pytest.param("family dichotomy --file FAMILY --xi 1 --stream e:11 --letters 11", UNIVERSE_STOP,
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
    pytest.param("schreier transfer --xi w^10001 -n 2",
                 "transfer index needs 10001 terms, over its budget of 10000; frontier w^10001", id="transfer-terms"),
    pytest.param("wxi enumerate --xi 1 --alphabet ab --letters 17",
                 "level-xi listing asks for 17 letters, over its budget of 16; frontier xi=1, side=constant",
                 id="wxi-letters"),
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
    # chains of 1200 steps nested inside each other's escape tests: the
    # search runs out of nodes, and says so, rather than out of stack
    pytest.param("cbindex --family len:1 --stream e:1500 --oracle horizon:1200",
                 "chain searches visit 500001 nodes, over its budget of 500000; frontier level 0, sequence "
                 "(" + "a" * 61 + "...", id="chain-nodes"),  # the frontier is cut to 80 characters
])
def test_unbounded_walks_stop_at_their_budget(argv, message, tmp_path):
    # each of these ran for more than 6 s; a subprocess, so that one that
    # never ends fails the test at its timeout
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"alphabet": ["a", "b"], "side": "constant", "members": [["a"], []]}))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schramsey.cli", *argv.replace("FAMILY", str(family)).split()],
                          capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_BUDGET, "", f"error: {message}\n")
    assert elapsed < 2.0


@pytest.mark.parametrize("spec", ["e:1048577", "pat:_;__:1048577"])
def test_stream_horizon_over_its_budget_stops_before_allocating(spec, capsys):
    # the horizon was an allocation: a large one exhausted memory
    code = cli.main(["words", "reduce", "--alphabet", "ab", "--seq", "(a)", "--stream", spec])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_BUDGET, "")
    assert captured.err == f"error: stream {spec} has horizon 1048577, over its budget of 1048576 words\n"
    # a horizon at the budget is still read
    code, rep = run_json(["words", "reduce", "--alphabet", "ab", "--seq", "(a)", "--stream", "e:1048576"], capsys)
    assert code == cli.EXIT_FOUND and rep["reduced"] == "(a)"


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
def test_jobs_import_only_their_layers(name, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE))
    argv, layers = LAYER_JOBS[name]
    loaded = _loaded_modules("import sys\nfrom schramsey import cli\ncli.main(sys.argv[1:])",
                             *[a.format(tree=path) for a in argv])
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
# files by name: families, configs, and files that are not one
FILES = {
    "@tree": json.dumps(TREE),
    "@var": json.dumps({"alphabet": ["a", "b"], "side": "variable", "members": [[], ["_"], ["_", "a_"]]}),
    "@empty": "",
    "@deep": "[" * 100_000 + "]" * 100_000,
    "@shape": json.dumps([["a"]]),
    "@config": json.dumps({"max_n": 4, "letters": 3}),
    "@config-key": json.dumps({"threads": 2}),
}
FAMILY = _mostly(st.sampled_from(["@tree", "@var"]), st.sampled_from(["@empty", "@deep", "@shape", "@missing"]))
CONFIG = _mostly(st.just("@config"), st.sampled_from(["@config-key", "@deep", "@empty", "@shape", "@missing"]))


SWITCH = st.just(None)  # a flag that takes no value

# the values drawn for each flag, by subcommand (None: the top level): one
# entry per flag row of the option table, so that no option skips the fuzz
FLAGS = {
    None: {"--config": CONFIG, "--format": st.sampled_from(["json", "plain", "csv"]),
           "--rule": st.sampled_from(["fixed", "succ"])},
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


def _command(module, actions, required=()):
    return st.tuples(st.sampled_from(actions), _flags(required, **FLAGS[module])).map(
        lambda t: [module, t[0], *t[1]])


COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["eval", "classify", "fixed-seq"]), XI, _flags(**FLAGS["ordinal"]))
    .map(lambda t: ["ordinal", t[0], t[1], *t[2]]),
    _command("schreier", ["mem", "decompose", "enumerate", "transfer"], ["--xi"]),
    _command("words", ["reduce", "d", "reductions"], ["--alphabet", "--seq"]),
    _command("wxi", ["member", "decompose", "enumerate"], ["--xi", "--alphabet"]),
    _command("family", ["close", "kernel", "thin", "tree", "dichotomy"], ["--file"]),
    _flags(["--family"], **FLAGS["cbindex"]).map(lambda flags: ["cbindex", *flags]),
    _command("verify", ["ramsey", "pair-sweep", "carlson", "hj", "subspace", "nw"]),
)
# defaults past the small bounds above; a flag the command draws comes later and wins
SMALL_DEFAULTS = {"verify": ["--stream", "e:4", "--letters", "4", "--mmax", "2"],
                  "cbindex": ["--stream", "e:6", "--budget", "3"]}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / f"{name[1:]}.json").write_text(text)
    return root


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command=COMMANDS, top=_flags(**FLAGS[None]))
def test_argv_fuzz_never_crashes(fuzz_dir, command, top):
    # every argv gets an answer, a usage error or a budget stop: exit 4 or a
    # traceback fails, and an error is one stderr line with nothing on stdout
    module, *rest = command
    argv = [*top, module, *SMALL_DEFAULTS.get(module, []), *rest]
    argv = [str(fuzz_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    code, out, err = _run_quiet(argv)
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
    code, out, err = _run_quiet(shlex.split(line)[1:])
    assert code in (cli.EXIT_FOUND, cli.EXIT_EXHAUSTED), err
    assert json.loads(out)["schema_version"] == 1
