"""Golden battery: byte-identical CLI output for a fixed set of jobs.

Each job is one entry of JOBS: its argv and its exit code.  Its expected
stdout is the file `tests/golden/<job>.out` and its expected stderr the
file `tests/golden/<job>.err`; a missing file is empty output.  Each job
runs in process through `run_cli`, and must give the exit code of its
entry and the bytes of its files.  A refactor that keeps every file keeps
every report byte for byte.

After a deliberate change of a report, run

    PYTHONPATH=src python tests/test_golden.py

It rewrites the golden files from the current code and prints each job
whose exit code no longer matches JOBS.  Then review each moved report in
`git diff tests/golden`.
"""

import json
import pathlib
import sys

import pytest

from schramsey import cli, wxi

from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

FAMILIES = {
    # a constant-side tree
    "fam_c": {
        "alphabet": ["a", "b"],
        "side": "constant",
        "members": [[], ["a"], ["b"], ["ab"], ["a", "b"], ["ab", "a"], ["a", "b", "a"]],
    },
    # a variable-side tree
    "fam_v": {
        "alphabet": ["a", "b"],
        "side": "variable",
        "members": [[], ["_"], ["a_"], ["__"], ["_", "_"], ["_", "b_"], ["_", "_", "_"]],
    },
    # neither thin nor a tree
    "fam_x": {"alphabet": ["a", "b"], "side": "constant", "members": [["a"], ["a", "b"]]},
}

# Each job: its argv (split on whitespace, then formatted with the paths of
# FAMILIES, so a literal brace is doubled) and its exit code.
# A `-plain` or `-csv` suffix is only a name: those jobs first pinned the
# report formats that are gone, and now pin the JSON report like the rest.
JOBS = {
    "words-reduce": ("words reduce --alphabet ab --seq (a_,b) --stream pat:_;a_:6", 0),
    "words-reduce-plain": ("words reduce --alphabet abc --seq (_c,ab) --stream pat:a_,_b;__:8", 0),
    "words-reduce-list": ("words reduce --alphabet ab --seq (b,a_) --stream list:a_,_b,__", 0),
    "words-d": ("words d --alphabet abc --seq (ab,_c,a)", 0),
    "words-d-csv": ("words d --alphabet ab --seq (ab,ba,aab)", 0),
    "words-reductions": ("words reductions --alphabet ab --seq (_,a_,_)", 0),
    "words-reductions-csv": ("words reductions --alphabet ab --seq (_b,_)", 0),
    "words-reductions-plain": ("words reductions --alphabet abc --seq (_,_)", 0),
    "wxi-member": ("wxi member --xi w --alphabet ab --side c --seq (ab,a,b)", 1),
    "wxi-member-base": ("wxi member --xi 1 --alphabet ab --side v --seq (a_,_b__) --base pat:a_;_b,__:8", 0),
    "wxi-member-base-c": ("wxi member --xi 2 --alphabet ab --side c --seq (ab,ba,aab) --base e:12", 0),
    "wxi-member-base-side": ("wxi member --xi 1 --alphabet ab --side c --seq (a_,b) --base e:8", 1),
    "wxi-decompose-c": ("wxi decompose --xi w --alphabet ab --side c --seq (a,b,ab,a,b,a,b)", 0),
    "wxi-decompose-v": ("wxi decompose --xi 2 --alphabet ab --side v --seq (_,a_,_,_b,_)", 0),
    "wxi-enumerate-c": ("wxi enumerate --xi 1 --alphabet ab --side c --letters 5", 0),
    "wxi-enumerate-v": ("--rule succ wxi enumerate --xi w --alphabet ab --side v --letters 5", 0),
    "wxi-enumerate-0": ("wxi enumerate --xi 0 --alphabet abc --side v --letters 3", 0),
    "wxi-enumerate-w": ("wxi enumerate --xi w --alphabet ab --side c --letters 5", 0),
    "family-close-star": ("family close --file {fam_c}", 0),
    "family-close-c": ("family close --file {fam_c} --closure hereditary", 0),
    "family-close-v": ("family close --file {fam_v} --closure hereditary", 0),
    "family-kernel-c": ("family kernel --file {fam_c}", 0),
    "family-kernel-v": ("family kernel --file {fam_v}", 0),
    "family-thin": ("family thin --file {fam_x}", 1),
    "family-tree": ("family tree --file {fam_v}", 0),
    "family-dichotomy-c": ("family dichotomy --file {fam_c} --xi 1 --stream e:4 --letters 3", 0),
    "family-dichotomy-v": ("family dichotomy --file {fam_v} --xi w --stream pat:_;__:4 --letters 4", 0),
    "cbindex-horizon": ("cbindex --family len:2 --stream e:16 --oracle horizon:4", 0),
    "cbindex-horizon-e40": ("cbindex --family len:2 --stream e:40 --oracle horizon:4", 0),
    "cbindex-horizon-v":
        ("cbindex --family len:2 --side-full variable --stream pat:_;a_:20 --oracle horizon:4 --levels 3", 0),
    "cbindex-undecided": ("cbindex --family len:2 --stream e:4 --oracle horizon:4", 3),
    "cbindex-exact": ("cbindex --family len:3 --alphabet abc --stream e:40 --oracle exact:length", 0),
    "cbindex-explicit": ("cbindex --family {fam_c} --stream e:12 --oracle exact:length --levels 3", 0),
    "cbindex-explicit-horizon": ("cbindex --family {fam_c} --stream e:12 --oracle horizon:3", 0),
    "verify-carlson": ("verify carlson --xi 1 --chi1 first_letter:2 --chi2 first_len_mod:2 --stream e:10 --depth 3", 0),
    "verify-carlson-0":
        ("verify carlson --xi 0 --chi1 total_len_mod:2 --chi2 const:1 --stream pat:_;a_:8 --depth 2", 0),
    "verify-subspace": ("verify subspace --xi 1 --chi set_size_mod:2 --stream e:7 --depth 2", 0),
    "verify-hj": ("verify hj --r 2 --n 1 --k 2 --xi 1 --mmax 3", 1),
    "verify-hj-0": ("verify hj --r 2 --n 1 --k 2 --xi 0 --mmax 3", 0),
    "verify-hj-0-m4": ("verify hj --r 2 --n 1 --k 2 --xi 0 --mmax 4", 0),
    "verify-nw-wide": ("verify nw --fixture wide --alphabet ab --letters 6", 0),
    "verify-nw-narrow": ("verify nw --fixture narrow --alphabet ab --letters 6", 0),
    "verify-ramsey": ("verify ramsey --xi 2 --max-n 8 --coloring min_mod:2 --target 4", 0),
    "verify-ramsey-none": ("verify ramsey --xi 2 --max-n 7 --coloring min_mod:2 --target 6", 1),
    "verify-ramsey-3": ("verify ramsey --xi 2 --max-n 6 --coloring min_mod:2 --target 3", 0),
    "verify-pair-sweep-5": ("verify pair-sweep --max-n 5", 1),
    "verify-pair-sweep-6": ("verify pair-sweep --max-n 6", 0),
    "error-letter": ("words d --alphabet ab --seq (ac)", 2),
    "error-horizon": ("words reduce --alphabet ab --seq (ab,ab) --stream e:3", 2),
    "error-mismatch": ("wxi member --xi 1 --alphabet ab --side c --seq (bb,a) --base pat:a_;_:6", 1),
    "error-alphabet": ("words d --alphabet aa --seq (a)", 2),
    "error-constant-word": ("words reductions --alphabet ab --seq (a,_)", 2),
    "error-letter-budget": ("wxi enumerate --xi 1 --alphabet ab --letters 17", 3),
    "error-stream": ("cbindex --family len:1 --stream q:3", 2),
    "schreier-enumerate": ("schreier enumerate --xi w^w --max-n 10", 0),
    "schreier-enumerate-succ": ("--rule succ schreier enumerate --xi w*2+1 --max-n 9", 0),
    "schreier-enumerate-w2": ("schreier enumerate --xi w^2 --max-n 8", 0),
    "schreier-enumerate-plain-succ": ("--rule succ schreier enumerate --xi w^w --max-n 8", 0),
    "schreier-enumerate-csv": ("schreier enumerate --xi 0 --max-n 3", 0),
    "schreier-enumerate-csv-succ": ("--rule succ schreier enumerate --xi w+2 --max-n 6", 0),
    "schreier-mem": ("schreier mem --xi w^2 --set {{2,3,4,5,6,7}}", 0),
    "schreier-mem-no": ("--rule succ schreier mem --xi w^2 --set {{2,3,4,5,6}}", 1),
    "schreier-decompose": ("schreier decompose --xi w*2 --stream {{2,3,5,7,8,9,10,11,12}}", 0),
    "schreier-transfer": ("schreier transfer --xi w^(w^2) -n 3", 0),
    "schreier-transfer-succ": ("--rule succ schreier transfer --xi w^(w*2)+w -n 3", 0),
    "schreier-transfer-tower": ("schreier transfer --xi w^1500 -n 2", 0),
    "schreier-transfer-limit-tower": ("schreier transfer --xi w^(w^w)*2+w^(w^2) -n 4", 0),
    "schreier-mem-room-cut": ("schreier mem --xi w^(w^(w^2)) --set {{3,4,5}}", 1),
    "ordinal-eval": ("ordinal classify w^(w+1)*2+w*3+1", 0),
    "ordinal-classify": ("ordinal classify w^2+3", 0),
    "ordinal-classify-limit": ("ordinal classify w^w*2+w", 0),
    "ordinal-fixed-seq": ("ordinal fixed-seq w^(w+1) -n 3", 0),
    "ordinal-fixed-seq-succ": ("ordinal fixed-seq w^w -n 3 --succ", 0),
}


def run_job(name, paths):
    return run_cli([a.format(**paths) for a in JOBS[name][0].split()])


def golden_files(name, directory=GOLDEN):
    return directory / f"{name}.out", directory / f"{name}.err"


def expected(name, directory=GOLDEN):
    """A job's exit code, stdout and stderr as pinned: its JOBS entry and
    the bytes of its golden files (read as bytes, so that no newline
    translation can hide a change)."""
    return JOBS[name][1], *(f.read_bytes().decode() if f.exists() else "" for f in golden_files(name, directory))


def write_families(directory):
    paths = {}
    for name, data in FAMILIES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def family_paths(tmp_path_factory):
    return write_families(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_job(name, family_paths):
    code, out, err = expected(name)
    run = run_job(name, family_paths)
    # one stream at a time, so that a mismatch prints pytest's diff of the moved bytes
    assert run.out == out
    assert run.err == err
    assert run.code == code


def test_every_golden_file_belongs_to_a_job():
    # a renamed or deleted job leaves no stale file behind
    assert {f.name for f in GOLDEN.iterdir()} <= {f.name for name in JOBS for f in golden_files(name)}


def test_a_golden_file_is_compared_byte_for_byte(tmp_path, family_paths):
    out = golden_files("words-d", tmp_path)[0]
    out.write_bytes(golden_files("words-d")[0].read_bytes().replace(b"\n", b"\r\n", 1))
    # read as text, the edited copy would still match
    assert out.read_text() == golden_files("words-d")[0].read_text()
    assert run_job("words-d", family_paths) != expected("words-d", tmp_path)


# each subcommand and action of the option table, as a report's "command" names it
ACTIONS = {f"{module} {action}" for module, rows in cli.OPTIONS.items()
           for flag, kw in rows if flag == "action" for action in kw["choices"]}


def test_every_cli_action_has_a_golden_job():
    pairs = {" ".join(pair) for argv, _ in JOBS.values() for pair in zip(argv.split(), argv.split()[1:])}
    assert ACTIONS - pairs == set()


def test_answers_decide_every_golden_exit_code():
    # each key of cli.ANSWERS is an action, every golden report of a keyed
    # action holds its field, and a job exits 1 exactly when that field is
    # false or null; a job with no report is an error (exit 2 or 3)
    assert set(cli.ANSWERS) <= ACTIONS
    for name, (_, code) in JOBS.items():
        out = expected(name)[1]
        if not out:
            assert code in (2, 3), name
            continue
        report = json.loads(out)
        field = cli.ANSWERS.get(report["command"])
        if field is None:
            assert code == 0, name
        else:
            assert field in report, name
            assert code == (1 if report[field] is None or report[field] is False else 0), name


def test_every_golden_report_is_one_sorted_json_line():
    # stdout is empty or one JSON object, keys sorted, on one line
    for name in JOBS:
        out = expected(name)[1]
        if out:
            report = json.loads(out)
            assert type(report) is dict and out == json.dumps(report, sort_keys=True) + "\n", name


@pytest.mark.parametrize("name", sorted(n for n in JOBS if "--base" in JOBS[n][0].split()))
def test_member_base_matches_the_sequence_once(name, family_paths, monkeypatch):
    calls = []
    match = wxi.match_reduction
    monkeypatch.setattr(wxi, "match_reduction", lambda *args: calls.append(args) or match(*args))
    assert run_job(name, family_paths) == expected(name)
    assert len(calls) == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_families(pathlib.Path(tmp))
        for name, (_, code) in JOBS.items():
            run = run_job(name, paths)
            for f, text in zip(golden_files(name), run[1:]):
                if text:
                    f.write_bytes(text.encode())
                else:
                    f.unlink(missing_ok=True)
            if run.code != code:
                sys.stdout.write(f"{name}: exit {run.code}, JOBS says {code}\n")
