"""Golden battery: byte-identical CLI output for a fixed set of jobs.

Each job runs in process through `cli.main`; the exit code and the
sha256 of stdout and of stderr are pinned.  A refactor that keeps every
pin keeps every report byte for byte.  To print the current values (for
example after a deliberate change of a report), run

    PYTHONPATH=src python tests/test_golden.py

It first prints, as comments, each job whose pin moved with its new
output, so a re-pin can be reviewed report by report.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys

import pytest

from schramsey import cli, wxi

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

JOBS = {
    "words-reduce": ["words", "reduce", "--alphabet", "ab", "--seq", "(a_,b)", "--stream", "pat:_;a_:6"],
    "words-reduce-plain": ["--format", "plain", "words", "reduce", "--alphabet", "abc", "--seq", "(_c,ab)",
                           "--stream", "pat:a_,_b;__:8"],
    "words-reduce-list": ["words", "reduce", "--alphabet", "ab", "--seq", "(b,a_)", "--stream", "list:a_,_b,__"],
    "words-d": ["words", "d", "--alphabet", "abc", "--seq", "(ab,_c,a)"],
    "words-d-csv": ["--format", "csv", "words", "d", "--alphabet", "ab", "--seq", "(ab,ba,aab)"],
    "words-reductions": ["words", "reductions", "--alphabet", "ab", "--seq", "(_,a_,_)"],
    "words-reductions-csv": ["--format", "csv", "words", "reductions", "--alphabet", "ab", "--seq", "(_b,_)"],
    "words-reductions-plain": ["--format", "plain", "words", "reductions", "--alphabet", "abc", "--seq", "(_,_)"],
    "wxi-member": ["wxi", "member", "--xi", "w", "--alphabet", "ab", "--side", "c", "--seq", "(ab,a,b)"],
    "wxi-member-base": ["wxi", "member", "--xi", "1", "--alphabet", "ab", "--side", "v", "--seq", "(a_,_b__)",
                        "--base", "pat:a_;_b,__:8"],
    "wxi-member-base-c": ["wxi", "member", "--xi", "2", "--alphabet", "ab", "--side", "c", "--seq", "(ab,ba,aab)",
                          "--base", "e:12"],
    "wxi-member-base-side": ["wxi", "member", "--xi", "1", "--alphabet", "ab", "--side", "c", "--seq", "(a_,b)",
                             "--base", "e:8"],
    "wxi-decompose-c": ["wxi", "decompose", "--xi", "w", "--alphabet", "ab", "--side", "c",
                        "--seq", "(a,b,ab,a,b,a,b)"],
    "wxi-decompose-v": ["wxi", "decompose", "--xi", "2", "--alphabet", "ab", "--side", "v",
                        "--seq", "(_,a_,_,_b,_)"],
    "wxi-enumerate-c": ["wxi", "enumerate", "--xi", "1", "--alphabet", "ab", "--side", "c", "--letters", "5"],
    "wxi-enumerate-v": ["--rule", "succ", "wxi", "enumerate", "--xi", "w", "--alphabet", "ab", "--side", "v",
                        "--letters", "5"],
    "wxi-enumerate-0": ["wxi", "enumerate", "--xi", "0", "--alphabet", "abc", "--side", "v", "--letters", "3"],
    "family-close-star": ["family", "close", "--file", "{fam_c}"],
    "family-close-c": ["family", "close", "--file", "{fam_c}", "--closure", "hereditary"],
    "family-close-v": ["family", "close", "--file", "{fam_v}", "--closure", "hereditary"],
    "family-kernel-c": ["family", "kernel", "--file", "{fam_c}"],
    "family-kernel-v": ["family", "kernel", "--file", "{fam_v}"],
    "family-thin": ["family", "thin", "--file", "{fam_x}"],
    "family-tree": ["family", "tree", "--file", "{fam_v}"],
    "family-dichotomy-c": ["family", "dichotomy", "--file", "{fam_c}", "--xi", "1", "--stream", "e:4",
                           "--letters", "3"],
    "family-dichotomy-v": ["family", "dichotomy", "--file", "{fam_v}", "--xi", "w", "--stream", "pat:_;__:4",
                           "--letters", "4"],
    "cbindex-horizon": ["cbindex", "--family", "len:2", "--stream", "e:16", "--oracle", "horizon:4"],
    "cbindex-horizon-v": ["cbindex", "--family", "len:2", "--side-full", "variable", "--stream", "pat:_;a_:20",
                          "--oracle", "horizon:4", "--levels", "3"],
    "cbindex-undecided": ["cbindex", "--family", "len:2", "--stream", "e:4", "--oracle", "horizon:4"],
    "cbindex-exact": ["cbindex", "--family", "len:3", "--alphabet", "abc", "--stream", "e:40",
                      "--oracle", "exact:length"],
    "cbindex-explicit": ["cbindex", "--family", "{fam_c}", "--stream", "e:12", "--oracle", "exact:length",
                         "--levels", "3"],
    "cbindex-explicit-horizon": ["cbindex", "--family", "{fam_c}", "--stream", "e:12", "--oracle", "horizon:3"],
    "verify-carlson": ["verify", "carlson", "--xi", "1", "--chi1", "first_letter:2", "--chi2", "first_len_mod:2",
                       "--stream", "e:10", "--depth", "3"],
    "verify-carlson-0": ["verify", "carlson", "--xi", "0", "--chi1", "total_len_mod:2", "--chi2", "const:1",
                         "--stream", "pat:_;a_:8", "--depth", "2"],
    "verify-subspace": ["verify", "subspace", "--xi", "1", "--chi", "set_size_mod:2", "--stream", "e:7",
                        "--depth", "2"],
    "verify-hj": ["verify", "hj", "--r", "2", "--n", "1", "--k", "2", "--xi", "1", "--mmax", "3"],
    "verify-hj-0": ["verify", "hj", "--r", "2", "--n", "1", "--k", "2", "--xi", "0", "--mmax", "3"],
    "verify-nw-wide": ["verify", "nw", "--fixture", "wide", "--alphabet", "ab", "--letters", "6"],
    "verify-nw-narrow": ["verify", "nw", "--fixture", "narrow", "--alphabet", "ab", "--letters", "6"],
    "verify-ramsey": ["verify", "ramsey", "--xi", "2", "--max-n", "8", "--coloring", "min_mod:2", "--target", "4"],
    "verify-ramsey-none": ["verify", "ramsey", "--xi", "2", "--max-n", "7", "--coloring", "min_mod:2",
                           "--target", "6"],
    "error-letter": ["words", "d", "--alphabet", "ab", "--seq", "(ac)"],
    "error-horizon": ["words", "reduce", "--alphabet", "ab", "--seq", "(ab,ab)", "--stream", "e:3"],
    "error-mismatch": ["wxi", "member", "--xi", "1", "--alphabet", "ab", "--side", "c", "--seq", "(bb,a)",
                       "--base", "pat:a_;_:6"],
    "error-alphabet": ["words", "d", "--alphabet", "aa", "--seq", "(a)"],
    "error-constant-word": ["words", "reductions", "--alphabet", "ab", "--seq", "(a,_)"],
    "error-letter-budget": ["wxi", "enumerate", "--xi", "1", "--alphabet", "ab", "--letters", "17"],
    "error-stream": ["cbindex", "--family", "len:1", "--stream", "q:3"],
    "schreier-enumerate": ["schreier", "enumerate", "--xi", "w^w", "--max-n", "10"],
    "schreier-enumerate-succ": ["--rule", "succ", "schreier", "enumerate", "--xi", "w*2+1", "--max-n", "9"],
    "schreier-enumerate-plain": ["--format", "plain", "schreier", "enumerate", "--xi", "w^2", "--max-n", "8"],
    "schreier-enumerate-plain-succ": ["--format", "plain", "--rule", "succ", "schreier", "enumerate",
                                      "--xi", "w^w", "--max-n", "8"],
    "schreier-enumerate-csv": ["--format", "csv", "schreier", "enumerate", "--xi", "0", "--max-n", "3"],
    "schreier-enumerate-csv-succ": ["--format", "csv", "--rule", "succ", "schreier", "enumerate", "--xi", "w+2",
                                    "--max-n", "6"],
    "schreier-mem": ["schreier", "mem", "--xi", "w^2", "--set", "{{2,3,4,5,6,7}}"],
    "schreier-mem-no": ["--rule", "succ", "schreier", "mem", "--xi", "w^2", "--set", "{{2,3,4,5,6}}"],
    "schreier-decompose": ["schreier", "decompose", "--xi", "w*2", "--stream", "{{2,3,5,7,8,9,10,11,12}}"],
    "schreier-transfer": ["schreier", "transfer", "--xi", "w^(w^2)", "-n", "3"],
    "schreier-transfer-succ": ["--rule", "succ", "schreier", "transfer", "--xi", "w^(w*2)+w", "-n", "3"],
    "ordinal-classify": ["ordinal", "classify", "w^2+3"],
    "ordinal-classify-limit": ["ordinal", "classify", "w^w*2+w"],
    "ordinal-fixed-seq": ["ordinal", "fixed-seq", "w^(w+1)", "-n", "3"],
    "ordinal-fixed-seq-succ": ["ordinal", "fixed-seq", "w^w", "-n", "3", "--succ"],
}

# sha256 of empty output
NONE = hashlib.sha256(b"").hexdigest()

EXPECTED = {
    "cbindex-exact": (0, "4d47674b30669ae4a939ec52432c4feeb2dbeb3958c0a3841e884dfab77c62d2", NONE),
    "cbindex-explicit": (0, "362f72741784f1e28c5f80dbda092c7cbe52fe019baee41541017350d329a248", NONE),
    "cbindex-explicit-horizon": (0, "c99c7362141438aac19db32864eb736e352ca6cbc7447188a49db07b9c8f21c6", NONE),
    "cbindex-horizon": (0, "5d03b28e82d2e516f0b5c074823e2738e055f8cdd5357f4abd0f0aca1105cec3", NONE),
    "cbindex-horizon-v": (0, "bb6834e5d85cbbf4c83a009b6ed9a5661f44040dc7f2236c77ece05f4427d0f8", NONE),
    "cbindex-undecided": (3, NONE, "2624b312e32d2d00ee5351dc045b43de6e0c6dcd5d8be87604e44ae801b1a6c6"),
    "error-alphabet": (2, NONE, "7e9b3c6b712287aa225096e3a8f71dcddbafa0b531695153238fc72fbc641422"),
    "error-constant-word": (2, NONE, "c9b9bfbc16562a501a2aeb09c2aaf292714f93276c6bff806210da3d8774acd7"),
    "error-horizon": (2, NONE, "a6808ab841eac529eb5e02c2bee5e1f1498eb0829d12b7e70584c401a06e0f2b"),
    "error-letter": (2, NONE, "d7891e2adb69d12b3fd5552c031ea8dde8c2fe4e7655e33c7a827c4b589b4b8e"),
    "error-letter-budget": (3, NONE, "011b364f8e14245857e1cc32c3ac5d1f3babc15feccf7cfcb8e8dafbbad0b3aa"),
    "error-mismatch": (1, "54e77857c3b8373b2c4fc8854bc2b68d6b72297db2546aa8ac0fac0c6651b2a3", NONE),
    "error-stream": (2, NONE, "bf126b75093e76bdcdba027ae2060f8984e1bb3cc1dbddc25ed26537cc266f7d"),
    "family-close-c": (0, "fd99acd9e98d0365641f31d62751d0b3ed17ae0e305ae045be75007d87580ab6", NONE),
    "family-close-star": (0, "f6287b0f40d6b832f5ca3c82e88cebeadbc678a0aba2257ce85213d9fe936267", NONE),
    "family-close-v": (0, "c305e0fabedc3c1cc6376b94b097b1d54e8a0cef7d33b71ac6de8b7a705107f6", NONE),
    "family-dichotomy-c": (0, "e4e7ecc32838b7b9735c198a7d8ecb9fa09fe9c01c907e178d28ca5419ef5a38", NONE),
    "family-dichotomy-v": (0, "ee4dfdcab5226b6c44ba86f114b3810b241cf93c8c057f2d31a6c24b9d8639b5", NONE),
    "family-kernel-c": (0, "79e75874607515aa1de41ae86572cbb45c9cc06636acfa19c34038a7621addec", NONE),
    "family-kernel-v": (0, "29d01c872850734a8faea6088427196f714a0215645871e543272122d126377c", NONE),
    "family-thin": (1, "fa9a267df2800f67b343590e4b0acf1aeafada636dde6634413fca75017f6b25", NONE),
    "family-tree": (0, "2d4b050be5ee0cc7f14e5e85b9f4a845295ba76f10c260ee9fb866cfbef4edbd", NONE),
    "verify-carlson": (0, "3ad6ce4d9ee090578a52c0fab56c3b5b2d23c1552f73c161d25fec21c74ecb02", NONE),
    "verify-carlson-0": (0, "ce2903194c99ab5b9ef7238d6315103aaef6225222a945cd332dbcddbc96179a", NONE),
    "verify-hj": (1, "a5144edb9396318f7e0ca3d86f8ed8a3dc64705cd0198126e6a0c765a9ed4876", NONE),
    "verify-hj-0": (0, "f09c47272d6462c729eeac7657638005dd4db6f8fc0a9a20f4292dd40f3a2a81", NONE),
    "verify-nw-narrow": (0, "79cf815b4b95898de8fda699e9d46c6ec9c690e13069e470e9ac4bb40541bcc1", NONE),
    "verify-nw-wide": (0, "05afd37eb12eaa0b256e69d084147b2f8d259ebf65418f521313668d36f7b08a", NONE),
    "verify-ramsey": (0, "880223417494f7bd3394191ff5d85800554fbc57fa8adaf7d13cd8ea9810f41b", NONE),
    "verify-ramsey-none": (1, "b76bda7dfcb4369b23dc1735e2e830bed5dc11f8b54685bfae4420e91df9dc14", NONE),
    "verify-subspace": (0, "661f8f9cafbdc7c6a6f491f1d827a83d580097f98a6cb28fd32f693da58b5a34", NONE),
    "words-d": (0, "6ec87a9a0c19859107a54d61658afc6495a69246c0e41c865d9547dd43b406e3", NONE),
    "words-d-csv": (0, "cb0f6672b8b150f969b3571b64b03a64918872ca74df7d9165a7ff336b4627c0", NONE),
    "words-reduce": (0, "97e3116b707b13900f0182404187cb8125016ec08b283a7bf1bf5a324f577073", NONE),
    "words-reduce-list": (0, "c16b082297d1c42a1c1123f83f4a0964bd8c29f17bf196a07d532ee7a3330d5e", NONE),
    "words-reduce-plain": (0, "f05e62f4a49d1a4803b164200e584a3dad24a2b6166a34f4ac7a01d8a7f8bddb", NONE),
    "words-reductions": (0, "b3955b881737074b0752d8d74c81c9b6a1238197a6dd45e1aab1e939681ccf47", NONE),
    "words-reductions-csv": (0, "17860847456ee2c9fe59c78c58b401ae572c56c32069239a0912ed28bce9ec2d", NONE),
    "words-reductions-plain": (0, "f8227cde6e63a09d256df391a0665ad59f49dc6728dc7b8f80b64f5f5506a174", NONE),
    "wxi-decompose-c": (0, "3dca305adaff64337e4b06a73e146c2708c54ce2d7810e80c62f43c6338ad733", NONE),
    "wxi-decompose-v": (0, "875186633ddc55b1f9483fe36eb5845bb9c48cc6d067af9f14c72d9295d76b40", NONE),
    "wxi-enumerate-0": (0, "7a219e9bb38d20f80146a96987c2ef597333bd3cde2aad1bb0b34d2eb83d9503", NONE),
    "wxi-enumerate-c": (0, "c9c00403fffdd1875f7b864a0a71991dc232e055ddf3337d650af1140c1cd568", NONE),
    "wxi-enumerate-v": (0, "96d76da59a608cb3a92e986488b9a572317bf6e3f57ea8ac929140e3af42d9fe", NONE),
    "wxi-member": (1, "3a3622ce93f10b6afb12b82bf6b111d0c2042367f980c6a1dfc219a8af4d693f", NONE),
    "wxi-member-base": (0, "e511d10268aa4586d9e847178eaf4a225eff198ee62213b07f0230c62ea00341", NONE),
    "wxi-member-base-c": (0, "a6054c29d83ffc1617d49a7385c8e8afad91d78b945f9cce527ed02e26dac4c4", NONE),
    "wxi-member-base-side": (1, "155d3439bddc05324948ad4463a0706576a3c19dc60d847efaeea024d5f46f0e", NONE),
    "ordinal-classify": (0, "33ec608cf4531938310c73e223666381f2c1da70788bb64f1ee1db0f0cef0e18", NONE),
    "ordinal-classify-limit": (0, "629db922b04db7269b100c87fdb01fb92042cbf54d4c66e6cbbc357ef203a7ad", NONE),
    "ordinal-fixed-seq": (0, "722a573fd6f07fd63af0bd976906c9acf802252761db702e241ac21ea6dcd427", NONE),
    "ordinal-fixed-seq-succ": (0, "8ec6e735dad2383b9ab4cb7cff745f369dfc32127b49096662c431b39e3e0ef0", NONE),
    "schreier-decompose": (0, "1495a21d36ae84b4bcadb9c3192e5f28b87deb3cc07f2e185220812c72c2c1e2", NONE),
    "schreier-enumerate": (0, "c326eae48af31149efd8af51babe972094c034fed067febfc3c0b02034f2c120", NONE),
    "schreier-enumerate-csv": (0, "7dd8d5572b93ec1b512e1f80e35d173bdbd2fc8140b43a19e3aad969cbbc9092", NONE),
    "schreier-enumerate-csv-succ": (0, "f62b5ea28089671f3623720a0775c0d18babfd53a2ca9cdb076fd767b1b92446", NONE),
    "schreier-enumerate-plain": (0, "44368a2da99487bfb4d1319495dae414e4e9df9b94b9414f346e2cc6c037c613", NONE),
    "schreier-enumerate-plain-succ": (0, "b57e7c5426cf246e4062e6d68a125daa1c22a529138da355bfc6d16e3c09632f", NONE),
    "schreier-enumerate-succ": (0, "e573107d536eb2e9b1c59a49acb8f4447df3220005be621e24dff020f38497b0", NONE),
    "schreier-mem": (0, "ca73f9290a26dcb3248e552750199f94447d619f8df1ed7e52e4f5d5be609811", NONE),
    "schreier-mem-no": (1, "ede7c5c7c7ffac8e1fe0c45b5425f36d2c5da3a51b64beb455816e7fe76dfacd", NONE),
    "schreier-transfer": (0, "0c8be55b151111b781055a4e75b2112ee6d9cb03d4596a7564a3727bef5be05b", NONE),
    "schreier-transfer-succ": (0, "035b5c22d445cfe97af694a4407d440e9ec8b45efec892dbf5ccddd9120910a3", NONE),
}


def capture(argv, paths):
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(argv, paths):
    code, out, err = capture(argv, paths)
    return code, digest(out), digest(err)


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
    assert run_job(JOBS[name], family_paths) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(n for n in JOBS if "csv" in JOBS[n]))
def test_csv_jobs_read_back_as_one_header_and_one_row(name, family_paths):
    code, out, _ = capture(JOBS[name], family_paths)
    header, row = csv.reader(io.StringIO(out))
    assert code == 0 and len(header) == len(row)


@pytest.mark.parametrize("name", sorted(n for n in JOBS if "--base" in JOBS[n]))
def test_member_base_matches_the_sequence_once(name, family_paths, monkeypatch):
    calls = []
    match = wxi.match_reduction
    monkeypatch.setattr(wxi, "match_reduction", lambda *args: calls.append(args) or match(*args))
    assert run_job(JOBS[name], family_paths) == EXPECTED[name]
    assert len(calls) == 1


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_families(pathlib.Path(tmp))
        runs = {name: capture(JOBS[name], paths) for name in sorted(JOBS)}
    pins = {name: (code, digest(out), digest(err)) for name, (code, out, err) in runs.items()}
    for name, (code, out, err) in runs.items():
        if pins[name] != EXPECTED.get(name):
            sys.stdout.write(f"# {name} moved: exit {code}\n")
            for line in (out + err).splitlines():
                sys.stdout.write(f"#   {line}\n")
    quote = lambda h: "NONE" if h == NONE else f'"{h}"'
    for name, (code, out, err) in pins.items():
        sys.stdout.write(f'    "{name}": ({code}, {quote(out)}, {quote(err)}),\n')
