import hashlib
import json
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import cli
from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey import verify as v
from schramsey import words
from schramsey.words import Alphabet, reductions, upsilon_stream, word

from reference import (
    all_small_var_seqs,
    definitional_substar,
    scratch_carlson,
    scratch_subspace,
    sweep_ramsey,
)
from test_cli import run_cli

P = o.parse
AB = Alphabet(("a", "b"))


def w(text):
    return word(text, AB)


# --- independent membership checker ---------------------------------------


def test_mem_direct_examples():
    assert v.mem_direct(o.ZERO, ())
    assert v.mem_direct(o.from_int(1), (7,))
    assert v.mem_direct(o.OMEGA, (3, 5, 9))
    assert not v.mem_direct(o.OMEGA, (2, 3, 4))
    assert v.mem_direct(P("w*2"), (2, 4, 5, 6, 7, 8, 9))


def test_mem_direct_matches_greedy_everywhere_small():
    for xs in ["1", "2", "w", "w+1", "w*2", "w^2", "w^3+w*2", "w^w+w^2", "w^(w+1)"]:
        xi = P(xs)
        for r in range(0, 8):
            for s in combinations(range(1, 9), r):
                assert v.mem_direct(xi, s) == sch.mem(xi, s), (xs, s)


# --- colorings -------------------------------------------------------------


def test_coloring_serialization_roundtrip():
    col = v.Coloring("finsets", 3, "min_mod")
    assert v.Coloring.from_json(col.to_json()) == col
    col2 = v.Coloring("wordseqs", 2, "first_letter", (("a", "b"),))
    assert v.Coloring.from_json(col2.to_json()) == col2


def test_named_rules():
    assert v.Coloring("finsets", 2, "min_mod")((3, 5)) == 2
    assert v.Coloring("finsets", 2, "size_mod")((3, 5)) == 1
    assert v.Coloring("wordseqs", 2, "total_len_mod")((w("ab"),)) == 1
    assert v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,))((w("b_"), w("a"))) == 2
    assert v.Coloring("wordset", 3, "min_len_mod")(frozenset({w("ab"), w("aba")})) == 3


# --- the backtracking core ---------------------------------------------------


@st.composite
def cut_trees(draw):
    """A depth <= 4 and a set of cut nodes of the ternary tree, each node
    the tuple of child indices that leads to it."""
    depth = draw(st.integers(0, 4))
    nodes = st.lists(st.integers(0, 2), min_size=1, max_size=max(depth, 1)).map(tuple)
    return depth, draw(st.sets(nodes, max_size=12)) if depth else set()


@settings(max_examples=300, deadline=None)
@given(cut_trees())
def test_backtrack_matches_a_listing_of_all_prefixes(tree):
    depth, cut = tree
    leaf, tried, cuts = v._backtrack((), lambda node: (None if node + (i,) in cut else node + (i,) for i in range(3)),
                                     depth)
    # tuple order lists a prefix before its extensions: a depth-first listing
    prefixes = sorted(p for size in range(depth + 1) for p in product(range(3), repeat=size))
    reached = [p for p in prefixes if not any(p[:j] in cut for j in range(1, len(p)))]
    leaves = [p for p in reached if len(p) == depth and p not in cut]
    assert leaf == (leaves[0] if leaves else None)
    seen = [p for p in reached if p and (leaf is None or p <= leaf)]
    assert tried == len(seen)
    # only the levels that have a cut are keyed
    assert cuts == {level: n for level in range(depth + 1)
                    if (n := sum(1 for p in seen if p in cut and len(p) == level))}


# --- ordinal Ramsey ---------------------------------------------------------


def test_ramsey_singletons_pigeonhole():
    col = v.Coloring("finsets", 2, "min_mod")
    out = v.ramsey_schreier_search(o.from_int(1), 5, col, 3)
    assert out.found
    L = out.witness.payload[0]
    assert len(L) == 3
    assert v.check_witness(out.witness)


def test_ramsey_constant_coloring_takes_everything():
    col = v.Coloring("finsets", 2, "const", (1,))
    out = v.ramsey_schreier_search(P("w"), 8, col, 8)
    assert out.found and out.witness.payload[0] == tuple(range(1, 9))
    assert v.check_witness(out.witness)


def test_ramsey_exhaustion_counts():
    # the pairs {1,2} and {2,3} of {1..5} take two colors under min_mod:2
    col = v.Coloring("finsets", 2, "min_mod")
    out = v.ramsey_schreier_search(o.from_int(2), 5, col, 5)
    assert not out.found
    assert out.visited == out.expected == 1


FINSET_COLORINGS = [
    v.Coloring("finsets", 2, "min_mod"),
    v.Coloring("finsets", 3, "min_mod"),
    v.Coloring("finsets", 2, "size_mod"),
    v.Coloring("finsets", 3, "size_mod"),
    v.Coloring("finsets", 2, "const", (1,)),
]


@pytest.mark.parametrize("rule", ["fixed", "succ"])
@pytest.mark.parametrize("xs", ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2"])
def test_ramsey_dfs_matches_sweep(rule, xs):
    xi = P(xs)
    for max_n in range(0, 12):
        for col in FINSET_COLORINGS:
            for target in range(0, max_n + 2):
                out = v.ramsey_schreier_search(xi, max_n, col, target)
                assert out.nodes is not None
                assert out._replace(nodes=None) == sweep_ramsey(xi, max_n, col, target, rule), (max_n, col, target)


@pytest.mark.parametrize("xs, max_n, nodes", [("3", 12, 250), ("2", 13, 169)])
def test_ramsey_dfs_nodes_on_exhausted_rows(xs, max_n, nodes):
    # the sweep decides every one of the 1586 and 4096 candidate sets
    out = v.ramsey_schreier_search(P(xs), max_n, v.Coloring("finsets", 3, "min_mod"), 7)
    assert not out.found and out.visited == out.expected == sum(comb(max_n, s) for s in range(7, max_n + 1))
    assert out.nodes == nodes


def test_ramsey_schreier_w_probe_answers_fast(capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "ramsey", "--xi", "w", "--max-n", "22", "--coloring", "size_mod:3", "--target", "6"])
    elapsed = time.perf_counter() - start
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["witness"]["payload"][0] == [1, 4, 5, 6, 7, 8]
    assert rep["witness_checked"] is True
    assert elapsed < 1.0


def test_ramsey_rejects_negative_target():
    with pytest.raises(ValueError):
        v.ramsey_schreier_search(P("1"), 5, FINSET_COLORINGS[0], -1)


def test_pentagon_coloring_defeats_independently():
    # direct construction: cycle edges one color, diagonals the other
    pairs = list(combinations(range(1, 6), 2))
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    mask = 0
    for i, p in enumerate(pairs):
        if p not in cycle:
            mask |= 1 << i
    for trip in combinations(range(1, 6), 3):
        bits = {(mask >> pairs.index(q)) & 1 for q in combinations(trip, 2)}
        assert bits == {0, 1}  # never monochromatic


# --- reduction-prefix search -------------------------------------------------


CONST1 = v.Coloring("wordseqs", 2, "const", (1,))


def test_carlson_constant_colorings():
    out = v.carlson_witness_search(P("1"), CONST1, CONST1, upsilon_stream(AB, 8), 2)
    assert out.found
    assert out.witness.payload[0] == ("_", "_")
    assert v.check_witness(out.witness)


def test_carlson_parity_coloring():
    chi1 = v.Coloring("wordseqs", 2, "first_len_mod")
    out = v.carlson_witness_search(P("1"), chi1, CONST1, upsilon_stream(AB, 10), 3)
    assert out.found
    assert v.check_witness(out.witness)
    # all first blocks of the witness's level-1 reductions share a parity
    parities = {c for side, t, c in out.witness.certificate if side == "c"}
    assert len(parities) <= 1


def test_carlson_first_letter_coloring_level0():
    chi1 = v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,))
    out = v.carlson_witness_search(P("0"), chi1, CONST1, upsilon_stream(AB, 8), 3)
    assert out.found
    assert v.check_witness(out.witness)


def test_carlson_depth_fixture():
    # single-word reductions of one block share a length, but two blocks
    # cannot agree modulo 3 when each block spans one or two words
    chi1 = v.Coloring("wordseqs", 3, "total_len_mod")
    shallow = v.carlson_witness_search(P("0"), chi1, CONST1, upsilon_stream(AB, 8), 1)
    assert shallow.found
    deep = v.carlson_witness_search(P("0"), chi1, CONST1, upsilon_stream(AB, 8), 2)
    assert not deep.found
    assert deep.visited == deep.expected  # full space accounted for


# one small found witness of each kind, and three ways to tamper with its
# certificate; a checker that collapses the certificate into a dict lets
# the duplicated entry through
WITNESSES = {
    "mono_set": lambda: v.ramsey_schreier_search(P("1"), 5, v.Coloring("finsets", 2, "const", (1,)), 3),
    "reduction_prefix": lambda: v.carlson_witness_search(P("1"), CONST1, CONST1, upsilon_stream(AB, 8), 2),
    "subspace_prefix": lambda: v.subspace_search(
        P("0"), v.Coloring("wordset", 2, "size_mod"), upsilon_stream(AB, 6), 2
    ),
    "hj_line": lambda: v.hj_line_search(v.Coloring("wordseqs", 2, "total_len_mod"), o.ZERO, AB, 2),
}
TAMPERINGS = {
    "drop": lambda wit: wit._replace(certificate=wit.certificate[:-1]),
    "recolor": lambda wit: wit._replace(
        certificate=(wit.certificate[0][:-1] + (wit.certificate[0][-1] % 2 + 1,),) + wit.certificate[1:]
    ),
    "duplicate": lambda wit: wit._replace(certificate=wit.certificate + wit.certificate[:1]),
    # a prefix search yields variable words only; a checker refuses a constant one
    "constant_word": lambda wit: wit._replace(payload=(("a",) + tuple(wit.payload[0][1:]),) + wit.payload[1:]),
}
TAMPER_CASES = [(kind, tamper) for kind in sorted(WITNESSES) for tamper in ("drop", "duplicate", "recolor")]
TAMPER_CASES += [("reduction_prefix", "constant_word"), ("subspace_prefix", "constant_word")]


@pytest.mark.parametrize("kind, tamper", TAMPER_CASES)
def test_carlson_certificate_rejects_tampering(kind, tamper):
    wit = WITNESSES[kind]().witness
    assert wit.kind == kind and v.check_witness(wit)
    assert not v.check_witness(TAMPERINGS[tamper](wit))


# no golden job emits an hj_line witness, so its report field is pinned here
HJ_LINE_FIELD = {
    "kind": "hj_line",
    "payload": [["a_"], "0", {"domain": "wordseqs", "colors": 2, "rule": "total_len_mod", "params": []}, ["a", "b"], 2],
    "certificate": [["(aa)", 1], ["(ab)", 1]],
    "bounds": [["M", 2], ["n", 1]],
}


# the witnesses of WITNESSES, and one whose payload holds a first_letter coloring
JSON_READY = {
    **WITNESSES,
    "reduction_prefix_first_letter": lambda: v.carlson_witness_search(
        P("1"), v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,)), CONST1, upsilon_stream(AB, 8), 2
    ),
}


@pytest.mark.parametrize("case", sorted(JSON_READY))
def test_witness_report_field_is_json_ready(case):
    # the CLI's witness field as json writes it: tuples as lists, a coloring as its to_json object
    field = json.loads(json.dumps(JSON_READY[case]().witness.to_json()))
    assert field["kind"] == case.removesuffix("_first_letter")
    if case == "hj_line":
        assert field == HJ_LINE_FIELD
    if case == "reduction_prefix_first_letter":
        assert field["payload"][2]["params"] == [["a", "b"]]


def test_first_letter_witness_params_read_back_as_lists():
    run = run_cli("verify carlson --xi 1 --chi1 first_letter:2 --stream e:8 --depth 2")
    witness = run.report["witness"]
    assert run.code == 0 and witness["kind"] == "reduction_prefix"
    assert witness["payload"][2] == {"domain": "wordseqs", "colors": 2, "rule": "first_letter", "params": [["a", "b"]]}


def test_subspace_search_trivial_and_checked():
    chi = v.Coloring("wordset", 2, "const", (1,))
    out = v.subspace_search(P("0"), chi, upsilon_stream(AB, 6), 2)
    assert out.found and v.check_witness(out.witness)
    chi2 = v.Coloring("wordset", 2, "size_mod")
    out2 = v.subspace_search(P("0"), chi2, upsilon_stream(AB, 6), 2)
    assert out2.found and v.check_witness(out2.witness)


# the bench's sequence colorings: const:1, first_len_mod:2, total_len_mod:2, first_letter:2
SEQ_COLORINGS = [
    v.Coloring("wordseqs", 2, "const", (1,)),
    v.Coloring("wordseqs", 2, "first_len_mod"),
    v.Coloring("wordseqs", 2, "total_len_mod"),
    v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,)),
]
SET_COLORINGS = [
    v.Coloring("wordset", 2, "size_mod"),
    v.Coloring("wordset", 3, "size_mod"),
    v.Coloring("wordset", 2, "min_len_mod"),
]


@pytest.mark.parametrize("rule", ["fixed", "succ"])
@pytest.mark.parametrize("xs", ["0", "1", "2", "w"])
def test_carlson_frontier_matches_scratch_search(rule, xs):
    for horizon in (10, 12):
        stream = upsilon_stream(AB, horizon)
        for chi1, chi2 in product(SEQ_COLORINGS, repeat=2):
            args = (P(xs), chi1, chi2, stream, 3)
            assert v.carlson_witness_search(*args) == scratch_carlson(*args, rule), (chi1, chi2, horizon)
        for chi in SET_COLORINGS:
            args = (P(xs), chi, stream, 3)
            assert v.subspace_search(*args) == scratch_subspace(*args, rule), (chi, horizon)


def test_carlson_one_kernel_call_per_candidate_and_side(monkeypatch, capsys):
    calls = []

    def counting(ws, alph, side):
        calls.append((ws, side))
        return reductions(ws, alph, side)

    monkeypatch.setattr(words, "reductions", counting)
    argv = "verify carlson --xi 2 --chi1 total_len_mod:2 --chi2 first_len_mod:2 --stream e:10 --depth 4"
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    # 89 distinct (prefix, side) pairs; the checker's rebuild lists the whole
    # prefix once per side (the from-scratch search made 344 calls)
    assert len(set(calls)) == 89 and len(calls) == 91
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fdb4902db1c9be429d2daf6b260e3eddc13afcacc7cf98d9984e5fe5bb3fe47"
    )


def test_subspace_search_walks_the_variable_side_only(monkeypatch, capsys):
    sides = []

    def counting(ws, alph, side):
        sides.append(side)
        return reductions(ws, alph, side)

    monkeypatch.setattr(words, "reductions", counting)
    argv = "verify subspace --xi 1 --chi size_mod:2 --stream e:10 --depth 3"
    assert cli.main(argv.split()) == 0
    assert json.loads(capsys.readouterr().out)["witness_checked"]
    # the search and the checker's rebuild, on no constant side at all
    assert sides and set(sides) == {"variable"}


# --- Hales-Jewett -----------------------------------------------------------


def test_hj_monotone_in_length():
    # once every coloring is coverable it stays coverable at larger sizes
    for M in (2, 3):
        ok, defeater, _count, _cube = v.hj_level(2, 1, 2, o.ZERO, M)
        assert ok and defeater is None


def test_hj_line_search_and_checker():
    col = v.Coloring("wordseqs", 2, "total_len_mod")
    out = v.hj_line_search(col, o.ZERO, AB, 2)
    assert out.found
    assert v.check_witness(out.witness)
    # the five generators whose first word starts with the variable change
    # their first letter along the line: the search skips them and answers
    first = v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,))
    out2 = v.hj_line_search(first, o.ZERO, AB, 3, n=2)
    assert out2.found and (out2.visited, out2.expected) == (6, 10)
    assert out2.witness.payload[0] == ("a_", "_")
    assert v.check_witness(out2.witness)


def test_hj_pair_generator_single_coloring():
    # level 1, two-word generators, one hand coloring at M = 4
    col = v.Coloring("wordseqs", 2, "first_len_mod")
    out = v.hj_line_search(col, P("1"), AB, 4, n=2)
    assert out.found
    gen = out.witness.payload[0]
    assert len(gen) == 2
    assert v.check_witness(out.witness)
    # every certified reduction really is a level-1 pair of total length 4
    for text, _c in out.witness.certificate:
        assert text.count(",") == 1


# --- dichotomy fixtures -------------------------------------------------------


def _raw_wide(shape):
    L = len(shape)
    return L >= 6 and L % 2 == 0 and shape[0] == (L - 4) // 2


def _raw_narrow(shape):
    L = len(shape)
    return L >= 2 and shape[0] == 2 * L - 3


def test_wide_law_matches_definitional_search():
    for t in all_small_var_seqs(AB, 5):
        assert v.wide_fixture_member(t) == definitional_substar(t, _raw_wide), list(t)


def test_narrow_law_matches_definitional_search():
    for t in all_small_var_seqs(AB, 5):
        assert v.narrow_fixture_member(t) == definitional_substar(t, _raw_narrow), list(t)


def test_nw_fixture_reports():
    rep = v.nw_fixture_check("wide", AB, 7)
    assert rep["consistent"] and rep["probed"] > 0
    rep2 = v.nw_fixture_check("narrow", AB, 7)
    assert rep2["consistent"] and rep2["probed"] > 0
    assert v.nw_fixture_check("empty", AB, 7)["consistent"]


@pytest.mark.parametrize("letters, stamped, probed", [(3, 3, 1), (4, 4, 11), (5, 5, 74), (9, 5, 74)])
def test_nw_narrow_stamps_the_letter_budget_it_ran(letters, stamped, probed):
    # the narrow stream holds 5 letters, so a larger budget probes no more
    rep = v.nw_fixture_check("narrow", AB, letters)
    assert (rep["letter_budget"], rep["probed"], rep["outside"]) == (stamped, probed, probed)


def test_nw_wide_derivative_profile_matches_hand_count():
    # level j of the shadow keeps the sequences with len <= 2*len(first)+4-j
    # as long as the appended escape words stay inside the letter window
    rep = v.nw_fixture_check("wide", AB, 7)
    prof = rep["derivative_profile"]
    assert prof[0] > prof[1] > prof[2] > 0
