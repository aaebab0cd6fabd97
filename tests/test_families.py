import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import families as fm
from schramsey import ordinal as o
from schramsey import wxi
from schramsey.words import (
    Alphabet,
    span,
    universe,
    upsilon_stream,
    word,
)

from reference import union_of_hereditary_subfamilies

P = o.parse
AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))


def w(text, alph=AB):
    return word(text, alph)


def fam(side, seqs, alph=AB):
    return fm.family_from_texts(alph, side, seqs)


def test_star_closure():
    F = fam("constant", [["ab", "b"]])
    closed = fm.star_closure(F)
    assert closed.members == {(), (w("ab"),), (w("ab"), w("b"))}
    assert fm.star_closure(closed).members == closed.members
    assert fm.star_closure(fam("constant", [[]])).members == {()}


def test_is_tree_iff_star_fixpoint():
    F = fam("constant", [["ab", "b"]])
    assert not fm.is_tree(F)
    assert fm.is_tree(fm.star_closure(F))


def test_is_thin():
    assert not fm.is_thin(fam("constant", [["a"], ["a", "b"]]))
    assert fm.is_thin(fam("constant", [["a", "b"], ["b", "a"]]))
    frag = fm.FamilyOfSeqs(
        AB, "constant", frozenset(wxi.enumerate_wxi(P("w"), AB, "constant", 5))
    )
    assert fm.is_thin(frag)


def test_substar_contents():
    F = fam("variable", [["_", "_"]], A1)
    closed = fm.substar(F)
    texts = set(closed.members)
    assert ("__",) in texts
    assert ("_",) in texts
    assert () in closed.members
    assert ("_", "_") in texts
    assert fm.substar(closed).members == closed.members  # idempotent
    assert closed.members >= F.members  # extensive
    assert fm.is_hereditary(closed)


def test_substar_fixed_point_on_empty():
    F = fam("variable", [[]], A1)
    assert fm.substar(F).members == {()}


def test_hereditary_implies_tree():
    F = fam("variable", [["_", "_"], ["__"]])
    closed = fm.substar(F)
    assert fm.is_tree(closed)


def test_g_substar_spans():
    F = fam("variable", [["_", "_"]], A1)
    closed = fm.substar(F)
    spans = {()}
    for t in closed.members:
        if t:
            spans.update(span(t, A1))
    G = fm.FamilyOfSeqs(A1, "constant", frozenset(spans))
    assert fm.g_substar(G).members == G.members
    assert fm.is_hereditary(G)


def test_hereditary_kernel_variable():
    F = fam("variable", [["_", "_"]])
    kern = fm.hereditary_kernel(F)
    assert kern.members == {()}
    closed = fm.substar(F)
    assert fm.hereditary_kernel(closed).members == closed.members
    hereditary = fam("variable", [["_"], []])
    assert fm.hereditary_kernel(hereditary).members == {(), (w("_"),)}


def test_hereditary_kernel_is_maximal():
    F = fm.substar(fam("variable", [["_", "_"], ["a_", "_b"]]))
    trimmed = fm.FamilyOfSeqs(F.alph, F.side, F.members - {(w("__"),)})
    kern = fm.hereditary_kernel(trimmed)
    assert fm.is_hereditary(kern)
    for excluded in sorted(trimmed.members - kern.members, key=len)[:6]:
        candidate = fm.FamilyOfSeqs(F.alph, F.side, kern.members | {excluded})
        assert not fm.is_hereditary(candidate)


def test_hereditary_kernel_constant_side():
    F = fam("variable", [["_", "_"]], A1)
    closed = fm.substar(F)
    spans = {()}
    for t in closed.members:
        if t:
            spans.update(span(t, A1))
    G = fm.FamilyOfSeqs(A1, "constant", frozenset(spans))
    assert fm.hereditary_kernel(G).members == G.members
    # dropping the merged word (aa) invalidates (a,a): its witness (v,v)
    # has the reduction (vv) whose span is no longer inside the family
    dropped = fm.FamilyOfSeqs(A1, "constant", G.members - {(word("aa", A1),)})
    kern = fm.hereditary_kernel(dropped)
    aa_pair = (word("a", A1), word("a", A1))
    assert aa_pair in dropped.members
    assert aa_pair not in kern.members
    assert fm.is_hereditary(kern)


# side-consistent sequences of at most 2 letters, and of exactly 3
POOLS = {side: ([s for s in universe(AB, side, 2)], [s for s in universe(AB, side, 3) if sum(map(len, s)) == 3])
         for side in ("constant", "variable")}


@st.composite
def small_families(draw):
    side = draw(st.sampled_from(["constant", "variable"]))
    short, long = POOLS[side]
    members = draw(st.sets(st.sampled_from(short), max_size=5)) | draw(st.sets(st.sampled_from(long), max_size=3))
    if draw(st.booleans()):
        members.add(())
    return fm.FamilyOfSeqs(AB, side, frozenset(members))


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_hereditary_kernel_is_the_union_of_hereditary_subfamilies(F):
    assert fm.hereditary_kernel(F).members == union_of_hereditary_subfamilies(F.members, AB, F.side)


def test_tree_dichotomy_trivial_cases():
    e3 = upsilon_stream(AB, 3)
    G_empty = fm.FamilyOfSeqs(AB, "constant", frozenset({()}))
    rep = fm.tree_dichotomy_check(G_empty, P("1"), e3, 3)
    assert rep["xi_reductions_avoid_family"] and rep["family_inside_proper_segments"]
    G1 = fm.star_closure(fam("constant", [["a"]]))
    rep1 = fm.tree_dichotomy_check(G1, P("1"), e3, 3)
    assert rep1["equivalent"] and rep1["xi_reductions_avoid_family"]
    G2 = fm.star_closure(fam("constant", [["a", "b"]]))
    rep2 = fm.tree_dichotomy_check(G2, P("1"), e3, 3)
    assert rep2["equivalent"] and not rep2["xi_reductions_avoid_family"]


def test_tree_dichotomy_rejects_non_tree():
    with pytest.raises(ValueError):
        fm.tree_dichotomy_check(fam("constant", [["a", "b"]]), P("1"), upsilon_stream(AB, 3), 3)


def test_tree_dichotomy_random_trees():
    rng = random.Random(17)
    e4 = upsilon_stream(AB, 4)
    seqs = list(universe(AB, "constant", 3))
    xis = [P("1"), P("2"), P("w")]
    for i in range(60):
        picked = [s for s in seqs if rng.random() < 0.12]
        tree = fm.star_closure(fm.FamilyOfSeqs(AB, "constant", frozenset(picked)))
        rep = fm.tree_dichotomy_check(tree, xis[i % 3], e4, 3)
        assert rep["equivalent"], rep


def test_family_json_roundtrip():
    F = fm.substar(fam("variable", [["_", "_"]]))
    members = [list(m) for m in F.sorted_members()]
    text = json.dumps({"alphabet": list(F.alph.symbols), "side": F.side, "members": members})
    back = fm.family_from_json(json.loads(text))
    assert back.members == F.members and back.side == F.side
