import random
from itertools import product

import pytest

from schramsey.errors import HorizonExceeded, ReductionMismatch
from schramsey.words import (
    Alphabet,
    VarWordStream,
    d_map,
    finite_reductions,
    pattern_stream,
    reduce_seq,
    reduce_word,
    reduced_words,
    seq_text,
    side_consistent,
    span,
    upsilon_stream,
    word,
)
from schramsey.wxi import match_reduction

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))


def w(text, alph=AB):
    return word(text, alph)


def test_concat():
    assert w("ab") + w("ba") == "abba"
    assert side_consistent((w("_") + w("_"),), "variable")
    assert w("a") + w("_b") == "a_b"


def test_alphabet_symbols_are_single_characters():
    with pytest.raises(ValueError, match="not a single character"):
        Alphabet(("ab", "c"))
    with pytest.raises(ValueError, match="words are non-empty"):
        word("", AB)


def test_substitute():
    # span substitutes one constant letter for every variable of each word
    abc = Alphabet(("a", "b", "c"))
    assert span((word("a_b_", abc),), abc) == (("aaba",), ("abbb",), ("acbc",))
    assert span((w("_"), w("a_b")), AB) == (("a", "aab"), ("a", "abb"), ("b", "aab"), ("b", "abb"))
    assert span((w("ab"),), AB) == ((w("ab"),),)


def test_d_map():
    assert d_map((w("ab"), w("ba"), w("aab"))) == (3, 5)
    assert d_map((w("aba"),)) == ()
    assert d_map((w("a"), w("a"), w("a"))) == (2, 3)
    with pytest.raises(ValueError):
        d_map(())


def test_reduce_word():
    e = upsilon_stream(AB, 5)
    assert reduce_word(e, w("ab")) == "ab"
    s = VarWordStream(AB, (w("a_"), w("_b"), w("__")))
    assert reduce_word(s, w("ab")) == "aabb"
    assert reduce_word(s, w("__")) == "a__b"
    with pytest.raises(HorizonExceeded):
        reduce_word(s, w("abab"))


def test_reduce_seq():
    e = upsilon_stream(AB, 5)
    t = (w("_a"), w("b_"))
    assert reduce_seq(e, t) == t  # identity stream
    s = VarWordStream(AB, (w("a_"), w("_b"), w("__")))
    assert seq_text(reduce_seq(s, (w("ab"),))) == "(aabb)"
    assert seq_text(reduce_seq(s, (w("a"), w("b")))) == "(aa,bb)"
    # unit variable blocks reproduce the stream prefix
    assert reduce_seq(s, (w("_"), w("_"), w("_"))) == s.prefix
    with pytest.raises(HorizonExceeded):
        reduce_seq(s, (w("aaaa"),))


def test_reduced_words_enumeration():
    rw, vrw = reduced_words((w("_"), w("_")), AB)
    assert list(rw) == ["aa", "ab", "ba", "bb"]
    assert list(vrw) == ["__", "_a", "_b", "a_", "b_"]
    rw2, _ = reduced_words((w("a_"), w("_")), AB)
    assert list(rw2) == ["aaa", "aab", "aba", "abb"]
    _, vrw1 = reduced_words((w("_"),), AB)
    assert list(vrw1) == ["_"]


def test_reduced_words_cardinality():
    # distinct substitution results: |constant side| = |alphabet|^n
    rw, _ = reduced_words((w("_a"), w("b_"), w("_")), AB)
    assert len(rw) == 2**3
    # collisions keep it below the bound
    rw2, _ = reduced_words((word("_", A1), word("_", A1)), A1)
    assert len(rw2) <= 1**2 or len(rw2) == 1


def test_finite_reductions_counts():
    # independent count: compositions x assignments, then dedup
    seq = (w("a_"), w("b_"))
    rw, vrw = finite_reductions(seq, AB)
    raw_const = set()
    raw_var = set()
    n = len(seq)
    for cuts in product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        for assign in product(AB.full, repeat=n):
            blocks = []
            sides = []
            for bi in range(len(bounds) - 1):
                lo, hi = bounds[bi], bounds[bi + 1]
                letters = ""
                for idx in range(lo, hi):
                    letters += seq[idx].replace(AB.variable, assign[idx])
                blocks.append(letters)
                sides.append(any(a == AB.variable for a in assign[lo:hi]))
            if not any(sides):
                raw_const.add(tuple(blocks))
            elif all(sides):
                raw_var.add(tuple(blocks))
    assert {s for s, _ in rw if s} == raw_const
    assert {s for s, _ in vrw if s} == raw_var
    assert ((), ()) in rw and ((), ()) in vrw


def test_finite_reductions_carry_offsets():
    seq = (w("_"), w("_"), w("_"))
    rw, _ = finite_reductions(seq, AB)
    for s, d in rw:
        if s:
            expected = []
            pos = 1
            for x in s[:-1]:
                pos += len(x)
                expected.append(pos)
            assert d == tuple(expected)


def test_match_word_reduction_roundtrip():
    s = VarWordStream(AB, (w("a_"), w("_b"), w("__"), w("_")))
    t = w("ab_a")
    r = reduce_word(s, t)
    assert match_reduction(s, (r,), "variable") == ("ab_a",)
    with pytest.raises(ReductionMismatch):
        match_reduction(s, (w("bb"),), "constant")


def test_d_coherence_random():
    rng = random.Random(11)
    for _ in range(200):
        horizon = rng.randint(3, 7)
        prefix = []
        for _ in range(horizon):
            length = rng.randint(1, 3)
            letters = [rng.choice(AB.full) for _ in range(length)]
            letters[rng.randrange(length)] = AB.variable
            prefix.append("".join(letters))
        stream = VarWordStream(AB, tuple(prefix))
        used = rng.randint(1, horizon)
        cuts = sorted(rng.sample(range(1, used), rng.randint(0, used - 1))) if used > 1 else []
        bounds = [0] + cuts + [used]
        t = []
        for bi in range(len(bounds) - 1):
            letters = [rng.choice(AB.symbols) for _ in range(bounds[bi + 1] - bounds[bi])]
            t.append("".join(letters))
        t = tuple(t)
        u = reduce_seq(stream, t)
        # the stream's block structure of the output equals the offsets of t
        assert match_reduction(stream, u, "constant") == t
        assert d_map(t) == d_map(t)


def test_reduction_composition_preserves_prefix_order():
    s = VarWordStream(AB, (w("a_"), w("_b"), w("__"), w("_")))
    t1 = w("ab")
    t2 = w("ab_a")
    assert t2.startswith(t1) and len(t1) < len(t2)
    u1 = reduce_word(s, t1)
    u2 = reduce_word(s, t2)
    assert u2.startswith(u1) and len(u1) < len(u2)
    assert reduce_word(s, t1 + t2[len(t1):]) == u2


def test_reduction_nesting():
    # variable reduced words of a reduced stream are reduced words of the base
    base = VarWordStream(AB, (w("a_"), w("_b"), w("__"), w("_")))
    sub = VarWordStream(AB, reduce_seq(base, (w("__"), w("__"))))
    assert sub.prefix == ("a__b", "___")
    base_vrw = set()
    for used in range(1, base.horizon + 1):
        for assign in product(AB.full, repeat=used):
            if AB.variable in assign:
                base_vrw.add(reduce_word(base, "".join(assign)))
    for used in range(1, sub.horizon + 1):
        for assign in product(AB.full, repeat=used):
            if AB.variable in assign:
                assert reduce_word(sub, "".join(assign)) in base_vrw


def test_pattern_stream():
    s = pattern_stream(AB, ["_"], ["__"], 4)
    assert list(s.prefix) == ["_", "__", "__", "__"]
    with pytest.raises(HorizonExceeded):
        s.word_at(5)
