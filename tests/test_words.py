import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import words
from schramsey.errors import BudgetExceeded, HorizonExceeded, ReductionMismatch
from schramsey.words import (
    MAX_BLOCK_WORDS,
    Alphabet,
    VarWordStream,
    d_map,
    finite_reductions,
    hereditary_reductions,
    pattern_stream,
    reduce_seq,
    reduce_word,
    reduced_words,
    seq_sort_key,
    seq_text,
    side_consistent,
    span,
    steps,
    universe,
    upsilon_stream,
    word,
)
from schramsey.wxi import match_reduction

import reference

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
    assert list(reduced_words((w("_"), w("_")), AB, "constant")) == ["aa", "ab", "ba", "bb"]
    assert list(reduced_words((w("_"), w("_")), AB, "variable")) == ["__", "_a", "_b", "a_", "b_"]
    assert list(reduced_words((w("a_"), w("_")), AB, "constant")) == ["aaa", "aab", "aba", "abb"]
    assert list(reduced_words((w("_"),), AB, "variable")) == ["_"]


def test_reduced_words_cardinality():
    # distinct substitution results: |constant side| = |alphabet|^n
    rw = reduced_words((w("_a"), w("b_"), w("_")), AB, "constant")
    assert len(rw) == 2**3
    # collisions keep it below the bound
    rw2 = reduced_words((word("_", A1), word("_", A1)), A1, "constant")
    assert len(rw2) <= 1**2 or len(rw2) == 1


def test_finite_reductions_counts():
    # independent count: compositions x assignments, then dedup
    seq = (w("a_"), w("b_"))
    rw, vrw = (finite_reductions(seq, AB, side) for side in ("constant", "variable"))
    assert {s for s, _ in rw if s} == set(reference.product_reductions(seq, AB, "constant"))
    assert {s for s, _ in vrw if s} == set(reference.product_reductions(seq, AB, "variable"))
    assert ((), ()) in rw and ((), ()) in vrw


VAR_WORDS = st.text("ab_", min_size=1, max_size=3).filter(lambda t: "_" in t)


@settings(max_examples=80, deadline=None)
@given(st.lists(VAR_WORDS, max_size=4), st.sampled_from(["constant", "variable"]))
def test_hereditary_reductions_match_two_oracles(texts, side):
    seq = tuple(texts)
    listed = hereditary_reductions(seq, AB, side)
    assert list(listed) == sorted(set(listed), key=seq_sort_key)
    # the non-empty initial segments of the reductions of seq itself
    segments = {r[:i] for r, _d in finite_reductions(seq, AB, side) for i in range(1, len(r) + 1)}
    # and the reductions of every non-empty prefix, listed independently
    assert listed == reference.hereditary_reductions(seq, AB, side)
    assert set(listed) == segments


def test_finite_reductions_carry_offsets():
    seq = (w("_"), w("_"), w("_"))
    rw = finite_reductions(seq, AB, "constant")
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


STEP_STREAMS = [
    ([], ["_"]),
    (["_"], ["__"]),
    (["_"], ["a_"]),
    (["__"], ["_"]),
    (["_", "_"], ["_", "__"]),
]


@pytest.mark.parametrize("head, repeat", STEP_STREAMS)
@pytest.mark.parametrize("side", ["constant", "variable"])
def test_steps_are_the_one_block_extensions(head, repeat, side):
    # appended to a reduction ending at stream word k, the entries of the
    # table at k are the side-consistent letter-words of 1..MAX_BLOCK_WORDS
    # letters in order, each accepted by the stream matcher and ending
    # where the table says; the table is cut exactly where the horizon
    # leaves fewer than MAX_BLOCK_WORDS words
    horizon = 6
    st = pattern_stream(AB, head, repeat, horizon)
    fill = "_" if side == "variable" else "a"
    letters = AB.full if side == "variable" else AB.symbols
    for k in range(horizon + 1):
        member = (reduce_word(st, fill * k),) if k else ()
        entries, cut = steps(st, k, side)
        assert cut == (k + MAX_BLOCK_WORDS > horizon)
        expected = [
            "".join(t)
            for b in range(1, min(MAX_BLOCK_WORDS, horizon - k) + 1)
            for t in product(letters, repeat=b)
            if (AB.variable in t) == (side == "variable")
        ]
        recovered = []
        for chunk, end in entries:
            t = match_reduction(st, member + (chunk,), side)
            assert sum(map(len, t)) == end
            recovered.append(t[-1])
        assert recovered == expected


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["a", "ab", "abc"]), st.sampled_from(["constant", "variable"]),
       st.integers(1, 6), st.one_of(st.none(), st.integers(1, 6)))
def test_universe_budget_counts_the_listing(symbols, side, letters, max_words):
    # the count taken before the listing is the listing's length: a budget
    # one below it refuses, naming it, and a budget of exactly it lists
    alph = Alphabet(tuple(symbols))
    n = len(list(universe(alph, side, letters, max_words)))
    with mock.patch.object(words, "MAX_REDUCTION_CASES", n - 1):
        with pytest.raises(BudgetExceeded, match=f" lists {n} sequences by {letters} letters, over its budget of {n - 1}$"):
            next(universe(alph, side, letters, max_words))
    with mock.patch.object(words, "MAX_REDUCTION_CASES", n):
        assert len(list(universe(alph, side, letters, max_words))) == n
    # and so is the letter count, checked after the sequence count
    total = sum(len(word) for seq in universe(alph, side, letters, max_words) for word in seq)
    with mock.patch.object(words, "MAX_UNIVERSE_LETTERS", total - 1):
        with pytest.raises(BudgetExceeded, match=f" lists {total} letters by {letters} letters, "
                                                 f"over its budget of {total - 1} letters$"):
            next(universe(alph, side, letters, max_words))
    with mock.patch.object(words, "MAX_UNIVERSE_LETTERS", total):
        assert len(list(universe(alph, side, letters, max_words))) == n


def test_universe_letter_budget_stops_long_seeds():
    # one-letter seeds of 1..L letters hold L(L+1)/2 letters: 5,792 letters
    # stay within 2^24, and 5,793 pass it
    words._require_universe_budget(A1, "constant", 5792, max_words=1)
    stop = "lists 16782321 letters by 5793 letters, over its budget of 16777216 letters$"
    with pytest.raises(BudgetExceeded, match=stop):
        words._require_universe_budget(A1, "constant", 20000, max_words=1)
