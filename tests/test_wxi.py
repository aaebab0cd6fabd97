import random

import pytest

from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey import words, wxi
from schramsey.errors import BudgetExceeded, HorizonExceeded
from schramsey.words import (
    VAR,
    Alphabet,
    VarWordStream,
    d_map,
    reduce_seq,
    reduced_words,
    seq_sort_key,
    span,
    universe,
    word,
)

from reference import product_reductions

P = o.parse
AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))


def w(text, alph=AB):
    return word(text, alph)


def member(xi, seq, alph=AB, side="constant"):
    return wxi.in_wxi(P(xi) if isinstance(xi, str) else xi, alph, side, seq)


def test_in_wxi_examples():
    assert member("2", (w("ab"), w("ba"), w("aab")))
    aaa = (word("a", A1), word("a", A1), word("a", A1))
    assert member("w", aaa, A1)
    assert not member("1", (word("a", A1),), A1)
    assert member("0", (w("ab"),))
    assert not member("0", (w("ab"), w("a")))
    assert not member("1", ())


def test_in_wxi_side_consistency():
    assert not member("1", (w("a_"), w("b")), side="constant")
    assert member("1", (w("a_"), w("_")), side="variable")
    with pytest.raises(ValueError, match="unknown side 'both'"):
        member("1", (), side="both")


def test_in_wxi_relative_to_base():
    base = VarWordStream(AB, (w("a_"), w("_b"), w("__"), w("__"), w("_")))

    def rel(xi, seq, side="constant"):
        return wxi.in_wxi_relative(P(xi), AB, side, seq, base)

    u = reduce_seq(base, (w("a"), w("b")))
    assert d_map(u) == (3,)  # own offsets
    assert rel("1", u) == (True, (w("a"), w("b")))  # block offsets {2} land at level 1
    assert rel("2", u) == (False, (w("a"), w("b")))
    assert rel("1", (w("bb"), w("bb"))) == (False, None)
    # a side-consistent non-reduction is a non-member too; running past
    # the base's horizon stays an error
    assert rel("1", (w("a_b"), w("__")), side="variable") == (False, None)
    with pytest.raises(HorizonExceeded):
        rel("1", (w("aa"), w("ab"), w("aa"), w("aa"), w("a"), w("a")))


def test_match_reduction_roundtrip_random():
    rng = random.Random(3)
    for _ in range(150):
        horizon = rng.randint(2, 6)
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
        blocks = []
        for bi in range(len(bounds) - 1):
            width = bounds[bi + 1] - bounds[bi]
            letters = [rng.choice(AB.full) for _ in range(width)]
            letters[rng.randrange(width)] = AB.variable
            blocks.append("".join(letters))
        t = tuple(blocks)
        u = reduce_seq(stream, t)
        assert wxi.match_reduction(stream, u, "variable") == t


def test_canonical_rep_examples():
    units = tuple(word("a", A1) for _ in range(5))
    assert wxi.canonical_rep(o.from_int(1), units) == ((2, 3, 4, 5), False)
    assert wxi.canonical_rep(o.OMEGA, units[:4]) == ((3,), True)
    assert wxi.canonical_rep(o.OMEGA, units[:3]) == ((3,), False)
    assert wxi.canonical_rep(o.from_int(2), (w("ab"),)) == ((), True)
    with pytest.raises(ValueError):
        wxi.canonical_rep(o.ZERO, units)


def test_canonical_rep_blocks_are_members_and_minimal():
    rng = random.Random(5)
    sample = [P(t) for t in ["1", "2", "w", "w+1", "w^2"]]
    for xi in sample:
        for _ in range(40):
            seq = []
            for _ in range(rng.randint(2, 9)):
                length = rng.randint(1, 3)
                seq.append("".join(rng.choice(AB.full) for _ in range(length)))
            seq = tuple(seq)
            bounds, residual = wxi.canonical_rep(xi, seq)
            offsets = d_map(seq)
            pos = 0
            for m in bounds:
                block = offsets[pos : m - 1]
                assert sch.mem(xi, block)
                for cut in range(len(block)):
                    assert not sch.mem(xi, block[:cut])
                pos = m - 1
            if not residual and bounds:
                assert bounds[-1] == len(seq)
            if residual:
                tail = offsets[pos:]
                for cut in range(len(tail) + 1):
                    assert not sch.mem(xi, tail[:cut])


def test_star_status():
    assert wxi.star_status(o.from_int(1), (w("a"), w("b"))) == "member"
    assert wxi.star_status(o.from_int(1), (w("a"),)) == "segment"
    assert wxi.star_status(o.from_int(1), (w("a"), w("b"), w("a"))) == "outside"
    assert wxi.star_status(o.from_int(1), ()) == "segment"
    assert wxi.star_status(o.ZERO, (w("a"),)) == "member"
    assert wxi.star_status(o.ZERO, (w("a"), w("b"))) == "outside"


@pytest.mark.parametrize("xs", ["w", "w+1", "w*2", "w^2", "w^w"])
def test_star_status_matches_its_definition(xs):
    xi = P(xs)
    for seq in universe(AB, "constant", 7):
        d = d_map(seq)
        if sch.mem(xi, d):
            expected = "member"
        elif any(sch.mem(xi, d[:i]) for i in range(1, len(d))):
            expected = "outside"
        else:
            expected = "segment"
        assert wxi.star_status(xi, seq) == expected, (xs, seq)


def test_enumeration_matches_filter_oracle():
    # independent oracle: generate every sequence within the budget and
    # filter by the membership predicate
    budget = 5
    seqs = list(universe(AB, "constant", budget))
    for xs in ["0", "1", "2", "w", "w+1"]:
        xi = P(xs)
        expected = sorted((s for s in seqs if member(xi, s)), key=seq_sort_key)
        assert list(wxi.enumerate_wxi(xi, AB, "constant", budget)) == expected


@pytest.mark.parametrize("xs", ["0", "1", "2", "w", "w+1", "w^2"])
@pytest.mark.parametrize("alph", [AB, Alphabet(("a", "b", "c"))], ids=["ab", "abc"])
def test_enumeration_counts_its_listing_before_it_lists(xs, alph, monkeypatch):
    # the count taken from the shapes is the listing's length: a budget of
    # exactly it lists, one below it refuses
    for side in ("constant", "variable"):
        for letters in range(1, 8):
            n = len(wxi.enumerate_wxi(P(xs), alph, side, letters))
            monkeypatch.setattr(words, "MAX_REDUCTION_CASES", n - 1)
            with pytest.raises(BudgetExceeded, match=f" holds {n} sequences, over its budget of {n - 1}$"):
                wxi.enumerate_wxi(P(xs), alph, side, letters)
            monkeypatch.setattr(words, "MAX_REDUCTION_CASES", n)
            assert len(wxi.enumerate_wxi(P(xs), alph, side, letters)) == n
            monkeypatch.undo()


def test_enumeration_thin_on_unit_words():
    for xs in ["1", "2", "w", "w+1"]:
        xi = P(xs)
        members = [
            s
            for s in wxi.enumerate_wxi(xi, A1, "constant", 8)
            if all(len(x) == 1 for x in s)
        ]
        for a in members:
            for b in members:
                if a != b:
                    assert not (len(a) < len(b) and b[: len(a)] == a)


def transfer_check(xi, s, alph, letter_budget, side="constant"):
    """The shift of the level-xi family by the word s, against the family
    at the transfer index, over the same universe: the empty sequence and
    the sequences within the letter budget whose first word strictly
    extends s (in variable mode by a remainder with the variable).
    Returns (shifted members, transfer-index members, transfer index)."""
    xi_n = sch.transfer_index(xi, len(s) + 1)
    lhs, rhs = set(), set()
    for u in [(), *universe(alph, side, letter_budget)]:
        if u == ():
            shifted = (s,)
        else:
            rest = u[0][len(s) :]
            if not (u[0].startswith(s) and rest and (side == "constant" or VAR in rest)):
                continue
            shifted = (s, rest) + u[1:]
        if member(xi, shifted, alph, side):
            lhs.add(u)
        if member(xi_n, u, alph, side):
            rhs.add(u)
    return lhs, rhs, xi_n


def test_transfer_check_examples():
    for xs, s, budget, index in [("2", "ab", 6, "1"), ("1", "a", 5, "0"), ("w", "ab", 6, "2")]:
        lhs, rhs, xi_n = transfer_check(P(xs), w(s), AB, budget)
        assert lhs == rhs and str(xi_n) == index, (xs, s, lhs ^ rhs)


def test_transfer_check_variable_side():
    lhs, rhs, _ = transfer_check(P("2"), w("a_"), AB, 5, side="variable")
    assert lhs == rhs, lhs ^ rhs


def test_subspace_points_and_span():
    pts = reduced_words((w("_"), w("_")), AB, "constant")
    assert list(pts) == ["aa", "ab", "ba", "bb"]
    sp = span((w("_a"), w("b_")), AB)
    texts = set(sp)
    assert texts == {("aa", "ba"), ("aa", "bb"), ("ba", "ba"), ("ba", "bb")}
    assert span((), AB) == ()


def test_is_xi_subspace():
    # a generator spans a level-xi subspace when it is a variable member
    gen = (w("_"), w("_"), w("_"))
    assert d_map(gen) == (2, 3)
    assert member(o.OMEGA, gen, side="variable")
    assert not member("1", gen, side="variable")
    assert member("1", (w("_a"), w("_")), side="variable")
    assert member("1", (w("_"), w("_")), side="variable")


def test_containment_equivalence_at_truncation():
    # Containment of level-xi reductions in G is equivalent to: for every
    # full-horizon variable reduction, the unique level-xi initial block
    # has its whole substitution span inside G.
    xi = P("1")
    horizon = 4
    members = wxi.enumerate_wxi(xi, AB, "constant", horizon)
    rng = random.Random(9)
    # the full-horizon variable reductions of the identity stream
    reductions = product_reductions((VAR,) * horizon, AB, "variable")

    def rhs_holds(G):
        for vr in reductions:
            bounds, _residual = wxi.canonical_rep(xi, vr)
            if not bounds:
                continue
            first = vr[: bounds[0]]
            if not all(s in G for s in span(first, AB)):
                return False
        return True

    fixtures = [set(members)]  # full containment: both sides must hold
    for _ in range(12):
        G = {s for s in members if rng.random() < 0.8}
        fixtures.append(G)
    for i in range(1, 9):
        G = set(members)
        G.discard(members[i * 5 % len(members)])  # drop one member
        fixtures.append(G)
    outcomes = set()
    for G in fixtures:
        lhs = all(s in G for s in members)
        assert lhs == rhs_holds(G)
        outcomes.add(lhs)
    assert outcomes == {True, False}
