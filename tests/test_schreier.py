import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey.verify import mem_direct
from schramsey.errors import BudgetExceeded, HorizonExceeded
from schramsey.schreier import SchreierConfig

from reference import all_subsets, reference_members, shifted_members

P = o.parse

SAMPLE = ["1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w"]


def test_mem_base_cases():
    assert sch.mem(o.ZERO, ())
    assert not sch.mem(o.ZERO, (3,))
    assert sch.mem(o.from_int(1), (7,))
    assert not sch.mem(o.from_int(1), (7, 9))


def test_mem_first_limit_closed_form():
    assert sch.mem(o.OMEGA, (3, 5, 9))
    assert not sch.mem(o.OMEGA, (2, 3, 4))


def test_mem_two_blocks():
    # two consecutive blocks, each of size equal to its own minimum
    assert sch.mem(P("w*2"), (2, 4, 5, 6, 7, 8, 9))
    assert not sch.mem(P("w*2"), (2, 4, 5, 6, 7, 8))


def test_initial_segment_examples():
    assert sch.initial_segment(o.OMEGA, (1, 2, 3)) == (1,)
    assert sch.initial_segment(o.OMEGA, (3, 7, 8, 9, 10)) == (3, 7, 8)
    assert sch.initial_segment(o.from_int(2), (5, 6, 7)) == (5, 6)
    with pytest.raises(HorizonExceeded):
        sch.initial_segment(o.OMEGA, (4, 5))


def test_initial_segment_is_minimal_member():
    rng = random.Random(7)
    for xs in SAMPLE:
        xi = P(xs)
        done = 0
        for _ in range(40):
            start = rng.randint(1, 3)
            stream = []
            x = start
            while len(stream) < 48:
                stream.append(x)
                x += rng.randint(1, 3)
            try:
                seg = sch.initial_segment(xi, tuple(stream))
            except HorizonExceeded:
                continue  # the member for this minimum outruns the prefix
            done += 1
            assert sch.mem(xi, seg)
            for cut in range(len(seg)):
                assert not sch.mem(xi, seg[:cut])
        assert done >= 10, xs


def test_enumerate_examples():
    assert sch.enumerate_members(o.from_int(1), 3) == ((1,), (2,), (3,))
    assert sch.enumerate_members(o.OMEGA, 4) == ((1,), (2, 3), (2, 4))
    assert sch.enumerate_members(o.ZERO, 5) == ((),)


def test_enumerate_agrees_with_mem():
    for xs in SAMPLE:
        xi = P(xs)
        members = set(sch.enumerate_members(xi, 10))
        for s in all_subsets(10):
            assert (s in members) == sch.mem(xi, s), (xs, s)


def test_enumerate_has_no_duplicates():
    for xs in SAMPLE:
        ms = sch.enumerate_members(P(xs), 10)
        assert len(ms) == len(set(ms))


def test_transfer_examples():
    assert sch.transfer_index(P("w+1"), 4) == o.OMEGA
    assert sch.transfer_index(o.OMEGA, 3) == o.from_int(2)
    assert sch.transfer_index(o.OMEGA, 1) == o.ZERO


def test_limit_rules_can_differ_in_index_path():
    # under the successor rule the delegated exponent is always a successor
    lam = P("w^2")
    assert o.kind(o.fixed_seq(lam, 3)) == "limit"
    assert o.kind(o.fixed_seq_succ(lam, 3)) == "successor"


HARD = ["w^2*2", "w^3+w*2", "w^w+w^2", "w^(w+1)", "w^w*2", "w^2*3+w+1", "w^(w^2)", "w^(w*2)"]


@pytest.mark.parametrize("xs", SAMPLE + HARD)
def test_limit_rules_agree(xs):
    # the engine walks the fixed sequence; the reference runs both rules
    xi = P(xs)
    assert sch.enumerate_members(xi, 10) == reference_members(xi, 10, "fixed") == reference_members(xi, 10, "succ")


def test_hard_indices_enumerate_mem_transfer():
    allsets = all_subsets(10)
    for xs in HARD:
        xi = P(xs)
        ms = set(sch.enumerate_members(xi, 10))
        for s in allsets:
            assert (s in ms) == sch.mem(xi, s), (xs, s)
        for a in ms:
            for b in ms:
                if a != b:
                    assert not (len(a) < len(b) and b[: len(a)] == a), (xs, a, b)
        for n in range(1, 5):
            lhs = shifted_members(sch.enumerate_members(xi, 12), n)
            xin = sch.transfer_index(xi, n)
            rhs = tuple(
                sorted(s for s in sch.enumerate_members(xin, 12) if not s or s[0] > n)
            )
            assert lhs == rhs, (xs, n)


DEEP = ["w^w^w", "w^(w^w+w)", "w^w^(w+1)", "w^(w^2*2+w*3+1)", "w^w^w+w^(w*2)+w^2*2+w+3"]


@pytest.mark.parametrize("xs", DEEP)
def test_deep_indices_match_successor_rule(xs):
    # N = 12: every member with min >= 2 of these indices has far more
    # than 12 elements, so the sets compared are mostly non-members.  The
    # plan walks check the delegation itself at n = 1..6: from the limit
    # part lam of each exponent, the fixed walk stops at w^(fixed_seq_succ(lam, n))
    xi = P(xs)
    assert sch.enumerate_members(xi, 12) == reference_members(xi, 12, "succ")
    for exp, _count in xi:
        top = sch.plan(o.omega_pow(exp))
        if top.kind == sch.POW_SUCC:
            top = top.blocks(1)[0][0]  # w^lam for exp = lam + k
        if top.kind != sch.POW_LIMIT:
            continue
        for n in range(1, 7):
            p = top
            while p.kind == sch.POW_LIMIT:
                p = p.blocks(n)[0][0]
            assert p.xi == o.omega_pow(o.fixed_seq_succ(top.lam, n)), (xs, str(exp), n)


def test_validate_finset():
    with pytest.raises(ValueError):
        sch.mem(o.OMEGA, (3, 3))
    with pytest.raises(ValueError):
        sch.mem(o.OMEGA, (0, 1))
    with pytest.raises(ValueError):
        sch.mem(o.OMEGA, (5, 2))


# values of the recursion before enumeration was driven by plans
GOLDEN = [("w^w", 20, 21181, "83ecaa9b7653a3d0"), ("w^w*2", 16, 2012, "751fe7e57f4cc0d9")]


@pytest.mark.parametrize("rule", ["fixed", "succ"])
@pytest.mark.parametrize("xs, max_n, count, digest", GOLDEN)
def test_enumeration_golden_pins(rule, xs, max_n, count, digest):
    xi = P(xs)
    ms = sch.enumerate_members(xi, max_n)
    assert len(ms) == count
    assert hashlib.sha256(json.dumps([list(m) for m in ms]).encode()).hexdigest().startswith(digest)
    # a sample under the reference recursion with the rule: members are
    # accepted, and (the family being thin) their proper prefixes are not
    cfg = SchreierConfig(rule)
    for m in ms[::10]:
        assert mem_direct(xi, m, cfg) and not mem_direct(xi, m[:-1], cfg), m


def test_deep_indices_are_answered():
    # successor chains and finite exponents in the thousands run without
    # recursion; transfer indices too long to write out are a budget stop
    stream = tuple(range(1, 2501))
    assert not sch.mem(o.from_int(3000), stream)
    assert sch.mem(o.from_int(3000), tuple(range(1, 3001)))
    assert sch.initial_segment(o.from_int(2000), tuple(range(1, 2101))) == tuple(range(1, 2001))
    deep = P("w^3000")
    assert sch.mem(deep, (1,)) and not sch.mem(deep, stream)
    assert sch.enumerate_members(deep, 8) == ((1,),)
    # a group of 3000 singletons is cut by its block count, not walked
    assert sch.enumerate_members(o.from_int(3000), 24) == ()
    assert sch.enumerate_members(P("w+3000"), 24) == ()
    assert sch.transfer_index(deep, 1) == o.ZERO
    assert sch.transfer_index(deep, 2).terms[0] == (o.from_int(2999), 1)
    with pytest.raises(BudgetExceeded):
        sch.transfer_index(P("w^100000"), 2)


def test_descent_chains_are_charged_per_minimum():
    # at a fixed minimum m the first blocks form one chain of expansions;
    # each chain is charged to the descent budget on its own.  For
    # w^(w^(w^2)) they are up to 601 long at m <= 24, so enumeration answers
    assert sch.enumerate_members(P("w^(w^(w^2))"), 24) == ((1,),)
    # w^(w^(w^w)) has a chain of 3,907 at m = 5: both walks stop on the budget,
    # enumeration at the budget and not at the interpreter's recursion limit
    deep = P("w^(w^(w^w))")
    for walk in (lambda: sch.mem(deep, (5, 6, 7)), lambda: sch.enumerate_members(deep, 5)):
        with pytest.raises(BudgetExceeded, match="^descent takes 1001 steps, over its budget of 1000; "):
            walk()


@pytest.mark.parametrize("xs", ["w*3+3", "w^2*3", "w^w*3"])
def test_enumeration_walks_a_dead_state_once(xs, monkeypatch):
    # none of these has a member inside {1..24}; a state (owed groups, lo)
    # that completed no member is not walked again, so the walk takes a
    # few thousand steps, where walking every state again takes millions
    steps = 0
    take = sch._take

    def counted(pending, x, room):
        nonlocal steps
        steps += 1
        return take(pending, x, room)

    monkeypatch.setattr(sch, "_take", counted)
    assert sch.enumerate_members(P(xs), 24) == ()
    assert 0 < steps < 20_000


def _exponent(a, b):
    """w*a + b, an exponent below w^2."""
    return o.add(o.nat_mul(o.OMEGA, a) if a else o.ZERO, o.from_int(b))


@st.composite
def small_indices(draw):
    """An ordinal below w^(w^2): up to three terms w^(w*a+b)*c."""
    terms = {}
    for a, b, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3)), max_size=3)):
        terms[(a, b)] = c
    return o.Ordinal(tuple((_exponent(a, b), terms[a, b]) for a, b in sorted(terms, reverse=True)))


GROUND = 12


@settings(max_examples=300, deadline=None)
@given(
    small_indices(),
    st.sampled_from(["fixed", "succ"]),
    st.sets(st.integers(1, GROUND), max_size=8),
    st.integers(1, 6),
    st.integers(1, 4),
)
def test_plans_agree_with_independent_paths(xi, rule, s, n, lo):
    cfg = SchreierConfig(rule)
    t = tuple(sorted(s))
    members = sch.enumerate_members(xi, GROUND)
    assert sch.mem(xi, t) == mem_direct(xi, t, cfg) == (t in set(members))
    assert list(members) == sorted(members)
    above = sch.enumerate_members(xi, GROUND, min_n=lo)
    assert above == tuple(m for m in members if not m or m[0] >= lo)
    assert all(mem_direct(xi, m, cfg) for m in members[:: max(1, len(members) // 20)])
    if xi.terms:
        xin = sch.transfer_index(xi, n)
        rhs = tuple(m for m in sch.enumerate_members(xin, GROUND) if not m or m[0] > n)
        assert shifted_members(members, n) == rhs
