import pytest
from hypothesis import given, settings, strategies as st

from schramsey import cbindex as cb
from schramsey.errors import BudgetExceeded, OracleUndecided
from schramsey.words import (
    Alphabet,
    pattern_stream,
    reduce_word,
    seq_sort_key,
    universe,
    upsilon_stream,
    word,
)
from schramsey.wxi import match_reduction

AB = Alphabet(("a", "b"))

HORIZON = cb.ChainOracle("horizon", horizon=3)
LENGTH = cb.ChainOracle("exact", rule="length")


def w(text):
    return word(text, AB)


def stream(n=40):
    return upsilon_stream(AB, n)


def test_oracle_validation():
    with pytest.raises(ValueError):
        cb.ChainOracle("horizon")
    with pytest.raises(ValueError):
        cb.ChainOracle("exact", rule="nope")
    with pytest.raises(ValueError):
        cb.ChainOracle("magic")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["a", "ab", "abc"]), st.sampled_from(["constant", "variable"]),
       st.integers(0, 5), st.integers(0, 6))
def test_length_truncation_seeds_are_the_bounded_universe(alphabet, side, k, letters):
    # the seeds are the empty sequence plus every side-consistent sequence
    # of at most k words and at most `letters` letters, canonically sorted
    alph = Alphabet(tuple(alphabet))
    seeds = cb.length_truncation_family(alph, side, k, letters).seeds
    bounded = list(universe(alph, side, letters, max_words=k))
    assert seeds == ((),) + tuple(sorted(bounded, key=seq_sort_key))
    assert bounded == [s for s in universe(alph, side, letters) if len(s) <= k]


def test_first_derivative_of_single_word_family():
    fam = cb.length_truncation_family(AB, "constant", 1, 2)
    deriv = cb.Derivation(fam, stream(20), HORIZON)
    assert () in deriv.survivors(0) and (w("a"),) in deriv.survivors(0)
    assert deriv.survivors(1) == ((),)
    assert deriv.survivors(2) == ()
    assert deriv.first_empty() == 2


def test_derivative_of_empty_sequence_family():
    fam = cb.explicit_cb_family(AB, "constant", [()])
    assert cb.Derivation(fam, stream(20), HORIZON).survivors(1) == ()


def test_derivative_peels_longest_layer():
    fam = cb.length_truncation_family(AB, "constant", 3, 3)
    survivors = cb.Derivation(fam, stream(20), HORIZON).survivors(1)
    assert survivors
    assert max(len(m) for m in survivors) == 2
    # survivors are exactly the shorter seeds
    assert set(survivors) == {m for m in fam.seeds if len(m) <= 2}


def test_derivative_outputs_shrink_and_stay_downward_closed():
    fam = cb.length_truncation_family(AB, "constant", 2, 2)
    deriv = cb.Derivation(fam, stream(20), HORIZON)
    prev = set(deriv.survivors(0))
    for level in range(1, 4):
        cur = set(deriv.survivors(level))
        assert cur <= prev
        for m in cur:
            for i in range(len(m)):
                assert m[:i] in cur
        prev = cur


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_index_of_length_truncations_exact(k):
    fam = cb.length_truncation_family(AB, "constant", k + 1, k + 1)
    assert cb.so_index(fam, stream(64), LENGTH) == k + 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_index_of_length_truncations_horizon(k):
    fam = cb.length_truncation_family(AB, "constant", k + 1, k + 1)
    oracle = cb.ChainOracle("horizon", horizon=k + 3)
    assert cb.so_index(fam, stream(64), oracle) == k + 1


def test_index_len3_at_shorter_horizon():
    fam = cb.length_truncation_family(AB, "constant", 3, 3)
    assert cb.so_index(fam, stream(64), cb.ChainOracle("horizon", horizon=4)) == 3


def test_index_variable_side():
    fam = cb.length_truncation_family(AB, "variable", 2, 2)
    assert cb.so_index(fam, stream(40), HORIZON) == 2
    assert cb.so_index(fam, stream(40), LENGTH) == 2


def test_index_of_empty_and_point_families():
    empty = cb.explicit_cb_family(AB, "constant", [])
    assert cb.so_index(empty, stream(10), HORIZON) == 0
    point = cb.explicit_cb_family(AB, "constant", [()])
    assert cb.so_index(point, stream(10), HORIZON) == 0


def test_oracles_agree_when_horizon_definite():
    for k in range(3):
        fam = cb.length_truncation_family(AB, "constant", k + 1, k + 1)
        a = cb.so_index(fam, stream(64), LENGTH)
        b = cb.so_index(fam, stream(64), cb.ChainOracle("horizon", horizon=k + 3))
        assert a == b == k + 1


def test_horizon_mode_reports_undecided_on_short_streams():
    fam = cb.length_truncation_family(AB, "constant", 2, 2)
    tight = upsilon_stream(AB, 3)
    with pytest.raises(OracleUndecided):
        cb.so_index(fam, tight, cb.ChainOracle("horizon", horizon=4))


def test_budget_exceeded():
    fam = cb.length_truncation_family(AB, "constant", 3, 3)
    with pytest.raises(BudgetExceeded):
        cb.so_index(fam, stream(40), HORIZON, budget=2)


def test_monotonicity_contained_families():
    # contained families index no higher
    small = cb.length_truncation_family(AB, "constant", 2, 2)
    large = cb.length_truncation_family(AB, "constant", 3, 3)
    assert cb.so_index(small, stream(64), LENGTH) == 2 < 3 == cb.so_index(large, stream(64), LENGTH)


def test_monotonicity_under_stream_restriction():
    # passing to a reduction of the stream does not lower the index
    fam = cb.length_truncation_family(AB, "constant", 2, 2)
    pairs = pattern_stream(AB, [], ["__"], 30)
    assert cb.so_index(fam, pairs, HORIZON) >= cb.so_index(fam, stream(64), HORIZON)


def test_profile_matches_direct_recount():
    # independent recount of the first two levels over the seed universe:
    # a seed survives a pass exactly when its escape set (within the seed
    # letter budget, one appended word) admits no 3-chain
    fam = cb.length_truncation_family(AB, "constant", 2, 3)
    prof = cb.derivative_profile(fam, stream(64), HORIZON, 2)
    seeds = set(fam.seeds)

    def level1(m):
        return len(m) <= 1

    def level2(m):
        return len(m) == 0

    assert prof[0] == len(seeds)
    assert prof[1] == sum(1 for m in seeds if level1(m))
    assert prof[2] == sum(1 for m in seeds if level2(m))


@pytest.mark.parametrize(
    "alphabet, side, k, stream_words, H, nodes",
    [
        ("ab", "constant", 2, None, 4, 54),
        ("abc", "constant", 3, None, 5, 162),
        ("ab", "variable", 3, (["_"], ["__"]), 5, 162),
    ],
)
def test_chain_search_node_counts_are_pinned(alphabet, side, k, stream_words, H, nodes):
    # the chain search visits a fixed node set; these counts pin it
    alph = Alphabet(tuple(alphabet))
    if stream_words is None:
        st = upsilon_stream(alph, 40 if k == 2 else 42)
    else:
        st = pattern_stream(alph, *stream_words, 40)
    fam = cb.length_truncation_family(alph, side, k, k)
    deriv = cb.Derivation(fam, st, cb.ChainOracle("horizon", horizon=H))
    assert deriv.first_empty() - 1 == k
    assert deriv.nodes == nodes


def _outcomes(fam, st, oracle, k):
    """The answer and the nodes spent, for a run to the empty level at
    the default pass budget and at a budget of k passes, and for the
    survivor counts of levels 0..k+1; an undecided or over-budget run
    gives its exception type instead."""
    runs = (
        lambda d: d.first_empty(),
        lambda d: d.first_empty(budget=k),
        lambda d: [len(d.survivors(level)) for level in range(k + 2)],
    )
    out = []
    for run in runs:
        deriv = cb.Derivation(fam, st, oracle)
        try:
            answer = run(deriv)
        except (OracleUndecided, BudgetExceeded) as exc:
            out.append((type(exc), None))
        else:
            out.append((answer, deriv.nodes))
    return out


@pytest.mark.parametrize("oracle_k", [1, 2, 3, None], ids=["H=K+1", "H=K+2", "H=K+3", "exact"])
@pytest.mark.parametrize("stream_kind", ["e", "pat"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alphabet", ["ab", "abc"])
@pytest.mark.parametrize("side", ["constant", "variable"])
def test_class_keyed_engine_matches_sequence_keyed(side, alphabet, k, stream_kind, oracle_k):
    # a length truncation is decided once per (length, end) class; the
    # same family keyed by the sequence itself decides every sequence on
    # its own and must give the same answers, with no fewer chain nodes.
    # The streams are short enough that some horizon searches are undecided
    alph = Alphabet(tuple(alphabet))
    st = upsilon_stream(alph, 16) if stream_kind == "e" else pattern_stream(alph, ["_"], ["a_"], 20)
    oracle = LENGTH if oracle_k is None else cb.ChainOracle("horizon", horizon=k + oracle_k)
    fam = cb.length_truncation_family(alph, side, k, k)
    by_class = _outcomes(fam, st, oracle, k)
    by_seq = _outcomes(fam._replace(key=lambda s: s), st, oracle, k)
    assert [answer for answer, _ in by_class] == [answer for answer, _ in by_seq]
    for (_, nodes), (_, ref_nodes) in zip(by_class, by_seq):
        assert nodes is None or nodes <= ref_nodes


STEP_STREAMS = [
    ([], ["_"]),
    (["_"], ["__"]),
    (["_"], ["a_"]),
    (["__"], ["_"]),
    (["_", "_"], ["_", "__"]),
]


@pytest.mark.parametrize("head, repeat", STEP_STREAMS)
@pytest.mark.parametrize("side", ["constant", "variable"])
def test_step_table_entries_are_reductions(head, repeat, side):
    # appended to a universe member ending at stream word k, every entry
    # of the step table at k is accepted by the stream matcher and ends
    # where the table says; the table stops exactly at the horizon
    horizon = 6
    st = pattern_stream(AB, head, repeat, horizon)
    fam = cb.length_truncation_family(AB, side, 2, 2)
    oracle = cb.ChainOracle("horizon", horizon=3)
    engine = cb.Derivation(fam, st, oracle)
    fill = "_" if side == "variable" else "a"
    for k in range(horizon + 1):
        member = (reduce_word(st, fill * k),) if k else ()
        assert engine.end_pos(member) == k
        entries, cut = engine.steps(k)
        assert cut == (k + cb.MAX_BLOCK_WORDS > horizon)
        widths = {nxt - k for _, nxt in entries}
        assert widths == set(range(1, min(cb.MAX_BLOCK_WORDS, horizon - k) + 1))
        for letters, nxt in entries:
            t = match_reduction(st, member + ("".join(letters),), side)
            assert sum(map(len, t)) == nxt


def test_deep_chain_search_runs_without_recursion():
    # a chain far deeper than the interpreter's recursion limit
    fam = cb.length_truncation_family(AB, "constant", 1, 1)
    prof = cb.derivative_profile(fam, upsilon_stream(AB, 1100), cb.ChainOracle("horizon", horizon=1050), 1)
    assert prof == [3, 1]
