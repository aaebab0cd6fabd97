import pytest

from schramsey import cbindex as cb
from schramsey.errors import BudgetExceeded, OracleUndecided
from schramsey.words import Alphabet, pattern_stream, reduce_word, upsilon_stream, word
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


def test_first_derivative_of_single_word_family():
    fam = cb.length_truncation_family(AB, "constant", 1, 2)
    st = cb.initial_state(fam, stream(20), HORIZON)
    assert () in st.survivors and (w("a"),) in st.survivors
    st = cb.derivative(st)
    assert st.survivors == ((),)
    st = cb.derivative(st)
    assert st.survivors == ()


def test_derivative_of_empty_sequence_family():
    fam = cb.explicit_cb_family(AB, "constant", [()])
    st = cb.initial_state(fam, stream(20), HORIZON)
    st = cb.derivative(st)
    assert st.survivors == ()


def test_derivative_peels_longest_layer():
    fam = cb.length_truncation_family(AB, "constant", 3, 3)
    st = cb.derivative(cb.initial_state(fam, stream(20), HORIZON))
    assert st.survivors
    assert max(len(m) for m in st.survivors) == 2
    # survivors are exactly the shorter seeds
    assert set(st.survivors) == {m for m in fam.seeds if len(m) <= 2}


def test_derivative_outputs_shrink_and_stay_downward_closed():
    fam = cb.length_truncation_family(AB, "constant", 2, 2)
    st = cb.initial_state(fam, stream(20), HORIZON)
    prev = set(st.survivors)
    for _ in range(3):
        st = cb.derivative(st)
        cur = set(st.survivors)
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
    state = cb.derive_to_empty(fam, st, cb.ChainOracle("horizon", horizon=H))
    assert state.level - 1 == k
    assert state.nodes == nodes


def _outcomes(fam, st, oracle, k):
    """The (level, survivor count) of each state and the nodes of the
    last one, for a run to the empty level at the default pass budget and
    at a budget of k passes, and for a profile over k + 1 levels; an
    undecided or over-budget run gives its exception type instead."""
    runs = (
        lambda: [cb.derive_to_empty(fam, st, oracle)],
        lambda: [cb.derive_to_empty(fam, st, oracle, budget=k)],
        lambda: cb.derive_levels(fam, st, oracle, k + 1),
    )
    out = []
    for run in runs:
        try:
            states = run()
        except (OracleUndecided, BudgetExceeded) as exc:
            out.append((type(exc), None))
        else:
            out.append(([(s.level, len(s.survivors)) for s in states], states[-1].nodes))
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
    engine = cb._Engine(fam, st, oracle)
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
    states = cb.derive_levels(fam, upsilon_stream(AB, 1100), cb.ChainOracle("horizon", horizon=1050), 1)
    assert [len(s.survivors) for s in states] == [3, 1]
