from itertools import combinations, product

from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey import verify as v
from schramsey.words import Alphabet, upsilon_stream, word

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
    assert v.apply_coloring(v.Coloring("finsets", 2, "min_mod"), (3, 5)) == 2
    assert v.apply_coloring(v.Coloring("finsets", 2, "size_mod"), (3, 5)) == 1
    assert v.apply_coloring(v.Coloring("wordseqs", 2, "total_len_mod"), (w("ab"),)) == 1
    table = v.Coloring("words", 2, "table", (("ab", 2),))
    assert v.apply_coloring(table, w("ab")) == 2


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
    # a mixed pair coloring of {1..5} leaves the full set non-monochromatic
    pairs = list(combinations(range(1, 6), 2))
    mask = 0
    for i, p in enumerate(pairs):
        if (p[0] + p[1]) % 2 == 0:
            mask |= 1 << i
    col = v.Coloring("finsets", 2, "pair_bits", (mask, 5))
    out = v.ramsey_schreier_search(o.from_int(2), 5, col, 5)
    assert not out.found and out.exhausted
    assert out.visited == out.expected == 1


def test_pair_sweep_thresholds():
    full = v.ramsey_pair_sweep(6, 3)
    assert full["all_have_witness"]
    assert full["visited"] == full["colorings"] == 2**15
    small = v.ramsey_pair_sweep(5, 3)
    assert not small["all_have_witness"]
    assert small["defeating_coloring"] is not None


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
    assert not deep.found and deep.exhausted
    assert deep.visited == deep.expected  # full space accounted for


def test_carlson_certificate_rejects_tampering():
    out = v.carlson_witness_search(P("1"), CONST1, CONST1, upsilon_stream(AB, 8), 2)
    wit = out.witness
    bad = v.Witness(
        wit.kind,
        wit.payload,
        tuple(list(wit.certificate)[:-1]),  # drop an entry
        wit.bounds,
    )
    assert not v.check_witness(bad)


def test_subspace_search_trivial_and_checked():
    chi = v.Coloring("wordset", 2, "const", (1,))
    out = v.subspace_search(P("0"), chi, upsilon_stream(AB, 6), 2)
    assert out.found and v.check_witness(out.witness, chi=chi)
    chi2 = v.Coloring("wordset", 2, "size_mod")
    out2 = v.subspace_search(P("0"), chi2, upsilon_stream(AB, 6), 2)
    assert out2.found and v.check_witness(out2.witness, chi=chi2)


# --- Hales-Jewett -----------------------------------------------------------


def test_hj_base_instance():
    rep = v.hales_jewett_M(2, 1, 2, o.ZERO, 4)
    assert rep["M"] == 2
    assert rep["colorings_checked"][2] == 16
    assert 1 in rep["defeaters"]
    defeat = rep["defeaters"][1]
    assert set(defeat.values()) == {1, 2}  # the two length-1 words split


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
    table = v.Coloring("wordseqs", 2, "table", (("(aa)", 1), ("(ab)", 2), ("(ba)", 2), ("(bb)", 1)))
    out2 = v.hj_line_search(table, o.ZERO, AB, 2)
    assert out2.found  # the doubled-variable line hits aa/bb
    gen = out2.witness.payload[0]
    assert gen == ("__",)
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


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _definitional_prefix(shape, raw_ok, slack=12):
    for total in range(len(shape), len(shape) + slack):
        cand = shape + (1,) * (total - len(shape))
        if raw_ok(cand):
            return True
    return False


def _definitional_substar(t, raw_ok):
    """Split each word into pieces and test whether some refinement's shape
    extends to a raw member shape; piece feasibility is guaranteed because
    every segment can host the variable or echo one of its own letters."""
    per_word = [list(_compositions(len(x))) for x in t]
    for combo in product(*per_word):
        shape = tuple(piece for word_pieces in combo for piece in word_pieces)
        if _definitional_prefix(shape, raw_ok):
            return True
    return False


def _raw_wide(shape):
    L = len(shape)
    return L >= 6 and L % 2 == 0 and shape[0] == (L - 4) // 2


def _raw_narrow(shape):
    L = len(shape)
    return L >= 2 and shape[0] == 2 * L - 3


def _all_small_var_seqs(max_letters):
    out = []
    for total in range(1, max_letters + 1):
        for shape in _compositions(total):
            fills = []
            for length in shape:
                opts = []
                for letters in product(AB.full, repeat=length):
                    if AB.variable in letters:
                        opts.append("".join(letters))
                fills.append(opts)
            for chosen in product(*fills):
                out.append(tuple(chosen))
    return out


def test_wide_law_matches_definitional_search():
    for t in _all_small_var_seqs(5):
        assert v.wide_fixture_member(t) == _definitional_substar(t, _raw_wide), list(t)


def test_narrow_law_matches_definitional_search():
    for t in _all_small_var_seqs(5):
        assert v.narrow_fixture_member(t) == _definitional_substar(t, _raw_narrow), list(t)


def test_nw_fixture_reports():
    rep = v.nw_fixture_check("wide", AB, 7)
    assert rep["consistent"] and rep["probed"] > 0
    assert rep["shadow_closed_at_8"]
    rep2 = v.nw_fixture_check("narrow", AB, 7)
    assert rep2["consistent"] and rep2["probed"] > 0
    assert v.nw_fixture_check("empty", AB)["consistent"]


def test_nw_wide_derivative_profile_matches_hand_count():
    # level j of the shadow keeps the sequences with len <= 2*len(first)+4-j
    # as long as the appended escape words stay inside the letter window
    rep = v.nw_fixture_check("wide", AB, 7)
    prof = rep["derivative_profile"]
    assert prof[0] > prof[1] > prof[2] > 0
