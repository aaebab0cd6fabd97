"""Acceptance suite: one test per criterion, each printing its verdict
and enforcing the stated tolerance and runtime bound."""

import os
import random
import subprocess
import sys
import time
from itertools import combinations

from schramsey import cbindex as cb
from schramsey import families as fm
from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey import verify as v
from schramsey import wxi
from schramsey.words import Alphabet, d_map, reduce_seq, universe, upsilon_stream

from reference import reductions_wxi, shifted_members
from test_golden import JOBS, expected

P = o.parse
AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))

XI_SAMPLE = ["1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w"]


def _report(num, name, t0, limit=None):
    dt = time.time() - t0
    line = f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.2f}s)"
    print(line)
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.2f}s)"


def test_criterion_01_closed_form_equivalence():
    t0 = time.time()
    count = 0
    for r in range(1, 13):
        for s in combinations(range(1, 13), r):
            assert sch.mem(o.OMEGA, s) == (len(s) == s[0])
            count += 1
    assert count == 4095
    for k in range(1, 5):
        xi = o.from_int(k)
        for r in range(0, 11):
            for s in combinations(range(1, 11), r):
                assert sch.mem(xi, s) == (len(s) == k)
    _report(1, "closed-form membership equivalence", t0, limit=1.0)


def test_criterion_02_thinness():
    t0 = time.time()
    violations = 0
    for xs in XI_SAMPLE:
        members = sch.enumerate_members(P(xs), 10)
        for a in members:
            for b in members:
                if a != b and len(a) < len(b) and b[: len(a)] == a:
                    violations += 1
    assert violations == 0
    _report(2, "thinness of enumerated families", t0, limit=5.0)


def test_criterion_03_transfer_identity():
    t0 = time.time()
    for xs in XI_SAMPLE:
        xi = P(xs)
        members = sch.enumerate_members(xi, 12)
        for n in range(1, 7):
            lhs = shifted_members(members, n)
            xin = sch.transfer_index(xi, n)
            rhs = tuple(
                sorted(s for s in sch.enumerate_members(xin, 12) if not s or s[0] > n)
            )
            assert lhs == rhs, (xs, n)
    _report(3, "transfer identity at N=12", t0, limit=10.0)


def _random_seq(rng, count, letters):
    """count words of 1..3 letters each, drawn from letters."""
    return tuple("".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(count))


def test_criterion_04_canonical_representation():
    t0 = time.time()
    xis = [P(t) for t in ["1", "2", "w", "w+1", "w^2"]]
    # 200 constant sequences of 6..10 words, each at every index; then 40
    # sequences of 2..9 words over letters and the variable per index
    rng = random.Random(2024)
    streams = [_random_seq(rng, rng.randint(6, 10), AB.symbols) for _ in range(200)]
    cases = [(xi, seq) for seq in streams for xi in xis]
    rng = random.Random(5)
    cases += [(xi, _random_seq(rng, rng.randint(2, 9), AB.full)) for xi in xis for _ in range(40)]
    for xi, seq in cases:
        offsets = d_map(seq)
        bounds, residual = wxi.canonical_rep(xi, seq)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        pos = 0
        for m in bounds:
            block = offsets[pos : m - 1]
            assert sch.mem(xi, block)
            for cut in range(len(block)):
                assert not sch.mem(xi, block[:cut])
            pos = m - 1
        if residual:
            tail = offsets[pos:]
            for cut in range(len(tail) + 1):
                assert not sch.mem(xi, tail[:cut])
        else:
            assert not bounds or bounds[-1] == len(seq)
    _report(4, "canonical block representation", t0)


def test_criterion_05_reduction_coherence():
    t0 = time.time()
    rng = random.Random(77)
    for _ in range(500):
        horizon = rng.randint(2, 7)
        prefix = []
        for _ in range(horizon):
            length = rng.randint(1, 3)
            letters = [rng.choice(AB.full) for _ in range(length)]
            letters[rng.randrange(length)] = AB.variable
            prefix.append("".join(letters))
        stream = wxi.VarWordStream(AB, tuple(prefix))
        used = rng.randint(1, horizon)
        cuts = (
            sorted(rng.sample(range(1, used), rng.randint(0, used - 1)))
            if used > 1
            else []
        )
        bounds = [0] + cuts + [used]
        t = tuple(
            "".join(rng.choice(AB.symbols) for _ in range(bounds[i + 1] - bounds[i]))
            for i in range(len(bounds) - 1)
        )
        u = reduce_seq(stream, t)
        recovered = wxi.match_reduction(stream, u, "constant")
        assert recovered == t
        assert d_map(recovered) == d_map(t)
    for xs in ["0", "1", "2", "w"]:
        xi = P(xs)
        direct = wxi.enumerate_wxi(xi, AB, "constant", 8)
        via_e = reductions_wxi(xi, upsilon_stream(AB, 8), "constant", 8)
        assert direct == via_e
    _report(5, "reduction coherence and identity-stream agreement", t0)


def test_criterion_06_cb_index_values():
    t0 = time.time()
    for k in range(4):
        fam = cb.length_truncation_family(AB, "constant", k + 1, k + 1)
        stream = upsilon_stream(AB, 64)
        exact = cb.so_index(fam, stream, cb.ChainOracle("exact", rule="length"))
        horizon = cb.so_index(
            fam, stream, cb.ChainOracle("horizon", horizon=k + 3)
        )
        assert exact == horizon == k + 1, (k, exact, horizon)
    _report(6, "derivative index of length truncations", t0, limit=30.0)


def test_criterion_07_pair_threshold():
    t0 = time.time()
    full = v.ramsey_pair_sweep(6, 3)
    assert full["all_have_witness"]
    assert full["visited"] == full["colorings"] == 2**15
    small = v.ramsey_pair_sweep(5, 3)
    assert not small["all_have_witness"]
    assert small["defeating_coloring"] is not None
    assert small["visited"] == small["colorings"] == 2**10
    _report(7, "pair-coloring threshold at 6 versus 5", t0, limit=10.0)


def test_criterion_08_hales_jewett_instance():
    t0 = time.time()
    rep = v.hales_jewett_M(2, 1, 2, o.ZERO, 4)
    assert rep["M"] == 2
    assert rep["colorings_checked"][2] == 16
    assert rep["defeaters"][1] == {"(a)": 1, "(b)": 2}
    _report(8, "two-letter line threshold", t0, limit=1.0)


def test_criterion_09_witness_integrity():
    t0 = time.time()
    witnesses = []

    col_min = v.Coloring("finsets", 2, "min_mod")
    col_size = v.Coloring("finsets", 2, "size_mod")
    col_const = v.Coloring("finsets", 2, "const", (1,))
    for xi, n, col, target in [
        ("1", 5, col_min, 3),
        ("1", 6, col_size, 3),
        ("2", 6, col_min, 3),
        ("2", 6, col_const, 4),
        ("w", 8, col_const, 8),
    ]:
        out = v.ramsey_schreier_search(P(xi), n, col, target)
        assert out.found, (xi, n)
        witnesses.append(out.witness)

    c_const = v.Coloring("wordseqs", 2, "const", (1,))
    c_flm = v.Coloring("wordseqs", 2, "first_len_mod")
    c_first = v.Coloring("wordseqs", 2, "first_letter", (AB.symbols,))
    for xi, chi1, chi2, depth in [
        ("1", c_const, c_const, 2),
        ("1", c_flm, c_const, 3),
        ("0", c_first, c_const, 3),
        ("w", c_const, c_const, 3),
    ]:
        out = v.carlson_witness_search(P(xi), chi1, chi2, upsilon_stream(AB, 10), depth)
        assert out.found, xi
        witnesses.append(out.witness)

    out = v.hj_line_search(v.Coloring("wordseqs", 2, "total_len_mod"), o.ZERO, AB, 2)
    witnesses.append(out.witness)
    out = v.hj_line_search(c_flm, P("1"), AB, 4, n=2)
    witnesses.append(out.witness)

    chi_sub = v.Coloring("wordset", 2, "size_mod")
    out = v.subspace_search(o.ZERO, chi_sub, upsilon_stream(AB, 6), 2)
    witnesses.append(out.witness)

    checked = 0
    for w in witnesses:
        assert w is not None
        assert v.check_witness(w), w.kind
        checked += 1
    assert checked == len(witnesses) == 12
    _report(9, f"independent re-verification of {checked} witnesses", t0)


def test_criterion_10_tree_dichotomy():
    t0 = time.time()
    rng = random.Random(404)
    e4 = upsilon_stream(AB, 4)
    seqs = list(universe(AB, "constant", 3))
    xis = [P(t) for t in ["1", "2", "w", "w+1"]]
    one_sided = 0
    for i in range(200):
        picked = [s for s in seqs if rng.random() < 0.1]
        tree = fm.star_closure(fm.FamilyOfSeqs(AB, "constant", frozenset(picked)))
        rep = fm.tree_dichotomy_check(tree, xis[i % 4], e4, 3)
        if not rep["equivalent"]:
            one_sided += 1
    assert one_sided == 0
    _report(10, "tree dichotomy on 200 random fixtures", t0)


def test_criterion_11_determinism():
    # each job of the golden battery runs as a CLI process under two hash
    # seeds, and both runs give the exit code and the bytes its files pin
    t0 = time.time()
    for name in ["schreier-enumerate-w2", "verify-hj-0-m4", "verify-pair-sweep-5", "verify-ramsey-3",
                 "cbindex-horizon-e40", "wxi-enumerate-w", "verify-nw-wide"]:
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "schramsey.cli", *JOBS[name][0].split()],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected(name), (name, seed)
    _report(11, "byte-identical reports across hash seeds", t0)
