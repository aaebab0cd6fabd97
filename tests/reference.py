"""Reference listings that the tests compare the engines against; not
collected as tests.  Each is written here once, from the definitions, and
is too slow for anything but small inputs.  None calls engine code: the
substitution, offsets, reduction listings, level test and searches are
this module's own, and tests/test_surface.py holds the allow-list of what
it imports from `schramsey` (mem_direct, types, constants, text helpers)."""

from functools import lru_cache
from itertools import combinations, product
from math import comb

from schramsey.schreier import SchreierConfig
from schramsey.verify import Coloring, SearchOutcome, Witness, mem_direct
from schramsey.words import MAX_BLOCK_WORDS, VAR, seq_sort_key, seq_text

# --- ordinals and Schreier families ----------------------------------------


def compare(a, b):
    """-1, 0, 1 as a <, =, > b: the recursive term-by-term comparison that
    `Ordinal` tuple order replaces."""
    for (ea, ca), (eb, cb) in zip(a, b):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    return 0


def all_subsets(n):
    """The subsets of {1..n} as sorted tuples, by size and then lexicographically."""
    return [s for size in range(n + 1) for s in combinations(range(1, n + 1), size)]


@lru_cache(maxsize=None)  # the sweeps ask for one listing many times
def reference_members(xi, max_n, rule):
    """The subsets of {1..max_n} that the split-searching recursion
    accepts under a limit rule, in lexicographic order."""
    cfg = SchreierConfig(rule)
    return tuple(sorted(s for s in all_subsets(max_n) if mem_direct(xi, s, cfg)))


def shifted_members(members, n):
    """A_xi(n) from a listing of A_xi: the tails of the members whose
    minimum is n, sorted."""
    return tuple(sorted(s[1:] for s in members if s and s[0] == n))


def sweep_ramsey(xi, max_n, coloring, target, rule="fixed"):
    """The size-then-lex sweep over every subset, filtering every member
    (by the reference recursion under `rule`) for each one."""
    members = reference_members(xi, max_n, rule)
    visited = 0
    for size in range(target, max_n + 1):
        for L in combinations(range(1, max_n + 1), size):
            visited += 1
            ls = set(L)
            inside = [m for m in members if set(m) <= ls]
            if len({coloring(m) for m in inside}) <= 1:
                certificate = tuple((m, coloring(m)) for m in inside)
                bounds = (("max_n", max_n), ("target", target))
                return SearchOutcome(Witness("mono_set", (L, str(xi), coloring), certificate, bounds), visited)
    expected = sum(comb(max_n, size) for size in range(target, max_n + 1))
    return SearchOutcome(None, visited, expected)


# --- words, reductions and the level-xi families ----------------------------


def compositions(n):
    """The ordered ways to write n as a sum of positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def side_words(alph, side, length):
    """The words of a length on one side, in product order over `alph.full`."""
    letters = alph.full if side == "variable" else alph.symbols
    return ["".join(t) for t in product(letters, repeat=length) if (VAR in t) == (side == "variable")]


def substitute(ws, t):
    """The i-th letter of t put for the variable of the i-th word of ws,
    concatenated."""
    return "".join(w.replace(VAR, a) for w, a in zip(ws, t))


def offsets(lengths):
    """The 1-based letter positions at which the second and later words
    of a sequence with these word lengths start."""
    starts = [1]
    for n in lengths[:-1]:
        starts.append(starts[-1] + n)
    return tuple(starts[1:])


def in_level(xi, lengths, rule="fixed"):
    """Whether a sequence with these word lengths is at level xi: one word
    at level 0, else at least two words whose offsets lie in A_xi."""
    if not xi:
        return len(lengths) == 1
    return len(lengths) >= 2 and mem_direct(xi, offsets(lengths), SchreierConfig(rule))


def product_reductions(seq, alph, side):
    """Every cut of a non-empty seq into blocks x every assignment of a
    letter or the variable to each word, kept when every block is on
    `side`: the reductions of the whole of seq, by cut and then by
    assignment in product order (so the one-block reductions come first)."""
    n = len(seq)
    out = []
    for cuts in product((False, True), repeat=n - 1):
        bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
        blocks = list(zip(bounds, bounds[1:]))
        for assign in product(alph.full, repeat=n):
            if all((VAR in assign[lo:hi]) == (side == "variable") for lo, hi in blocks):
                out.append(tuple(substitute(seq[lo:hi], assign[lo:hi]) for lo, hi in blocks))
    return out


def one_block_reductions(ws, alph, side):
    """ws reduced as one block, by letters in product order."""
    return [r[0] for r in product_reductions(ws, alph, side) if len(r) == 1]


def hereditary_reductions(seq, alph, side):
    """The non-empty reductions of the non-empty initial segments of seq,
    in canonical order."""
    found = {r for k in range(1, len(seq) + 1) for r in product_reductions(seq[:k], alph, side)}
    return tuple(sorted(found, key=seq_sort_key))


def span(seq, alph):
    """The word-by-word images of seq under every constant letter choice."""
    return {tuple(w.replace(VAR, a) for w, a in zip(seq, assign)) for assign in product(alph.symbols, repeat=len(seq))}


def hereditary_closure(members, alph, side):
    """{()} and what a hereditary family holding the members must hold: on
    the variable side their hereditary reductions; on the constant side
    the spans of the hereditary reductions of their variable witnesses,
    the variable sequences whose span lies among the members."""
    out = {()}
    if side == "variable":
        for m in members:
            out.update(hereditary_reductions(m, alph, "variable"))
        return out
    shapes = {tuple(map(len, m)) for m in members if m}
    for shape in shapes:
        for t in product(*(side_words(alph, "variable", n) for n in shape)):
            if span(t, alph) <= members:
                for r in hereditary_reductions(t, alph, "variable"):
                    out |= span(r, alph)
    return out


def union_of_hereditary_subfamilies(members, alph, side):
    """The union of the hereditary families inside a family's members.
    Every hereditary family holds the empty sequence, so the candidates
    are () plus each subset of the other members."""
    rest = sorted(set(members) - {()}, key=seq_sort_key)
    union = set()
    for size in range(len(rest) + 1):
        for sub in combinations(rest, size):
            candidate = {(), *sub}
            if hereditary_closure(candidate, alph, side) == candidate:
                union |= candidate
    return union


def reductions_wxi(xi, stream, side, letter_budget):
    """The level-xi reductions of a stream: every side-consistent
    letter-word sequence of at most min(letter_budget, horizon) letters
    whose offsets lie in A_xi, substituted block by block into the
    stream's words, in canonical order."""
    out = []
    for total in range(1, min(letter_budget, stream.horizon) + 1):
        for shape in compositions(total):
            if not in_level(xi, shape):
                continue
            starts = (0,) + tuple(a - 1 for a in offsets(shape))  # 0-based stream word of each block
            for t in product(*(side_words(stream.alph, side, n) for n in shape)):
                out.append(tuple(substitute(stream.prefix[a : a + len(x)], x) for a, x in zip(starts, t)))
    return tuple(sorted(out, key=seq_sort_key))


# --- the reduction-prefix searches -------------------------------------------


def scratch_family(u, xi, alph, side, rule):
    """The level-xi reductions of u's non-empty initial segments on one side."""
    return tuple(s for s in hereditary_reductions(u, alph, side) if in_level(xi, tuple(map(len, s)), rule))


def scratch_carlson(xi, chi1, chi2, stream, depth, rule="fixed"):
    """The prefix search that rebuilds the reductions of every prefix of
    the candidate at every node, testing membership with the reference
    recursion under `rule`."""
    alph = stream.alph
    per_step = sum(len(alph.full) ** b - len(alph.symbols) ** b for b in range(1, MAX_BLOCK_WORDS + 1))
    visited = 0  # leaves reached, and leaves under each pruned node

    def blocks_from(k):
        for b in range(1, min(MAX_BLOCK_WORDS, stream.horizon - k) + 1):
            for blk in one_block_reductions(stream.prefix[k : k + b], alph, "variable"):
                yield blk, b

    def mono(u):
        const = scratch_family(u, xi, alph, "constant", rule)
        if len({chi1(s) for s in const}) > 1:
            return None
        var = scratch_family(u, xi, alph, "variable", rule)
        if len({chi2(s) for s in var}) > 1:
            return None
        return const, var

    def dfs(u, k):
        nonlocal visited
        if len(u) == depth:
            visited += 1
            return u
        for blk, b in blocks_from(k):
            cand = u + (blk,)
            if mono(cand) is None:
                visited += per_step ** (depth - len(cand))
            elif (hit := dfs(cand, k + b)) is not None:
                return hit
        return None

    found = dfs((), 0)
    if found is None:
        return SearchOutcome(None, visited, per_step**depth)
    const, var = mono(found)
    certificate = tuple([("c", seq_text(s), chi1(s)) for s in const] + [("v", seq_text(s), chi2(s)) for s in var])
    bounds = (("depth", depth), ("block_cap", MAX_BLOCK_WORDS), ("horizon", stream.horizon))
    witness = Witness("reduction_prefix", (found, str(xi), chi1, chi2, alph.symbols), certificate, bounds)
    return SearchOutcome(witness, visited, per_step**depth)


def scratch_subspace(xi, chi, stream, depth, rule="fixed"):
    """The subspace search on top of the from-scratch prefix search: the
    set coloring pulled back to the constant reduced words of one block."""
    pulled = lambda seq: chi(frozenset(one_block_reductions(seq, stream.alph, "constant")))
    out = scratch_carlson(xi, Coloring("wordseqs", 1, "const", (1,)), pulled, stream, depth, rule)
    if out.witness is None:
        return out
    base = out.witness
    certificate = tuple((t, c) for side, t, c in base.certificate if side == "v")
    witness = Witness("subspace_prefix", (base.payload[0], str(xi), chi, stream.alph.symbols), certificate, base.bounds)
    return SearchOutcome(witness, out.visited, out.expected)


# --- the nw fixture laws -------------------------------------------------------


def definitional_prefix(shape, raw_ok, slack=12):
    """Some padding of the shape by one-letter words is a raw member shape."""
    return any(raw_ok(shape + (1,) * extra) for extra in range(slack))


def definitional_substar(t, raw_ok):
    """Split each word into pieces and test whether some refinement's shape
    extends to a raw member shape; piece feasibility is guaranteed because
    every segment can host the variable or echo one of its own letters."""
    return any(definitional_prefix(tuple(piece for pieces in combo for piece in pieces), raw_ok)
               for combo in product(*(list(compositions(len(x))) for x in t)))


def all_small_var_seqs(alph, max_letters):
    """Every variable sequence of 1..max_letters letters, by letters, then
    word lengths, then letters."""
    return [t for total in range(1, max_letters + 1) for shape in compositions(total)
            for t in product(*(side_words(alph, "variable", n) for n in shape))]
