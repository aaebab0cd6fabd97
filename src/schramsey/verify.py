"""Brute-force finite-instance verifiers and witness searches.

Every search runs over explicitly bounded universes and stamps its
bounds into the result; nothing here claims more than the finite
instance it examined.  Witnesses carry certificates that an independent
checker re-derives from scratch: the checker's set membership goes
through `mem_direct`, a split-searching recursion that shares no code
with the greedy membership used by the searches.  Only this reference
side takes a limit rule (`SchreierConfig`): the searches walk the fixed
approximating sequence, which defines the same families as the
successor rule, and the checkers are where the two are compared.

The searches take their colorings as `Coloring` records, called as
`chi(x)`.  One table, `RULES`, says which domains each rule colors and
what color it gives; `parse_coloring` reads the text form of a rule and
refuses, before any search runs, a rule on a domain it does not color.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from . import ordinal as o
from . import schreier
from .errors import BudgetExceeded
from .ordinal import Ordinal
from .schreier import DEFAULT_CONFIG, FinSet, SchreierConfig

if TYPE_CHECKING:
    from .words import Alphabet, VarWordStream, WordSeq

# The word-side searches and checkers import `words` and `wxi` where they
# run, so a set-side job (Ramsey search, pair sweep) loads neither.

MAX_COLORING_SPACE = 1 << 20
MAX_CHECK_STEPS = 1 << 17  # mem_direct recursion steps of one mono_set check


# --- independent membership checker ------------------------------------


def _splits(s: tuple, count: int):
    """All ways to cut s into `count` consecutive non-empty blocks."""
    if count == 0:
        if not s:
            yield ()
        return
    if len(s) < count:
        return
    for cuts in combinations(range(1, len(s)), count - 1):
        bounds = (0,) + cuts + (len(s),)
        yield tuple(s[bounds[i] : bounds[i + 1]] for i in range(count))


def mem_direct(xi: Ordinal, s, cfg: SchreierConfig = DEFAULT_CONFIG, tick=None) -> bool:
    """Membership by the recursive definition with exhaustive split search
    (no greedy shortcut); the independent oracle for mem.  `tick`, if
    given, is called once per recursion step, so a caller can meter the
    work."""
    if tick is not None:
        tick()
    t = tuple(s)
    if not xi:
        return t == ()
    if not t:
        return False
    k = o.kind(xi)
    if k == "successor":
        return mem_direct(o.pred(xi), t[1:], cfg, tick)
    if len(xi) == 1 and xi[0][1] == 1:
        e = xi[0][0]
        n = t[0]
        if o.kind(e) == "successor":
            below = o.omega_pow(o.pred(e))
            return any(
                all(mem_direct(below, blk, cfg, tick) for blk in split)
                for split in _splits(t, n)
            )
        return mem_direct(o.omega_pow(cfg.step(e, n)), t, cfg, tick)
    powers = []
    for exp, count in reversed(xi):
        powers.extend([o.omega_pow(exp)] * count)
    return any(
        all(mem_direct(p, blk, cfg, tick) for p, blk in zip(powers, split))
        for split in _splits(t, len(powers))
    )


# --- colorings ----------------------------------------------------------


def _first_letter(c: "Coloring", x) -> int:
    symbols = c.params[0]
    ch = x[0][0] if x else None
    return (symbols.index(ch) % c.colors) + 1 if ch in symbols else 1


# rule -> (the domains it colors, the color it gives x): finite sets
# ("finsets"), word sequences ("wordseqs"), sets of subspace points ("wordset")
RULES = {
    "const": (("finsets", "wordseqs", "wordset"), lambda c, x: c.params[0] if c.params else 1),
    "size_mod": (("finsets", "wordseqs", "wordset"), lambda c, x: (len(x) % c.colors) + 1),
    "min_mod": (("finsets",), lambda c, x: (min(x) % c.colors) + 1 if x else 1),
    "first_len_mod": (("wordseqs",), lambda c, x: (len(x[0]) % c.colors) + 1 if x else 1),
    "total_len_mod": (("wordseqs",), lambda c, x: (sum(len(w) for w in x) % c.colors) + 1),
    "first_letter": (("wordseqs",), _first_letter),
    "min_len_mod": (("wordseqs", "wordset"), lambda c, x: (min(len(w) for w in x) % c.colors) + 1 if x else 1),
}


class Coloring(NamedTuple):
    """Serializable coloring: a rule of RULES with its parameters, on one
    of the rule's domains.  `chi(x)` is the color of x."""

    domain: str
    colors: int
    rule: str
    params: tuple = ()

    def __call__(self, x) -> int:
        return RULES[self.rule][1](self, x)

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "colors": self.colors,
            "rule": self.rule,
            "params": list(self.params),
        }

    @staticmethod
    def from_json(data: dict) -> "Coloring":
        return Coloring(
            data["domain"], data["colors"], data["rule"], tuple(map(tuple_or_id, data["params"]))
        )


def tuple_or_id(x):
    return tuple(x) if isinstance(x, list) else x


def parse_coloring(text: str, domain: str, symbols: tuple = ()) -> Coloring:
    """The coloring `rule[:colors]` or `const:colors[:color]` of `domain`
    (2 colors and color 1 when left out); `first_letter` ranks first
    letters by `symbols`.  A spec the table does not define is refused
    here, before any search, with a ValueError that names it."""
    name, *fields = text.split(":")
    rule = "size_mod" if name == "set_size_mod" else name
    if rule not in RULES or domain not in RULES[rule][0]:
        there = ", ".join(r for r in RULES if domain in RULES[r][0])
        raise ValueError(f"coloring {text!r}: no rule {name!r} on {domain} (rules: {there})")
    if len(fields) > (2 if rule == "const" else 1):
        raise ValueError(f"coloring {text!r}: too many fields for {name}")
    try:
        nums = [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"coloring {text!r}: fields must be integers") from None
    colors, color = nums + [2, 1][len(nums):]
    if colors < 1:
        raise ValueError(f"coloring {text!r}: colors must be >= 1, got {colors}")
    params: tuple = ()
    if rule == "const":
        if not 1 <= color <= colors:
            raise ValueError(f"coloring {text!r}: color {color} is outside 1..{colors}")
        params = (color,)
    elif rule == "first_letter":
        params = (tuple(symbols),)
    return Coloring(domain, colors, rule, params)


# --- witnesses ----------------------------------------------------------


class Witness(NamedTuple):
    kind: str
    payload: tuple
    certificate: tuple
    bounds: tuple


def _certificate_holds(certificate: tuple, expected: list) -> bool:
    """The comparison every checker ends in: the certificate is exactly
    the expected entries, compared as sorted lists so that a dropped,
    recolored or duplicated entry fails, and the entries of each side
    tag share one color.  An entry is (item, color), or (side tag, item,
    color) where a witness colors two sides."""
    if sorted(certificate) != sorted(expected):
        return False
    colors: dict[tuple, set] = {}
    for entry in expected:
        colors.setdefault(entry[:-2], set()).add(entry[-1])
    return all(len(c) == 1 for c in colors.values())


class SearchOutcome(NamedTuple):
    witness: Witness | None
    visited: int
    expected: int | None = None
    nodes: int | None = None  # search-tree nodes, where the search counts them

    @property
    def found(self) -> bool:
        return self.witness is not None


def _backtrack(root, children, depth: int):
    """The depth-first core of the witness searches: the first node
    `depth` steps below root, where `children(node)` yields each child in
    order, or None for a child cut at a color clash.  Returns that leaf
    (None when the search is exhausted), the number of children tried, and
    the number of children cut at each level 0..depth."""
    tried, cuts = 0, [0] * (depth + 1)

    def walk(node, level: int):
        nonlocal tried
        if level == depth:
            return node
        for child in children(node):
            tried += 1
            if child is None:
                cuts[level + 1] += 1
            elif (leaf := walk(child, level + 1)) is not None:
                return leaf
        return None

    return walk(root, 0), tried, cuts


# --- ordinal Ramsey search ----------------------------------------------


def ramsey_schreier_search(xi: Ordinal, max_n: int, coloring: Coloring, target: int) -> SearchOutcome:
    """Find the canonically least L within {1..max_n}, |L| >= target, on
    which every family member contained in L has one color.

    Monochromatic is hereditary, so the least such L in size-then-lex
    order has exactly `target` elements, and it is the first target-set
    that a depth-first search reaches when it adds elements in ascending
    order and cuts each branch at its first color clash.  Adding x tests
    only the members whose maximum is x.  `visited` counts the candidate
    sets the size-then-lex order decides (rank(L) + 1 among the
    target-sets, or the whole space when exhausted); `nodes` counts the
    sets the search tested.
    """
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    members = schreier.enumerate_members(xi, max_n)
    # the empty member, A_0's only one, can meet no second color
    by_max: list[list[tuple[int, FinSet]]] = [[] for _ in range(max_n + 1)]
    for m in members:
        if m:
            by_max[m[-1]].append((sum(1 << x for x in m[:-1]), m))

    def children(node):
        L, mask, color = node
        for x in range(L[-1] + 1 if L else 1, max_n + 2 - (target - len(L))):
            c = color
            for others, m in by_max[x]:
                if others & mask == others:
                    got = coloring(m)
                    if c is None:
                        c = got
                    elif got != c:
                        yield None
                        break
            else:
                yield L + (x,), mask | 1 << x, c

    leaf, nodes, _cuts = _backtrack(((), 0, None), children, target)
    if leaf is None:
        expected = sum(comb(max_n, size) for size in range(target, max_n + 1))
        return SearchOutcome(None, expected, expected, nodes)
    L = leaf[0]
    ls = set(L)
    witness = Witness(
        kind="mono_set",
        payload=(L, str(xi), coloring),
        certificate=tuple((m, coloring(m)) for m in members if ls.issuperset(m)),
        bounds=(("max_n", max_n), ("target", target)),
    )
    return SearchOutcome(witness, _lex_rank(L, max_n) + 1, None, nodes)


def _lex_rank(L: FinSet, n: int) -> int:
    """The number of len(L)-subsets of {1..n} before L in lex order."""
    rank, prev = 0, 0
    for i, x in enumerate(L):
        rank += sum(comb(n - v, len(L) - i - 1) for v in range(prev + 1, x))
        prev = x
    return rank


def check_mono_set_witness(w: Witness, cfg: SchreierConfig = DEFAULT_CONFIG) -> bool:
    """Re-derive a mono_set certificate from scratch: enumerate subsets of
    L directly, test membership with the split-searching recursion, and
    re-apply the coloring.  The subsets and the membership steps are
    each held to a budget."""
    L, xi_text, coloring = w.payload
    if 1 << len(L) > MAX_COLORING_SPACE:
        raise BudgetExceeded("mono_set check walks", 1 << len(L), MAX_COLORING_SPACE, f"|L|={len(L)}", noun="subsets")
    xi = o.parse(xi_text)
    spent = size = 0

    def tick():
        nonlocal spent
        if spent == MAX_CHECK_STEPS:
            raise BudgetExceeded("mono_set check takes", spent + 1, MAX_CHECK_STEPS,
                                 f"subsets of size {size} of |L|={len(L)}", noun="membership steps")
        spent += 1

    expected = []
    for size in range(len(L) + 1):
        for sub in combinations(L, size):
            if mem_direct(xi, sub, cfg, tick):
                expected.append((sub, coloring(sub)))
    return _certificate_holds(w.certificate, expected)


def ramsey_pair_sweep(max_n: int, target: int = 3) -> dict:
    """Exhaust every 2-coloring of the pairs of {1..max_n}: does each one
    admit a `target`-element set all of whose pairs share a color?  Scans
    the whole coloring space; reports the least defeating coloring, if any.
    Refuses, before any work, a space over MAX_COLORING_SPACE.
    """
    exponent = comb(max_n, 2)
    if exponent >= MAX_COLORING_SPACE.bit_length():  # 2^exponent > MAX_COLORING_SPACE; 2^exponent is never built
        raise BudgetExceeded("pair-sweep colors", exponent, MAX_COLORING_SPACE.bit_length() - 1, f"n={max_n}",
                             noun="pairs", unit="pairs")
    pairs = list(combinations(range(1, max_n + 1), 2))
    triple_masks = []
    for trip in combinations(range(1, max_n + 1), target):
        mask = 0
        for p in combinations(trip, 2):
            mask |= 1 << pairs.index(p)
        triple_masks.append((trip, mask))
    total = 1 << len(pairs)
    defeater = None
    visited = 0
    for c in range(total):
        visited += 1
        ok = any((c & m) == 0 or (c & m) == m for _t, m in triple_masks)
        if not ok and defeater is None:
            defeater = c
    return {
        "max_n": max_n,
        "target": target,
        "colorings": total,
        "visited": visited,
        "all_have_witness": defeater is None,
        "defeating_coloring": defeater,
    }


# --- reduction-prefix witness search -------------------------------------


def _colored_sides(chi1, chi2) -> list:
    """(certificate tag, side, coloring) for each side with a coloring."""
    both = (("c", "constant", chi1), ("v", "variable", chi2))
    return [(tag, side, chi) for tag, side, chi in both if chi is not None]


def carlson_witness_search(xi: Ordinal, chi1, chi2, stream: VarWordStream, depth: int) -> SearchOutcome:
    """Backtracking search for a variable-reduction prefix of the stream,
    `depth` blocks long, whose level-xi reductions are chi1-monochromatic
    on the constant side and chi2-monochromatic on the variable side.  A
    side whose coloring is None is not searched.

    A child appends one entry of the step table `words.steps` on the
    variable side, so a candidate block spans at most MAX_BLOCK_WORDS
    stream words; the first witness in canonical order (block size, then
    letters) is returned.  A stream shorter than depth * MAX_BLOCK_WORDS
    words would cut some step lists, so it is refused before any work.
    Each node carries, per searched side, its frontier: the level-xi
    reductions of all its prefixes with their one color.  A child adds
    only the reductions that use its new block, and checks their colors
    against the parent's.
    """
    from . import words, wxi

    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth * words.MAX_BLOCK_WORDS > stream.horizon:
        raise ValueError(
            f"a prefix search of depth {depth} needs a stream horizon of at least "
            f"{depth * words.MAX_BLOCK_WORDS}, got {stream.horizon}"
        )
    alph = stream.alph
    # the checker lists the found prefix's reductions under this budget
    words.require_reduction_budget(depth, alph)
    sides = _colored_sides(chi1, chi2)
    per_step = len(words.steps(stream, 0, "variable")[0])

    def grow(frontiers: list, cand: WordSeq):
        """The frontiers of cand, one per searched side, or None on a
        second color on any side."""
        grown = []
        for (_tag, side, chi), frontier in zip(sides, frontiers):
            new = dict(frontier)
            color = next(iter(frontier.values()), None)
            # these cuts use the new block, so they have more letters than any
            # reduction in the parent's frontier; a cut d fixes the word lengths,
            # so the level test depends on d alone
            level: dict[tuple, bool] = {}
            for seq, d in words.reductions(cand, alph, side):
                if d not in level:
                    level[d] = wxi.in_level(xi, seq, schreier.mem)
                if level[d]:
                    new[seq] = c = chi(seq)
                    if color is None:
                        color = c
                    elif c != color:
                        return None
            grown.append(new)
        return grown

    def children(node):
        u, k, frontiers = node
        for blk, end in words.steps(stream, k, "variable")[0]:
            cand = u + (blk,)
            grown = grow(frontiers, cand)
            yield None if grown is None else (cand, end, grown)

    leaf, _tried, cuts = _backtrack(((), 0, [{} for _ in sides]), children, depth)
    # a cut at level l decides the per_step^(depth - l) leaves below it
    visited = (leaf is not None) + sum(c * per_step ** (depth - level) for level, c in enumerate(cuts))
    if leaf is None:
        return SearchOutcome(None, visited, per_step**depth)
    u, _end, frontiers = leaf
    cert = tuple(
        (tag, words.seq_text(s), frontier[s])
        for (tag, _side, _chi), frontier in zip(sides, frontiers)
        for s in sorted(frontier, key=words.seq_sort_key)
    )
    witness = Witness(
        kind="reduction_prefix",
        payload=(u, str(xi), chi1, chi2, alph.symbols),
        certificate=cert,
        bounds=(("depth", depth), ("block_cap", words.MAX_BLOCK_WORDS), ("horizon", stream.horizon)),
    )
    return SearchOutcome(witness, visited, per_step**depth)


def check_reduction_prefix_witness(w: Witness, cfg: SchreierConfig = DEFAULT_CONFIG) -> bool:
    """Re-derive a reduction_prefix certificate with the independent
    membership recursion and a fresh listing of the reductions a
    hereditary family holding the prefix must hold."""
    from . import words, wxi

    words_text, xi_text, chi1, chi2, symbols = w.payload
    alph = words.Alphabet(tuple(symbols))
    xi = o.parse(xi_text)
    u = tuple(words.word(t, alph) for t in words_text)
    if not words.side_consistent(u, "variable"):
        return False
    expected = [
        (tag, words.seq_text(s), chi(s))
        for tag, side, chi in _colored_sides(chi1, chi2)
        for s in words.hereditary_reductions(u, alph, side)
        if wxi.in_level(xi, s, partial(mem_direct, cfg=cfg))
    ]
    return _certificate_holds(w.certificate, expected)


def subspace_search(xi: Ordinal, chi, stream: VarWordStream, depth: int) -> SearchOutcome:
    """Search for a prefix all of whose level-xi variable reductions span
    subspaces of one chi-color: the prefix search on the variable side
    alone, with the subspace coloring pulled back to generators."""
    from . import words

    pulled = lambda seq: chi(frozenset(words.reduced_words(seq, stream.alph, "constant")))
    out = carlson_witness_search(xi, None, pulled, stream, depth)
    if out.witness is None:
        return out
    base = out.witness
    witness = Witness(
        kind="subspace_prefix",
        payload=(base.payload[0], str(xi), chi, stream.alph.symbols),
        certificate=tuple((t, c) for _side, t, c in base.certificate),
        bounds=base.bounds,
    )
    return out._replace(witness=witness)


def check_subspace_witness(w: Witness, cfg: SchreierConfig = DEFAULT_CONFIG) -> bool:
    """A subspace_prefix witness holds when the reduction_prefix witness
    of its coloring pulled back to generators, on the variable side, does."""
    from . import words

    words_text, xi_text, chi, symbols = w.payload
    alph = words.Alphabet(tuple(symbols))
    pulled = lambda seq: chi(frozenset(words.reduced_words(seq, alph, "constant")))
    prefix = Witness("reduction_prefix", (words_text, xi_text, None, pulled, symbols),
                     tuple(("v", *entry) for entry in w.certificate), w.bounds)
    return check_reduction_prefix_witness(prefix, cfg)


# --- Hales-Jewett instances ----------------------------------------------


_LETTERS = "abcdefgh"


def _hj_cube(xi: Ordinal, alph: Alphabet, M: int) -> tuple[WordSeq, ...]:
    """Level-xi sequences whose word lengths sum to exactly M."""
    from . import wxi

    return tuple(
        s
        for s in wxi.enumerate_wxi(xi, alph, "constant", M)
        if sum(len(w) for w in s) == M
    )


def _hj_generators(xi: Ordinal, alph: Alphabet, M: int, n: int):
    """Variable n-word generators of total length M, paired with their
    level-xi reduction sets (full consumption, own offsets)."""
    from . import words, wxi

    gens = []
    for shape in words.shapes(M, n) if n <= M else ():
        for g in words.fill_words(shape, "variable", alph):
            rset = tuple(
                seq for seq, _d in words.finite_reductions(g, alph, "constant") if wxi.in_level(xi, seq, schreier.mem)
            )
            if rset:
                gens.append((g, rset))
    return gens


def hj_level(r: int, n: int, k: int, xi: Ordinal, M: int):
    """Exhaust every r-coloring of the level-xi length-M sequences: does
    each one admit a monochromatic n-word generator?  Returns
    (ok, defeating assignment or None, colorings checked, cube)."""
    from . import words

    alph = words.Alphabet(tuple(_LETTERS[:k]))
    cube = _hj_cube(xi, alph, M)
    if not cube:
        return (False, None, 0, cube)
    # r^points colorings, at least 2^log2_at_least.  From 2^64 on, the stop
    # is decided and worded on that bound, since r^points may have more
    # digits than an int prints; below it, the power is built and named
    log2_at_least = len(cube) * (r.bit_length() - 1)
    if log2_at_least >= 64:
        raise BudgetExceeded("hj coloring space has a log2 of at least", log2_at_least,
                             MAX_COLORING_SPACE.bit_length() - 1, f"M={M}")
    space = r ** len(cube)
    if space > MAX_COLORING_SPACE:
        raise BudgetExceeded("hj coloring space holds", space, MAX_COLORING_SPACE, f"M={M}", noun="colorings")
    gens = _hj_generators(xi, alph, M, n)
    index = {s: i for i, s in enumerate(cube)}
    # every level-xi reduction of a length-M generator is in the cube
    gen_idx = [tuple(index[s] for s in rset) for _g, rset in gens]
    count = 0
    for assign in product(range(1, r + 1), repeat=len(cube)):
        count += 1
        if not any(len({assign[i] for i in idxs}) == 1 for idxs in gen_idx):
            return (False, dict(zip(cube, assign)), count, cube)
    return (True, None, count, cube)


def hales_jewett_M(r: int, n: int, k: int, xi: Ordinal, m_max: int) -> dict:
    """Least M <= m_max such that every r-coloring of the level-xi
    sequences of total length M admits an n-word variable generator whose
    reductions inside that set are monochromatic.

    Exhausts the full coloring space at each M; records a defeating
    coloring for every M that fails.  Refuses r < 1 (no coloring to
    check), n < 1 and more letters than _LETTERS holds, so the bounds
    it stamps are the ones that ran.
    """
    from . import words

    if r < 1 or n < 1:
        raise ValueError(f"hales_jewett_M needs r >= 1 and n >= 1, got r={r}, n={n}")
    if k > len(_LETTERS):
        raise ValueError(f"k={k} letters exceeds the {len(_LETTERS)} available")
    defeaters: dict[int, dict] = {}
    checked: dict[int, int] = {}
    found = cube_size = None
    for M in range(1, m_max + 1):
        ok, defeated, count, cube = hj_level(r, n, k, xi, M)
        checked[M] = count
        if ok:
            found, cube_size = M, len(cube)
            break
        if defeated is not None:
            defeaters[M] = defeated
    return {
        "M": found,
        "cube_size": cube_size,
        "colorings_checked": checked,
        "defeaters": {mm: {words.seq_text(s): c for s, c in d.items()} for mm, d in defeaters.items()},
        "bounds": {"m_max": m_max, "r": r, "n": n, "k": k, "xi": str(xi)},
    }


def hj_line_search(coloring, xi: Ordinal, alph: Alphabet, M: int, n: int = 1) -> SearchOutcome:
    """Single-coloring mode: the canonically least monochromatic n-word
    generator of total length M for the given coloring."""
    from . import words

    gens = _hj_generators(xi, alph, M, n)
    # a depth-1 search: each generator is a leaf, cut unless monochromatic
    mono = lambda _root: (gen if len({coloring(s) for s in gen[1]}) == 1 else None for gen in gens)
    leaf, visited, _cuts = _backtrack(None, mono, 1)
    if leaf is None:
        return SearchOutcome(None, visited, len(gens))
    g, rset = leaf
    witness = Witness(
        kind="hj_line",
        payload=(g, str(xi), coloring, alph.symbols, M),
        certificate=tuple((words.seq_text(s), coloring(s)) for s in rset),
        bounds=(("M", M), ("n", n)),
    )
    return SearchOutcome(witness, visited, len(gens))


def check_hj_line_witness(w: Witness, cfg: SchreierConfig = DEFAULT_CONFIG) -> bool:
    from . import words, wxi

    words_text, xi_text, coloring, symbols, M = w.payload
    alph = words.Alphabet(tuple(symbols))
    xi = o.parse(xi_text)
    g = tuple(words.word(t, alph) for t in words_text)
    if sum(len(x) for x in g) != M or not words.side_consistent(g, "variable"):
        return False
    expected = [
        (words.seq_text(seq), coloring(seq))
        for seq, _d in words.finite_reductions(g, alph, "constant")
        if wxi.in_level(xi, seq, partial(mem_direct, cfg=cfg))
    ]
    return _certificate_holds(w.certificate, expected)


def check_witness(w: Witness, cfg: SchreierConfig = DEFAULT_CONFIG) -> bool:
    """Dispatch to the kind-specific independent checker."""
    if w.kind == "mono_set":
        return check_mono_set_witness(w, cfg)
    if w.kind == "reduction_prefix":
        return check_reduction_prefix_witness(w, cfg)
    if w.kind == "subspace_prefix":
        return check_subspace_witness(w, cfg)
    if w.kind == "hj_line":
        return check_hj_line_witness(w, cfg)
    raise ValueError(f"unknown witness kind {w.kind!r}")


# --- dichotomy fixtures ---------------------------------------------------

# Two intensional families over variable-word sequences, each hereditary
# once closed, shaped so their index machinery lands just past the first
# limit level.  "wide": members have 2k+2 words and first-word length
# k-1; closing under prefixes and reductions leaves exactly the numeric
# law  len(t) <= 2*len(t1) + 4.  "narrow": members have k+1 words and
# first-word length 2k-1; the closure law splits on the parity of the
# first word's length.  Both laws are validated in the test suite against
# a definitional split-and-unsubstitute search.


def wide_fixture_member(t: WordSeq) -> bool:
    """Hereditary closure of the wide fixture family."""
    if not t:
        return True
    return len(t) <= 2 * len(t[0]) + 4


def narrow_fixture_member(t: WordSeq) -> bool:
    """Hereditary closure of the narrow fixture family."""
    if not t:
        return True
    c = len(t[0])
    if c % 2 == 1:
        return 2 * len(t) <= c + 3
    return 2 * len(t) <= c


def nw_fixture_check(fixture: str, alph: Alphabet, letter_budget: int) -> dict:
    """Probe a dichotomy fixture at truncation.

    wide:   every first-limit-level sequence in the reduction universe of
            the identity stream lies inside the fixture's constant-side
            closure (substitution spans of the hereditary closure).
    narrow: on the stream (v, vv, vv, vv, vv) every first-limit-level
            variable reduction lies in the complement of the closure; the
            probe stops at the stream's 5 letters, and the report stamps
            the budget it ran.
    empty:  vacuous pass.

    Also reports the horizon-qualified derivative profile of a small
    materialized shadow of the closure.
    """
    from . import cbindex, words, wxi

    if fixture == "empty":
        return {"fixture": fixture, "letter_budget": letter_budget, "probed": 0, "consistent": True}
    if fixture == "wide":
        members = wxi.enumerate_wxi(o.OMEGA, alph, "constant", letter_budget)
        inside = [s for s in members if wide_fixture_member(s)]
        report = {"probed": len(members), "inside": len(inside), "consistent": len(inside) == len(members),
                  "horn": "inside"}
        law, shadow_letters = wide_fixture_member, 6
    elif fixture == "narrow":
        stream = words.pattern_stream(alph, ["_"], ["__"], 5)
        letter_budget = min(letter_budget, stream.horizon)
        reduced = (words.reduce_seq(stream, t) for t in words.universe(alph, "variable", letter_budget))
        probes = [v for v in reduced if wxi.in_level(o.OMEGA, v, schreier.mem)]
        outside = [v for v in probes if not narrow_fixture_member(v)]
        report = {"probed": len(probes), "outside": len(outside), "consistent": len(outside) == len(probes),
                  "horn": "complement"}
        law, shadow_letters = narrow_fixture_member, 5
    else:
        raise ValueError(f"unknown fixture {fixture!r}")
    shadow = [()] + [s for s in words.universe(alph, "variable", shadow_letters) if law(s)]
    profile = cbindex.derivative_profile(
        cbindex.explicit_cb_family(alph, "variable", shadow, label=fixture),
        words.upsilon_stream(alph, 24), cbindex.ChainOracle("horizon", horizon=3), 2,
    )
    report.update({"fixture": fixture, "letter_budget": letter_budget, "shadow_size": len(shadow),
                   "derivative_profile": profile})
    return report
