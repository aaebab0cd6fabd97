"""Strong derivative and index of hereditary families on a stream.

A member survives one derivative pass when its escape set (the reduced
words extending its concatenation whose appended-tail sequence falls
outside the family) admits no unbounded chain in the strict-prefix
order.  The index is the number of passes, minus one, needed to empty
the family; level 0 is the once-derived family.

Membership after j passes is evaluated lazily and memoized per
(class, end, level), where end is the stream position a sequence
reaches as a reduction and class is the family's `key` of it (the
sequence itself, or its length for a length truncation), so escape
tests at level j+1 consult the level-j family itself rather than a
frozen materialization, and each class is decided once.  Two chain
oracles are provided:

  * horizon(H): a depth-first search for a strict-prefix chain of
    length H inside the truncated reduced-word universe, extending by
    one entry of the step table `words.steps` (at most
    `words.MAX_BLOCK_WORDS` stream words) per step.  Every candidate is
    built as a reduction of the stream, so only the family's seeds are
    ever matched against it.  "Chain found" and "no escape word in the
    search window" are definite at this horizon; anything else is
    reported as undecided.

  * exact rule "length": sound for families whose level-j survivors are
    exactly the sequences of length <= K - j for some K (the hereditary
    closures of the fixed-length families): a member escapes at the
    current maximum length and nowhere below it.

Only finite indices are computed; deeper structure is out of reach of a
finite pass count and reported as budget-exceeded.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import BudgetExceeded, HorizonExceeded, OracleUndecided
from .words import (
    Alphabet,
    VarWordStream,
    WordSeq,
    align,
    seq_sort_key,
    seq_text,
    steps,
    universe,
)


MAX_CHAIN_NODES = 500_000  # nodes the horizon chain searches of one derivation may visit
MAX_PASSES = 16  # derivative passes that may empty the family, unless `cbindex --budget` says otherwise


class ChainOracle:
    """How escape is decided: an exact rule, or a chain search to horizon H."""

    __slots__ = ("mode", "rule", "horizon")

    def __init__(self, mode: str, rule: str | None = None, horizon: int | None = None):
        if mode == "exact":
            if rule != "length":
                raise ValueError(f"unknown exact rule {rule!r}")
        elif mode == "horizon":
            if horizon is None:
                raise ValueError("horizon mode needs H (horizon:H)")
            if horizon < 2:
                raise ValueError("horizon mode needs H >= 2")
        else:
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.mode, self.rule, self.horizon = mode, rule, horizon


class CBFamily(NamedTuple):
    """A hereditary family given by an intensional membership test plus a
    materialized seed list used for survivor iteration and counts.

    `key` maps a sequence to its class: two sequences of one class that
    end at the same stream position are members after every pass or
    after none.  The identity is always sound."""

    alph: Alphabet
    side: str
    member_fn: Callable[[WordSeq], bool]
    seeds: tuple[WordSeq, ...]
    label: str = "family"
    key: Callable[[WordSeq], object] = lambda seq: seq


def explicit_cb_family(alph: Alphabet, side: str, members) -> CBFamily:
    mset = frozenset(members)
    seeds = tuple(sorted(mset, key=seq_sort_key))
    return CBFamily(alph, side, lambda seq: seq in mset, seeds, "explicit")


def length_truncation_family(
    alph: Alphabet, side: str, max_len: int, seed_letter_budget: int
) -> CBFamily:
    """The hereditary closure of the fixed-length family: all sequences of
    at most max_len side-consistent words (any letters), seeded within the
    given total letter budget.

    The class of a sequence is its length.  The engine sees a sequence
    only when it is a reduction of the stream on `side`, and `align`
    refuses a block off that side, so every word it sees is
    side-consistent and membership at level 0 depends on the length and
    the end position alone; the escape search from a sequence depends on
    its end position and on the members one word longer, so by
    induction on the level so do its escapes and its membership at
    every later level."""

    seeds = [(), *universe(alph, side, seed_letter_budget, max_words=max_len)]
    return CBFamily(
        alph,
        side,
        lambda seq: len(seq) <= max_len,
        tuple(sorted(seeds, key=seq_sort_key)),
        label=f"len<={max_len}",
        key=len,
    )


class Derivation:
    """The derivatives of one family on one stream under one oracle:
    `survivors(level)`, `first_empty(budget)`, and `nodes`, the
    chain-search nodes visited so far (0 under an exact rule).  Every
    level shares the memos, so asking for a level costs only the passes
    not yet made."""

    def __init__(self, family: CBFamily, stream: VarWordStream, oracle: ChainOracle):
        self.family = family
        self.stream = stream
        self.oracle = oracle
        self.member_memo: dict[tuple[object, int, int], bool] = {}
        self.universe_memo: dict[WordSeq, int | None] = {(): 0}
        self.step_memo: dict[int, tuple[list[tuple[str, int]], bool]] = {}
        self.survivor_memo: dict[int, tuple[WordSeq, ...]] = {}
        self.maxlen_memo: dict[int, int] = {}
        self.nodes = 0

    def end_pos(self, seq: WordSeq) -> int | None:
        """Stream words consumed by seq as a reduction of the stream (on
        the family's side), or None when it is not one: the derivative
        only ever sees the family cut to this universe.  Each word is
        aligned from the end of the sequence before it, so a sequence
        whose prefix was seen aligns only its last word."""
        memo = self.universe_memo
        if seq in memo:
            return memo[seq]
        n = len(seq) - 1
        while seq[:n] not in memo:
            n -= 1
        end = memo[seq[:n]]
        for n in range(n, len(seq)):
            if end is not None:
                try:
                    found = align(self.stream, end, seq[n], self.family.side)
                except HorizonExceeded:  # past the horizon: outside the universe the derivative sees
                    found = None
                end = found[1] if found else None
            memo[seq[: n + 1]] = end
        return end

    # -- membership after `level` passes --------------------------------
    def member_at(self, seq: WordSeq, level: int, end: int | None) -> bool:
        """Whether seq, a reduction ending at stream word `end` (None: not
        a reduction), survives `level` passes."""
        if end is None:
            return False
        if level == 0:
            return self.family.member_fn(seq)
        key = (self.family.key(seq), end, level)
        if key not in self.member_memo:
            value = self.member_at(seq, level - 1, end) and not self.escapes(seq, end, level - 1)
            self.member_memo[key] = value
        return self.member_memo[key]

    def survivors(self, level: int) -> tuple[WordSeq, ...]:
        """The seeds that survive `level` passes, found among those that
        survive one pass fewer."""
        if level not in self.survivor_memo:
            pool = self.survivors(level - 1) if level else self.family.seeds
            self.survivor_memo[level] = tuple(m for m in pool if self.member_at(m, level, self.end_pos(m)))
        return self.survivor_memo[level]

    def first_empty(self, budget: int) -> int:
        """The first level, 1..budget, at which no seed survives."""
        for level in range(1, budget + 1):
            if not self.survivors(level):
                return level
        left = len(self.survivors(budget))
        raise BudgetExceeded("derivation needs pass", budget + 1, budget, f"{left} seeds left", unit="passes")

    # -- escape decision at a level --------------------------------------
    def escapes(self, seq: WordSeq, end: int, level: int) -> bool:
        # not memoized: member_at asks once per member key, so at most
        # once per (class, end, level)
        if self.oracle.mode == "exact":
            return len(seq) == self.current_max_len(level)
        return self._chain_search(seq, end, level)

    # -- horizon-mode chain search ---------------------------------------
    def _chain_search(self, seq: WordSeq, end: int, level: int) -> bool:
        """Depth-first search for a chain of H escape words above seq,
        each a strict prefix of the next.  A node is a tail appended to
        seq; a child extends it by one step and is entered when seq plus
        the new tail is not a member.  `path` holds the tail and the
        untried steps of each node on the current path."""
        H = self.oracle.horizon
        touched_horizon = False

        def enter(k: int):
            nonlocal touched_horizon
            self.nodes += 1
            if self.nodes > MAX_CHAIN_NODES:
                raise BudgetExceeded("chain searches visit", self.nodes, MAX_CHAIN_NODES,
                                     f"level {level}, sequence {seq_text(seq)}", noun="nodes")
            if k not in self.step_memo:
                self.step_memo[k] = steps(self.stream, k, self.family.side)
            entries, cut = self.step_memo[k]
            touched_horizon |= cut
            return iter(entries)

        path = [("", enter(end))]
        while path:
            tail, todo = path[-1]
            for chunk, k in todo:
                new_tail = tail + chunk
                if not self.member_at(seq + (new_tail,), level, k):
                    if len(path) >= H:
                        return True
                    path.append((new_tail, enter(k)))
                    break
            else:
                path.pop()
        if touched_horizon:
            raise OracleUndecided(
                f"no chain of length {H} found but the stream horizon was reached"
            )
        return False

    # -- the exact rule "length" -----------------------------------------
    def current_max_len(self, level: int) -> int:
        if level not in self.maxlen_memo:
            self.maxlen_memo[level] = max(map(len, self.survivors(level)), default=-1)
        return self.maxlen_memo[level]


def so_index(family: CBFamily, stream: VarWordStream, oracle: ChainOracle, budget: int = MAX_PASSES) -> int:
    """Smallest level at which the derived family is empty: the family
    seen after j+1 passes is the level-j derivative, so the returned
    index matches the convention that level 0 is the once-derived family.
    """
    return Derivation(family, stream, oracle).first_empty(budget) - 1


def derivative_profile(
    family: CBFamily, stream: VarWordStream, oracle: ChainOracle, levels: int
) -> list[int]:
    """Survivor counts (over the seeds) at levels 0..levels."""
    deriv = Derivation(family, stream, oracle)
    return [len(deriv.survivors(level)) for level in range(levels + 1)]

