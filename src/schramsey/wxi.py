"""Ordinal-indexed families of word sequences.

A sequence of l >= 2 words belongs to the level-xi family when its
offset set d_map(seq) is a member of A_xi; level 0 is the single-word
sequences.  Relative to a base stream the same test applies to the
recovered letter-word sequence, whose block structure generally differs
from the output's own offsets.  Every (long enough) sequence splits
uniquely into consecutive level-xi blocks, each later block taken with
the concatenation of everything before it; the splitting is computed
directly on the offset stream.
"""

from __future__ import annotations

from math import prod

from . import schreier, words
from .errors import BudgetExceeded, HorizonExceeded, ReductionMismatch
from .ordinal import Ordinal
from .words import (
    Alphabet,
    VarWordStream,
    WordSeq,
    align,
    d_map,
    fill_words,
    seq_sort_key,
    side_consistent,
)

MAX_LETTER_BUDGET = 16


def match_reduction(stream: VarWordStream, useq: WordSeq, side: str) -> WordSeq:
    """Invert a block reduction: the letter-word sequence t with
    stream[t] == useq.  Raises ReductionMismatch when there is none,
    or when t has the wrong side (constant words / variable blocks)."""
    blocks = []
    pos = 0
    for u in useq:
        t, pos = align(stream, pos, u, side)
        blocks.append(t)
    return tuple(blocks)


def in_level(xi: Ordinal, seq: WordSeq, mem_fn) -> bool:
    """The level-xi test on a word sequence: one word at level 0, else at
    least two words whose offsets lie in A_xi by mem_fn(xi, offsets)."""
    if not xi:
        return len(seq) == 1
    return len(seq) >= 2 and mem_fn(xi, d_map(seq))


def in_wxi(xi: Ordinal, side: str, useq: WordSeq) -> bool:
    """Membership of the sequence useq itself (absolute, its own offsets)
    in the level-xi family on one side."""
    if side not in ("constant", "variable"):
        raise ValueError(f"unknown side {side!r}")
    return side_consistent(useq, side) and in_level(xi, useq, schreier.mem)


def in_wxi_relative(xi: Ordinal, side: str, useq: WordSeq, base: VarWordStream):
    """Membership relative to a base stream: (in_wxi of t, t) for the
    letter-word sequence t with base[t] == useq, or (False, None) when
    there is none.  Running past the base's horizon raises HorizonExceeded."""
    try:
        t = match_reduction(base, useq, side)
    except ReductionMismatch:
        return False, None
    return in_wxi(xi, side, t), t


def canonical_rep(xi: Ordinal, seq: WordSeq) -> tuple[tuple[int, ...], bool]:
    """Split a sequence into consecutive level-xi blocks.

    Returns (boundaries m1 < m2 < ..., residual): words 1..m1 form the
    first block, words m_(n-1)+1..m_n the later ones (understood with the
    collapsed head prepended, which leaves the offset stream unchanged).
    `residual` marks a trailing segment that is a proper initial part of
    a member.  Boundaries are unique because the families are thin.
    """
    if not xi:
        raise ValueError("canonical splitting needs xi >= 1")
    if not seq:
        return ((), False)
    offsets = d_map(seq)
    boundaries = []
    pos = 0
    words_done = 1
    while pos < len(offsets):
        try:
            end = schreier._consume(xi, offsets, pos)
        except HorizonExceeded:
            return (tuple(boundaries), True)
        words_done += end - pos
        boundaries.append(words_done)
        pos = end
    if not boundaries:
        # single word, xi >= 1: always a proper initial part
        return ((), True)
    return (tuple(boundaries), False)


def enumerate_wxi(xi: Ordinal, alph: Alphabet, side: str, letter_budget: int) -> tuple[WordSeq, ...]:
    """All level-xi sequences with total letter count <= letter_budget.

    Enumerates offset sets first (the sparse constraint), then word-length
    shapes, then letters; output sorted canonically.  The shapes' fillings
    are counted first, and a listing of more than MAX_REDUCTION_CASES
    sequences is refused before any is built.
    """
    if letter_budget > MAX_LETTER_BUDGET:
        raise BudgetExceeded("level-xi listing asks for", letter_budget, MAX_LETTER_BUDGET, f"xi={xi}, side={side}",
                             noun="letters")
    shapes = []
    for d in schreier.enumerate_members(xi, letter_budget, min_n=2):  # A_0 = {()}: the one-word shapes
        starts = (1,) + d
        gaps = tuple(b - a for a, b in zip(starts, starts[1:]))
        shapes.extend(gaps + (total - starts[-1] + 1,) for total in range(starts[-1], letter_budget + 1))
    k = len(alph.symbols)
    count = sum(prod(k**n if side == "constant" else (k + 1) ** n - k**n for n in shape) for shape in shapes)
    if count > words.MAX_REDUCTION_CASES:
        listing = f"level-{xi} listing of {side} sequences with up to {letter_budget} letters holds"
        raise BudgetExceeded(listing, count, words.MAX_REDUCTION_CASES, noun="sequences")
    return tuple(sorted((seq for shape in shapes for seq in fill_words(shape, side, alph)), key=seq_sort_key))


def star_status(xi: Ordinal, seq: WordSeq) -> str:
    """'member', 'segment' (proper initial part of a member), or 'outside'
    of the level-xi family, read off the canonical splitting."""
    if not seq:
        return "segment"
    if not xi:
        return "member" if len(seq) == 1 else "outside"
    boundaries, _ = canonical_rep(xi, seq)
    if boundaries == (len(seq),):
        return "member"
    return "outside" if boundaries else "segment"
