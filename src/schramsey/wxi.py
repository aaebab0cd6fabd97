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
from .errors import BudgetExceeded
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


def match_reduction(stream: VarWordStream, useq: WordSeq, side: str) -> WordSeq | None:
    """Invert a block reduction: the letter-word sequence t with
    stream[t] == useq, or None when there is none or when t has the
    wrong side (constant words / variable blocks)."""
    blocks = []
    pos = 0
    for u in useq:
        found = align(stream, pos, u, side)
        if found is None:
            return None
        t, pos = found
        blocks.append(t)
    return tuple(blocks)


def in_level(xi: Ordinal, seq: WordSeq, mem_fn) -> bool:
    """The level-xi test on a word sequence: a non-empty sequence whose
    offsets lie in A_xi by mem_fn(xi, offsets).  One word has the offsets
    (), the one member of A_0."""
    return bool(seq) and mem_fn(xi, d_map(seq))


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
    t = match_reduction(base, useq, side)
    return t is not None and in_wxi(xi, side, t), t


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
    while not boundaries or pos < len(offsets):  # A_xi, xi >= 1, holds no empty set
        pos = schreier._consume(xi, offsets, pos)
        if pos is None:
            return (tuple(boundaries), True)
        boundaries.append(pos + 1)  # offset index pos ends at word pos + 1
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
    of the level-xi family, read off the first member of A_xi that the
    offsets begin with (A_0 = {()}: one word is the level-0 member)."""
    if not seq:
        return "segment"
    offsets = d_map(seq)
    end = schreier._consume(xi, offsets, 0)
    if end is None:
        return "segment"
    return "member" if end == len(offsets) else "outside"
