"""Trees and hereditary families of word sequences.

A family is a tree when closed under initial segments, and hereditary
when additionally closed under total variable reductions of members.
Constant-side families inherit both notions through their variable
witnesses: a variable sequence witnesses a constant one when the latter
lies in its word-by-word substitution span.

All closures here are exact set transforms on explicit finite families;
the tree dichotomy check labels its answer with the bounds used.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .words import (
    Alphabet,
    VarWordStream,
    WordSeq,
    fill_words,
    hereditary_reductions,
    reduce_seq,
    seq_is_prefix,
    seq_sort_key,
    seq_text,
    side_consistent,
    span,
    universe,
    word,
)

if TYPE_CHECKING:
    from .ordinal import Ordinal

EMPTY: WordSeq = ()


class FamilyOfSeqs:
    __slots__ = ("alph", "side", "members")

    def __init__(self, alph: Alphabet, side: str, members: frozenset):
        if side not in ("constant", "variable"):
            raise ValueError(f"unknown side {side!r}")
        for m in members:
            if not side_consistent(m, side):
                raise ValueError(f"{seq_text(m)} is not {side}-side")
        self.alph, self.side, self.members = alph, side, members

    def sorted_members(self) -> tuple[WordSeq, ...]:
        return tuple(sorted(self.members, key=seq_sort_key))

    def replace(self, members) -> "FamilyOfSeqs":
        return FamilyOfSeqs(self.alph, self.side, frozenset(members))


def family_from_texts(alph: Alphabet, side: str, seqs) -> FamilyOfSeqs:
    members = set()
    for texts in seqs:
        members.add(tuple(word(t, alph) for t in texts))
    return FamilyOfSeqs(alph, side, frozenset(members))


def star_closure(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Close under initial segments and add the empty sequence."""
    out = set(fam.members)
    out.add(EMPTY)
    for m in fam.members:
        for i in range(1, len(m)):
            out.add(m[:i])
    return fam.replace(out)


def is_tree(fam: FamilyOfSeqs) -> bool:
    return star_closure(fam).members == fam.members


def is_thin(fam: FamilyOfSeqs) -> bool:
    """No member is a proper initial segment of another."""
    members = fam.sorted_members()
    for a in members:
        for b in members:
            if seq_is_prefix(a, b):
                return False
    return True


def substar(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Hereditary closure of a variable-side family: the variable
    reductions of members' initial segments, plus the empty sequence."""
    if fam.side != "variable":
        raise ValueError("substar closes variable-side families; use g_substar")
    out = {EMPTY}
    for m in fam.members:
        out.update(hereditary_reductions(m, fam.alph, "variable"))
    return fam.replace(out)


def hereditary_closure(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Hereditary closure on the family's own side: `substar` for a
    variable-side family, `g_substar` for a constant-side one."""
    return substar(fam) if fam.side == "variable" else g_substar(fam)


def is_hereditary(fam: FamilyOfSeqs) -> bool:
    return hereditary_closure(fam).members == fam.members


def f_g(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Variable witnesses: sequences whose substitution span lies in the
    constant family.  Candidate shapes come from the family's members."""
    if fam.side != "constant":
        raise ValueError("f_g consumes a constant-side family")
    shapes = {tuple(len(w) for w in m) for m in fam.members if m}
    witnesses = set()
    for shape in shapes:
        for t in fill_words(shape, "variable", fam.alph):
            if all(s in fam.members for s in span(t, fam.alph)):
                witnesses.add(t)
    return FamilyOfSeqs(fam.alph, "variable", frozenset(witnesses))


def g_substar(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Hereditary closure of a constant-side family: spans of the closed
    witness family, plus the empty sequence."""
    if fam.side != "constant":
        raise ValueError("g_substar closes constant-side families")
    closed = substar(f_g(fam))
    out = {EMPTY}
    for t in closed.members:
        if t == EMPTY:
            continue
        out.update(span(t, fam.alph))
    return fam.replace(out)


def hereditary_kernel(fam: FamilyOfSeqs) -> FamilyOfSeqs:
    """Largest hereditary subfamily (with the empty sequence adjoined).

    Variable side: keep members whose `hereditary_reductions` all lie in
    the family.
    Constant side: keep members that have a variable witness and whose
    every witness lies in the variable kernel of the witness family
    f_g(fam), as g_substar closes through substar(f_g(fam)); for a
    nonempty variable u, span(u) lies in the family exactly when u is in
    f_g(fam).
    """
    kept = {EMPTY}
    if fam.side == "variable":
        kept.update(t for t in fam.members if fam.members.issuperset(hereditary_reductions(t, fam.alph, "variable")))
        return fam.replace(kept)
    witnesses = f_g(fam)
    good = hereditary_kernel(witnesses).members
    for s in fam.members - {EMPTY}:
        ts = [t for t in witnesses.members if s in span(t, fam.alph)]
        if ts and all(t in good for t in ts):
            kept.add(s)
    return fam.replace(kept)


def tree_dichotomy_check(fam: FamilyOfSeqs, xi: Ordinal, stream: VarWordStream, letter_budget: int) -> dict:
    """For a tree family, compare the two horns over the truncated
    reduction universe of the stream:

      (a) every level-xi reduction avoids the family;
      (b) every family member among the reductions is a proper initial
          part of a level-xi member.

    Exhaustive at the stated bounds; reports both truth values and any
    counterexample to their equivalence.
    """
    from . import wxi

    if not is_tree(fam):
        raise ValueError("tree_dichotomy_check needs a tree family")
    budget = min(letter_budget, stream.horizon)
    reduced = [EMPTY] + [reduce_seq(stream, t) for t in universe(stream.alph, fam.side, budget)]
    a_bad = []
    b_bad = []
    for r in reduced:
        status = wxi.star_status(xi, r)
        if status == "member" and r in fam.members:
            a_bad.append(r)
        if r in fam.members and status != "segment":
            b_bad.append(r)
    a_holds = not a_bad
    b_holds = not b_bad
    report = {
        "xi": str(xi),
        "letter_budget": budget,
        "universe_size": len(reduced),
        "xi_reductions_avoid_family": a_holds,
        "family_inside_proper_segments": b_holds,
        "equivalent": a_holds == b_holds,
    }
    if not a_holds:
        report["family_xi_overlap"] = [seq_text(r) for r in a_bad[:5]]
    if not b_holds:
        report["members_outside_segments"] = [seq_text(r) for r in b_bad[:5]]
    return report


def family_from_json(data) -> FamilyOfSeqs:
    """The family a decoded family file describes."""
    if not (isinstance(data, dict) and {"alphabet", "side", "members"} <= data.keys()
            and isinstance(data["alphabet"], (list, str)) and isinstance(data["members"], list)):
        raise ValueError('a family file is an object with an "alphabet" list, a "side" and a "members" list')
    for m in data["members"]:
        if not isinstance(m, list) or not all(isinstance(t, str) for t in m):
            raise ValueError(f"family member {json.dumps(m)} is not a list of words")
    return family_from_texts(Alphabet(tuple(data["alphabet"])), data["side"], data["members"])
