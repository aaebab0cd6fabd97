"""The recursive ordinal-indexed families A_xi of finite subsets of N.

A_0 = {{}}, A_1 = singletons, and

  * A_(z+1): pop the minimum, the rest must lie in A_z;
  * A_(w^(b+1)): n = min s consecutive blocks, each in A_(w^b);
  * A_(w^l), l limit: delegate to A_(w^(l[n])) where n = min s and
    (l[n]) is the fixed approximating sequence of l;
  * composite limit index w^a*p + sum w^(a_i)*p_i: consecutive block
    groups in increasing-exponent order, the leading power's p blocks
    coming last.

These families are thin (no member is a proper initial segment of
another), so a member's block decomposition is unique and the greedy
left-to-right consumption below decides membership exactly.

Every walk holds one state, the residual ordinal eta: the index of what
is still owed, as a stack of its (exponent, count) terms in normal form,
bottom-first.  It starts as xi itself, so a sum's last term is consumed
first, and a successor lam + k first owes k singletons.  One step,
`_take`, feeds one element x to eta: it expands the top term down to a
singleton, reading the case split off the exponent each time (nothing
is cached), and leaves eta_x, the index that A_xi transfers to above x
(A_xi(x) = A_(xi_x), criterion 03).  Membership and enumeration feed it
the elements of a set, enumeration keeps its dead states (eta, lo) and
its tails as runs, and the transfer index is the eta that one `_take`
of n leaves.

Iterating the approximating sequence down to a successor (`succ` in
`SchreierConfig`) defines the same families: a walk consults l[n] only
for a block whose minimum is n, so a walk that meets a limit again takes
l[n][n], ... at that same n and stops at `fixed_seq_succ(l, n)`.  The
walks here use l[n]; `verify.mem_direct` keeps both rules as the
reference.
"""

from __future__ import annotations

from itertools import combinations

from . import ordinal as o
from .errors import BudgetExceeded, HorizonExceeded
from .ordinal import Ordinal

FinSet = tuple[int, ...]

MAX_ENUM_GROUND = 24
MAX_TRANSFER_TERMS = 10_000


class SchreierConfig:
    """The limit rule of the reference recursion `verify.mem_direct`:
    'fixed' uses l[n], 'succ' iterates it down to a successor ordinal.
    Both define the same families (see the module docstring)."""

    __slots__ = ("limit_rule",)

    def __init__(self, limit_rule: str = "fixed"):
        if limit_rule not in ("fixed", "succ"):
            raise ValueError(f"unknown limit rule {limit_rule!r}")
        self.limit_rule = limit_rule

    def step(self, lam: Ordinal, n: int) -> Ordinal:
        if self.limit_rule == "fixed":
            return o.fixed_seq(lam, n)
        return o.fixed_seq_succ(lam, n)


DEFAULT_CONFIG = SchreierConfig()


def validate_finset(s) -> FinSet:
    t = tuple(s)
    prev = 0
    for x in t:
        if not isinstance(x, int) or x <= prev:
            raise ValueError(f"{t} is not a strictly increasing set of naturals >= 1")
        prev = x
    return t


# --- the walk --------------------------------------------------------------


def _take(pending: list, x: int, room: int | None) -> bool:
    """Feed the element x to the owed stack, in place; `room` counts the
    elements from x on, and None cuts nothing.  False when the block x
    starts cannot fit in `room` elements.

    The stack is the residual ordinal eta, the index of what is still
    owed: its (exponent, count) terms in normal form, bottom-first, so x
    starts a block of the top term w^e.  Exponent 0 is a singleton, and
    x is taken.  Any other block expands in place, down to a singleton:
    one chain at one minimum, charged to the descent budget.  A limit e
    owes one block of w^(e[x]); e = lam + k (lam zero or a limit, k >= 1)
    owes one block of w^lam at x = 1, and above it the tower's first
    blocks unfolded, (w^lam, x), (w^(lam+1), x-1), ..., (w^(lam+k-1), x-1),
    since each first block of w^(lam+j+1) is x blocks of w^(lam+j); so a
    tower costs one step, not k.  Each pushed exponent is below e, so the
    stack stays a normal form and never needs merging; `transfer_index`
    reads it.  It is charged to the terms budget before it grows, and a
    walk's starting stack, xi's own terms, on its first element.  The
    room cut: a tower block at x >= 2 has at least x^k elements (x
    blocks, each with min >= x).  No case split is cached: each step
    reads it off the popped exponent."""
    if len(pending) > MAX_TRANSFER_TERMS:  # xi's own terms; all growth is checked below
        raise BudgetExceeded("transfer index needs", len(pending), MAX_TRANSFER_TERMS, str(Ordinal(pending)), noun="terms")
    steps = 0
    while True:
        e, count = pending.pop()
        k = e[-1][1] if e and not e[-1][0] else 0  # e = lam + k
        if room is not None and (count > room or k and x > 1 and (k >= 64 or x**k > room)):
            return False
        if count > 1:
            pending.append((e, count - 1))
        if not e:
            return True
        steps += 1
        if steps > o.MAX_DESCENT_STEPS:
            o.charge_descent(steps, Ordinal(((e, 1),)))
        owed = len(pending) + (k if k and x > 1 else 1)
        if owed > MAX_TRANSFER_TERMS:
            raise BudgetExceeded("transfer index needs", owed, MAX_TRANSFER_TERMS, str(Ordinal(((e, 1),))), noun="terms")
        if not k:
            pending.append((o.fixed_seq(e, x), 1))
            continue
        lam = Ordinal(e[:-1])
        if x > 1:
            pending.extend((Ordinal((*lam, (o.ZERO, j))), x - 1) for j in range(k - 1, 0, -1))
        pending.append((lam, x))


def _consume(xi: Ordinal, stream, pos: int) -> int | None:
    """Greedily consume one A_xi member from stream[pos:]; return its end
    position, or None when the stream runs out mid-member.

    The owed stack is explicit, so deep indices never reach the
    interpreter's recursion limit."""
    end = len(stream)
    pending = list(xi)
    while pending:
        if pos >= end or not _take(pending, stream[pos], end - pos):
            return None
        pos += 1
    return pos


def initial_segment(xi: Ordinal, stream) -> FinSet:
    """The unique prefix of the (strictly increasing) stream lying in A_xi.

    The caller supplies the horizon: if the materialized stream is too
    short to complete a member, HorizonExceeded is raised.
    """
    t = validate_finset(stream)
    end = _consume(xi, t, 0)
    if end is None:
        raise HorizonExceeded("stream exhausted while consuming a member")
    return t[:end]


def mem(xi: Ordinal, s) -> bool:
    """Exact membership test for A_xi via greedy decomposition."""
    t = validate_finset(s)
    return _consume(xi, t, 0) == len(t)


def member_runs(xi: Ordinal, max_n: int, min_n: int = 1) -> tuple[tuple[FinSet, int, int], ...]:
    """The members of A_xi inside {min_n..max_n} as runs (prefix, lo, owed),
    in lexicographic order: each stands for the members prefix + c, c in
    combinations(range(lo, max_n + 1), owed).

    Membership's walk, branched over each next element x in ascending
    order; once the residual is finite, the rest of a member is any choice
    of that many later elements, one run.  A state (eta, lo), the residual
    ordinal and the next element, that completed no member is kept in
    `dead` for this call and not walked again."""
    if max_n > MAX_ENUM_GROUND:
        raise BudgetExceeded("enumeration ground set reaches", max_n, MAX_ENUM_GROUND, f"xi={xi}")
    runs: list[tuple[FinSet, int, int]] = []
    dead: set[tuple] = set()

    def walk(pending: list, lo: int, prefix: FinSet) -> bool:
        if not pending or not pending[0][0]:  # eta is finite: that many singletons
            owed = pending[0][1] if pending else 0
            if owed > max_n - lo + 1:
                return False
            runs.append((prefix, lo, owed))
            return True
        key = (tuple(pending), lo)
        if key in dead:
            return False
        found = False
        for x in range(lo, max_n + 1):
            step = pending.copy()
            if _take(step, x, max_n - x + 1) and walk(step, x + 1, (*prefix, x)):
                found = True
        if not found:
            dead.add(key)
        return found

    walk(list(xi), min(min_n, max_n + 1), ())  # above max_n no element is left either way
    return tuple(runs)


def enumerate_members(xi: Ordinal, max_n: int, min_n: int = 1) -> tuple[FinSet, ...]:
    """All members of A_xi inside {min_n..max_n}, in lexicographic order: `member_runs` expanded."""
    return tuple(p + c for p, lo, owed in member_runs(xi, max_n, min_n) for c in combinations(range(lo, max_n + 1), owed))


# --- transfer --------------------------------------------------------------


def transfer_index(xi: Ordinal, n: int) -> Ordinal:
    """The index xi_n with  A_xi(n) = A_(xi_n) restricted to {n+1, n+2, ...},
    where A_xi(n) collects the sets s > {n} with {n} u s in A_xi: the
    residual ordinal once n is taken (see `_take`)."""
    if n < 1:
        raise ValueError("transfer_index needs n >= 1")
    if not xi:
        raise ValueError("transfer_index needs xi >= 1")
    pending = list(xi)
    _take(pending, n, None)
    return Ordinal((e, o.check_coeff(count)) for e, count in pending)
