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

The case split of an index is resolved once per index into a `Plan`,
whose one accessor `blocks(n)` lists the (plan, count) groups of a
member with minimum n.  A successor lam + k is a sum whose first group
is k singletons, so popping a minimum is taking one singleton block.
One step, `_take`, walks these block lists down to the singletons: it
feeds one element to a stack of owed groups.  Membership and
enumeration feed it the elements of a set, and the transfer index is
the stack that one `_take` of n leaves, read as an ordinal.

Iterating the approximating sequence down to a successor (`succ` in
`SchreierConfig`) defines the same families: a plan consults l[n] only
for a block whose minimum is n, so a walk that meets a limit again takes
l[n][n], ... at that same n and stops at `fixed_seq_succ(l, n)`.  The
walks here use l[n]; `verify.mem_direct` keeps both rules as the
reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import ordinal as o
from .errors import BudgetExceeded, HorizonExceeded
from .ordinal import Ordinal

FinSet = tuple[int, ...]

MAX_ENUM_GROUND = 24
MAX_TRANSFER_TERMS = 10_000
PLAN_CACHE_SIZE = 1024


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


# --- plans ---------------------------------------------------------------

ONE, POW_SUCC, POW_LIMIT = "one", "pow_succ", "pow_limit"


def _split_finite(a: Ordinal) -> tuple[Ordinal, int]:
    """(lam, k) with a = lam + k, lam zero or a limit."""
    if a[-1][0] == o.ZERO:
        return Ordinal(a[:-1]), a[-1][1]
    return a, 0


def _plus(lam: Ordinal, k: int) -> Ordinal:
    return Ordinal((*lam, (o.ZERO, k))) if k else lam


class Plan:
    """The case split of A_xi, xi >= 1.

    `kind` is one of
      'one'        xi = 1: the singletons;
      'pow_succ'   xi = w^(lam + k) (lam zero or a limit, k >= 1): n = min s
                   blocks of A_(w^(lam+k-1)); at n = 1 that is one
                   A_(w^lam) member;
      'pow_limit'  xi = w^lam, lam a limit: at min n, an A_(w^(lam[n]))
                   member;
      None         any other xi, successors included: consecutive blocks,
                   `groups` holding (power plan, count) pairs in
                   consumption order, so lam + k starts with (one, k).

    `blocks(n)` is the one accessor the walk uses: the (plan, count)
    groups that make up a member with minimum n, consumed in order from
    its first element.  A tower w^(lam + k) at n >= 2 lists its first
    blocks unfolded, (w^lam, n), (w^(lam+1), n-1), ..., (w^(lam+k-1),
    n-1): each first block of w^(lam+j+1) is n blocks of w^(lam+j), so
    the tower costs one expansion, not k.  Block lists are built on
    first use and kept, so a walk never re-derives a case split or
    hashes an ordinal.  `plan` interns nodes, so they compare and hash
    by identity.
    """

    __slots__ = ("xi", "kind", "k", "lam", "groups", "_blocks")

    def __init__(self, xi: Ordinal):
        self.xi = xi
        self.kind, self.k, self.lam, self.groups = None, 0, o.ZERO, ()
        self._blocks: dict[int, tuple[tuple[Plan, int], ...]] = {}
        if xi == o.ONE:
            self.kind = ONE
        elif len(xi) == 1 and xi[0][1] == 1:
            self.lam, self.k = _split_finite(xi[0][0])
            self.kind = POW_SUCC if self.k else POW_LIMIT
        else:
            self.groups = tuple((plan(o.omega_pow(exp)), count) for exp, count in reversed(xi))

    def blocks(self, n: int) -> tuple[tuple[Plan, int], ...]:
        """The (plan, count) groups of a member with minimum n."""
        if self.groups:
            return self.groups
        got = self._blocks.get(n)
        if got is None:
            if self.kind == POW_LIMIT:
                run = ((o.fixed_seq(self.lam, n), 1),)
            elif n == 1:
                run = ((self.lam, 1),)
            else:
                run = ((self.lam, n), *((_plus(self.lam, j), n - 1) for j in range(1, self.k)))
            got = self._blocks[n] = tuple((plan(o.omega_pow(exp)), count) for exp, count in run)
        return got

    def width(self, n: int) -> int:
        """len(blocks(n)), without unfolding a tower."""
        return self.k if self.kind == POW_SUCC and n > 1 else len(self.blocks(n))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan(xi: Ordinal) -> Plan:
    """The interned plan of A_xi.

    The cache is bounded; `plan.cache_info()` reports its hits and misses.
    """
    return Plan(xi)


def _too_short(p: Plan, n: int, room: int) -> bool:
    """Whether a member of p with min n cannot fit in `room` elements.
    Only a 'pow_succ' member with n >= 2 is cut: it has at least n^k
    elements (n blocks, each with min >= n and so, by induction, with
    n^(k-1) or more)."""
    return p.kind == POW_SUCC and n > 1 and (p.k >= 64 or n**p.k > room)


# --- the walk --------------------------------------------------------------


def _take(pending: list, x: int, room: int | None) -> bool:
    """Feed the element x to the owed (plan, count) groups, innermost
    last, in place; `room` counts the elements from x on, and None cuts
    nothing.  The groups x starts expand down to a singleton: one chain
    at one minimum, charged to the descent budget.  False when a group
    cannot fit in `room` elements (every block has an element).

    Read bottom-first, the owed groups are the index of what is still
    owed, in normal form: a group expands in place into smaller powers,
    pushed largest first, so the exponents strictly decrease up the
    stack and never need merging.  `transfer_index` is this read; the
    stack is charged to the terms budget before it grows."""
    steps = 0
    while True:
        p, count = pending.pop()
        if room is not None and (count > room or _too_short(p, x, room)):
            return False
        if count > 1:
            pending.append((p, count - 1))
        if p.kind == ONE:
            return True
        steps += 1
        o.charge_descent(steps, p.xi)
        owed = len(pending) + p.width(x)
        if owed > MAX_TRANSFER_TERMS:
            raise BudgetExceeded("transfer index needs", owed, MAX_TRANSFER_TERMS, str(p.xi), noun="terms")
        pending.extend(reversed(p.blocks(x)))


def _consume(xi: Ordinal, stream, pos: int) -> int:
    """Greedily consume one A_xi member from stream[pos:]; return the end
    position.  Raises HorizonExceeded if the stream runs out mid-member.

    The owed groups are an explicit stack, so deep indices never reach
    the interpreter's recursion limit."""
    end = len(stream)
    pending = [(plan(xi), 1)] if xi else []  # innermost last
    while pending:
        if pos >= end or not _take(pending, stream[pos], end - pos):
            raise HorizonExceeded("stream exhausted while consuming a member")
        pos += 1
    return pos


def initial_segment(xi: Ordinal, stream) -> FinSet:
    """The unique prefix of the (strictly increasing) stream lying in A_xi.

    The caller supplies the horizon: if the materialized stream is too
    short to complete a member, HorizonExceeded is raised.
    """
    t = validate_finset(stream)
    end = _consume(xi, t, 0)
    return t[:end]


def mem(xi: Ordinal, s) -> bool:
    """Exact membership test for A_xi via greedy decomposition."""
    t = validate_finset(s)
    try:
        end = _consume(xi, t, 0)
    except HorizonExceeded:
        return False
    return end == len(t)


def enumerate_members(xi: Ordinal, max_n: int, min_n: int = 1) -> tuple[FinSet, ...]:
    """All members of A_xi contained in {min_n..max_n}, in lexicographic
    order; agrees pointwise with mem.

    Membership's walk, branched over each next element x in ascending
    order.  Once only singletons are owed, the rest of a member is any
    choice of that many later elements.  A state (owed groups, lo) that
    completed no member is kept in `dead` for this call and not walked
    again."""
    if max_n > MAX_ENUM_GROUND:
        raise BudgetExceeded("enumeration ground set reaches", max_n, MAX_ENUM_GROUND, f"xi={xi}")
    if not xi:
        return ((),)
    out: list[FinSet] = []
    dead: set[tuple] = set()

    def walk(pending: list, lo: int, prefix: FinSet) -> bool:
        if all(p.kind == ONE for p, _ in pending):
            before = len(out)
            owed = sum(count for _, count in pending)
            out.extend(prefix + rest for rest in combinations(range(lo, max_n + 1), owed))
            return len(out) > before
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

    walk([(plan(xi), 1)], min_n, ())
    return tuple(out)


# --- transfer --------------------------------------------------------------


def transfer_index(xi: Ordinal, n: int) -> Ordinal:
    """The index xi_n with  A_xi(n) = A_(xi_n) restricted to {n+1, n+2, ...},
    where A_xi(n) collects the sets s > {n} with {n} u s in A_xi: the
    groups still owed once n is taken, read bottom-first (see `_take`)."""
    if n < 1:
        raise ValueError("transfer_index needs n >= 1")
    if not xi:
        raise ValueError("transfer_index needs xi >= 1")
    pending = [(plan(xi), 1)]
    _take(pending, n, None)
    return Ordinal((p.xi[0][0], o.check_coeff(count)) for p, count in pending)
