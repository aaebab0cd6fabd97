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

The case split of an index is resolved once per index into a `Plan`;
membership, enumeration and the transfer index all walk plans.

Iterating the approximating sequence down to a successor (`succ` in
`SchreierConfig`) defines the same families: a plan consults l[n] only
for a block whose minimum is n, so a walk that meets a limit again takes
l[n][n], ... at that same n and stops at `fixed_seq_succ(l, n)`.  The
walks here use l[n]; `verify.mem_direct` keeps both rules as the
reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

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

ZERO, SUCC, POW_SUCC, POW_LIMIT, SUM = "zero", "succ", "pow_succ", "pow_limit", "sum"


def _split_finite(a: Ordinal) -> tuple[Ordinal, int]:
    """(lam, k) with a = lam + k, lam zero or a limit."""
    if a and a[-1][0] == o.ZERO:
        return Ordinal(a[:-1]), a[-1][1]
    return a, 0


def _plus(lam: Ordinal, k: int) -> Ordinal:
    return Ordinal((*lam, (o.ZERO, k))) if k else lam


class Plan:
    """The case split of A_xi.

    `kind` is one of
      'zero'       xi = 0: the empty set only;
      'succ'       xi = lam + k (lam zero or a limit, k >= 1): k popped
                   minima, then an A_lam member (`base`); `pred` is the
                   plan of xi - 1;
      'pow_succ'   xi = w^(lam + k) (lam zero or a limit, k >= 1): n = min s
                   blocks of A_(w^(lam+k-1)) (`below`); at n = 1 that is
                   one A_(w^lam) member (`base`);
      'pow_limit'  xi = w^lam, lam a limit: at min n, an A_(w^(lam[n]))
                   member (`child(n)`);
      'sum'        any other limit: consecutive blocks, `groups` holding
                   (power plan, count) pairs in consumption order.

    Sub-plans are built on first use and kept, so a walk never
    re-derives a case split or hashes an ordinal.  `plan` interns nodes,
    so they compare and hash by identity.
    """

    __slots__ = ("xi", "kind", "k", "lam", "groups", "_sub")

    def __init__(self, xi: Ordinal):
        self.xi = xi
        self.k, self.lam, self.groups = 0, o.ZERO, ()
        self._sub: dict[str | int, Plan] = {}  # base/pred/below by name, children by n
        if not xi:
            self.kind = ZERO
        elif xi[-1][0] == o.ZERO:
            self.kind = SUCC
            self.lam, self.k = _split_finite(xi)
        elif len(xi) == 1 and xi[0][1] == 1:
            self.lam, self.k = _split_finite(xi[0][0])
            self.kind = POW_SUCC if self.k else POW_LIMIT
        else:
            self.kind = SUM
            self.groups = tuple((plan(o.omega_pow(exp)), count) for exp, count in reversed(xi))

    def _memo(self, name: str, make) -> Plan:
        p = self._sub.get(name)
        if p is None:
            p = self._sub[name] = plan(make())
        return p

    @property
    def base(self) -> Plan:
        if self.kind == SUCC:
            return self._memo("base", lambda: self.lam)
        return self._memo("base", lambda: o.omega_pow(self.lam))

    @property
    def pred(self) -> Plan:
        return self._memo("pred", lambda: _plus(self.lam, self.k - 1))

    @property
    def below(self) -> Plan:
        return self._memo("below", lambda: o.omega_pow(_plus(self.lam, self.k - 1)))

    def child(self, n: int) -> Plan:
        p = self._sub.get(n)
        if p is None:
            p = self._sub[n] = plan(o.omega_pow(o.fixed_seq(self.lam, n)))
        return p


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan(xi: Ordinal) -> Plan:
    """The interned plan of A_xi.

    The cache is bounded; `plan.cache_info()` reports its hits and misses.
    """
    return Plan(xi)


def _too_short(p: Plan, n: int, room: int) -> bool:
    """Whether a member of the 'pow_succ' plan p with min n >= 2 cannot
    fit in `room` elements: it has at least n^k of them (n blocks, each
    with min >= n and so, by induction, with n^(k-1) or more)."""
    return p.k >= 64 or n**p.k > room


# --- membership ------------------------------------------------------------


def _consume(xi: Ordinal, stream, pos: int) -> int:
    """Greedily consume one A_xi member from stream[pos:]; return the end
    position.  Raises HorizonExceeded if the stream runs out mid-member.

    Walks the plan of xi with an explicit stack of owed blocks, so deep
    indices never reach the interpreter's recursion limit."""
    p = plan(xi)
    end = len(stream)
    pending: list[tuple[Plan, int]] = []  # (plan, blocks still owed), innermost last
    while True:
        kind = p.kind
        if kind == SUCC:
            pos += p.k
            if pos > end:
                raise HorizonExceeded("stream exhausted while consuming a member")
            p = p.base
            continue
        if kind == ZERO:
            if not pending:
                return pos
            p, count = pending.pop()
            if count > 1:
                pending.append((p, count - 1))
            continue
        if pos >= end:
            raise HorizonExceeded("stream exhausted while consuming a member")
        n = stream[pos]
        if kind == POW_LIMIT:
            p = p.child(n)
        elif kind == POW_SUCC:
            if n == 1:
                p = p.base
                continue
            if _too_short(p, n, end - pos):
                raise HorizonExceeded("stream exhausted while consuming a member")
            p = p.below
            pending.append((p, n - 1))
        else:
            pending.extend(reversed(p.groups[1:]))
            p, count = p.groups[0]
            if count > 1:
                pending.append((p, count - 1))


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


# --- enumeration -----------------------------------------------------------


class _Tables:
    """Members of plans inside {1..hi}, bucketed by minimum, for one
    enumeration.  Every bucket is in lexicographic order: its members are
    concatenations f + r with f from a thin family, so ordering by f, then
    by r, is lexicographic."""

    def __init__(self, hi: int):
        self.hi = hi
        self.buckets: dict[tuple, tuple[FinSet, ...]] = {}  # (plan, m): members with min m
        self.runs: dict[tuple, tuple[FinSet, ...]] = {}  # (plan, c, m): c blocks, the first with min m
        self.group_runs: dict[tuple, tuple[FinSet, ...]] = {}  # (sum plan, i, m): groups[i:], min m
        self.after: dict[tuple, tuple[FinSet, ...]] = {}  # (table name, args, lo): min >= lo

    def members(self, p: Plan, lo: int) -> tuple[FinSet, ...]:
        """Members of p with min >= lo, lexicographically."""
        if p.kind == ZERO:
            return ((),)
        return self._from("bucket", (p,), lo)

    def _from(self, table: str, args: tuple, lo: int) -> tuple[FinSet, ...]:
        """The entries of `table` at args, over every min m >= lo."""
        key = (table, args, lo)
        got = self.after.get(key)
        if got is None:
            at = getattr(self, table)
            got = self.after[key] = tuple(chain.from_iterable(at(*args, m) for m in range(lo, self.hi + 1)))
        return got

    def bucket(self, p: Plan, m: int) -> tuple[FinSet, ...]:
        key = (p, m)
        got = self.buckets.get(key)
        if got is None:
            got = self.buckets[key] = self._bucket(p, m)
        return got

    def _bucket(self, p: Plan, m: int) -> tuple[FinSet, ...]:
        room = self.hi - m + 1
        kind = p.kind
        if kind == SUCC:
            if p.k > room:
                return ()
            return tuple([(m,) + r for r in self.members(p.pred, m + 1)])
        if kind == POW_LIMIT:
            return self.bucket(p.child(m), m)
        if kind == POW_SUCC:
            if m == 1:
                return self.bucket(p.base, 1)
            if _too_short(p, m, room):
                return ()
            return self.run(p.below, m, m)
        return self.group(p, 0, m)

    def run(self, p: Plan, count: int, m: int) -> tuple[FinSet, ...]:
        """Concatenations of `count` consecutive blocks of p, the first
        with min m."""
        key = (p, count, m)
        got = self.runs.get(key)
        if got is None:
            firsts = self.bucket(p, m)
            if count == 1:
                got = firsts
            elif count > self.hi - m + 1:
                got = ()
            else:
                got = tuple([f + r for f in firsts for r in self._from("run", (p, count - 1), f[-1] + 1)])
            self.runs[key] = got
        return got

    def group(self, p: Plan, i: int, m: int) -> tuple[FinSet, ...]:
        """Concatenations of the block groups p.groups[i:], min m."""
        key = (p, i, m)
        got = self.group_runs.get(key)
        if got is None:
            q, count = p.groups[i]
            got = self.run(q, count, m)
            if i + 1 < len(p.groups):
                got = tuple([f + r for f in got for r in self._from("group", (p, i + 1), f[-1] + 1)])
            self.group_runs[key] = got
        return got


def enumerate_members(xi: Ordinal, max_n: int, min_n: int = 1) -> tuple[FinSet, ...]:
    """All members of A_xi contained in {min_n..max_n}, in lexicographic
    order.

    Generated per minimum element from the plan of xi, with tables that
    live for this call only; agrees pointwise with mem.
    """
    if max_n > MAX_ENUM_GROUND:
        raise BudgetExceeded(f"enumeration ground set capped at {MAX_ENUM_GROUND}")
    return _Tables(max_n).members(plan(xi), min_n)


# --- transfer --------------------------------------------------------------


def transfer_index(xi: Ordinal, n: int) -> Ordinal:
    """The index xi_n with  A_xi(n) = A_(xi_n) restricted to {n+1, n+2, ...},
    where A_xi(n) collects the sets s > {n} with {n} u s in A_xi."""
    if n < 1:
        raise ValueError("transfer_index needs n >= 1")
    if not xi:
        raise ValueError("transfer_index needs xi >= 1")
    p = plan(xi)
    heads = []  # summands in front of the block holding n, outermost first
    steps = 0
    while p.kind != SUCC:
        steps += 1
        o.charge_descent(steps, p.xi)
        if p.kind == POW_LIMIT:
            p = p.child(n)
            continue
        if p.kind == POW_SUCC:
            # w^(lam+k) at n: the n-1 further blocks of every w^(lam+j),
            # j = k-1 .. 0, then the transfer of w^lam
            if n > 1:
                if p.k > MAX_TRANSFER_TERMS:
                    raise BudgetExceeded(f"transfer index would have {p.k} terms (cap {MAX_TRANSFER_TERMS})")
                coeff = o.check_coeff(n - 1)
                heads.append(Ordinal((_plus(p.lam, j), coeff) for j in range(p.k - 1, -1, -1)))
            p = p.base
            continue
        # sum: every block group but one copy of the smallest power comes after n
        heads.append(o.shed_last(p.xi))
        p = p.groups[0][0]
    out = o.pred(p.xi)
    for head in reversed(heads):
        out = o.add(head, out)
    return out


def shifted_members(xi: Ordinal, n: int, max_n: int):
    """A_xi(n) within {n+1..max_n}: tails of members whose minimum is n."""
    out = []
    for s in enumerate_members(xi, max_n):
        if s and s[0] == n:
            out.append(s[1:])
    return tuple(sorted(out))
