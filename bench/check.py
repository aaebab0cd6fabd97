"""Independent answer checker, run after the timed jobs.

`Checker.check(job, returncode, report)` returns None for a checked
answer, else a one-line reason.  It reads only the answer fields of each
job kind from the parsed report, so report keys added later (work
counters, stats) never count as failures.  A checked answer needs exit
code 0 or 1 matching the answer, and answer fields that pass the check
below and equal those of every earlier run of the same input.

Independent paths used:

* Schreier sets: `verify.mem_direct` (split search, no greedy shortcut)
  on every decided set and on a sample of enumerated ones, plus a
  counting recursion written here (`SetCounter`) that gives the exact
  member count and a 61-bit hash sum of the whole enumeration; a dropped,
  added or altered member changes one of them.
* Witnesses: rebuilt from the report and re-checked by
  `verify.check_witness`; exhausted searches must have visited exactly
  the space size.
* Derivative index: the `len:K` index must be K, profiles must equal
  the exact-rule profile, and explicit tree families follow the closed
  form of the exact rule.
* Known thresholds: the pair sweep (every coloring of the pairs of
  {1..n} has a monochromatic triangle iff n >= 6, with the least
  defeating coloring recomputed here) and hj M = 2 for r=2, n=1, k=2,
  xi=0.
* Closures are idempotent (star and variable-side closures contain
  their input); kernels are
  hereditary subfamilies; universe sizes match a direct count.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from math import comb, prod

from schramsey import cbindex, families, ordinal, schreier, verify, words
from schramsey.cli import _parse_stream

MOD = (1 << 61) - 1
SAMPLE = 200  # enumerated members re-decided by mem_direct per job

ANSWER_FIELDS = {
    "schreier enumerate": ("count", "members"),
    "schreier mem": ("member",),
    "schreier decompose": ("initial_segment",),
    "schreier transfer": ("transfer_index",),
    "cbindex": ("so_index", "profile"),
    "verify ramsey": ("found", "visited", "expected", "witness", "witness_checked"),
    "verify carlson": ("found", "visited", "expected", "witness", "witness_checked"),
    "verify subspace": ("found", "witness", "witness_checked"),
    "verify hj": ("M", "cube_size", "colorings_checked", "defeaters"),
    "verify pair-sweep": ("all_have_witness", "colorings", "visited", "defeating_coloring"),
    "verify nw": ("consistent", "probed", "inside", "outside", "shadow_size", "shadow_closed_at_8",
                  "derivative_profile"),
    "wxi enumerate": ("count", "members"),
    "family close": ("closed_size", "closed"),
    "family kernel": ("kernel_size", "kernel"),
    "family dichotomy": ("equivalent", "universe_size", "xi_reductions_avoid_family",
                         "family_inside_proper_segments"),
}


def answer(kind: str, report: dict) -> dict:
    return {k: report.get(k) for k in ANSWER_FIELDS[kind]}


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# --- counting recursion for A_xi -------------------------------------------


class SetCounter:
    """Weighted sums over the members of A_xi inside {1..hi}.

    Follows the recursive definition of the families directly: a member
    with minimum a is built from consecutive blocks, and the blocks are
    chained by dynamic programming over their maxima.  A member's weight
    is the product of edge(prev, x) over its elements x after the first
    (prev the element before x); `f` leaves out the first element's
    weight, callers apply it.
    """

    def __init__(self, rule: str, hi: int, edge):
        self.cfg = schreier.SchreierConfig(rule)
        self.hi = hi
        self.edge = edge
        self._f: dict = {}
        self._g: dict = {}

    def f(self, xi, a: int) -> dict[int, int]:
        """{max: weight sum} of the members of A_xi (xi >= 1) with min a."""
        key = (xi, a)
        if key not in self._f:
            self._f[key] = self._f_uncached(xi, a)
        return self._f[key]

    def _f_uncached(self, xi, a):
        if a > self.hi:
            return {}
        if ordinal.kind(xi) == "successor":
            below = ordinal.pred(xi)
            return {a: 1} if not below.terms else self.g(below, a)
        terms = xi.terms
        if len(terms) == 1 and terms[0][1] == 1:
            e = terms[0][0]
            if ordinal.kind(e) == "successor":
                return self._chain([ordinal.omega_pow(ordinal.pred(e))] * a, a)
            return self.f(ordinal.omega_pow(self.cfg.step(e, a)), a)
        powers = []
        for exp, count in reversed(terms):
            powers += [ordinal.omega_pow(exp)] * count
        return self._chain(powers, a)

    def g(self, xi, e: int) -> dict[int, int]:
        """{max: weight} of the members of A_xi with min > e, entered from e."""
        key = (xi, e)
        if key not in self._g:
            out: dict[int, int] = {}
            for b in range(e + 1, self.hi + 1):
                w = self.edge(e, b)
                for end, c in self.f(xi, b).items():
                    out[end] = (out.get(end, 0) + w * c) % MOD
            self._g[key] = out
        return self._g[key]

    def _chain(self, powers, a):
        run = self.f(powers[0], a)
        for p in powers[1:]:
            nxt: dict[int, int] = {}
            for e, w in run.items():
                for end, c in self.g(p, e).items():
                    nxt[end] = (nxt.get(end, 0) + w * c) % MOD
            run = nxt
        return run

    def total(self, xi, first_weight) -> int:
        """Sum over all members of first_weight(min) * f-weight."""
        if not xi.terms:
            return 1
        return sum(first_weight(a) * sum(self.f(xi, a).values()) for a in range(1, self.hi + 1)) % MOD


_H = [random.Random(f"element:{x}").getrandbits(61) for x in range(64)]


def _h(x: int) -> int:
    return _H[x]


def _set_hash(s) -> int:
    return prod(map(_H.__getitem__, s)) % MOD


def _fill(side: str, k: int, length: int) -> int:
    """Side-consistent words of the given length over k letters."""
    return k**length if side == "constant" else (k + 1) ** length - k**length


# --- word-sequence helpers ------------------------------------------------


def _seq(text: str) -> tuple[str, ...]:
    body = text[1:-1]
    return tuple(body.split(",")) if body else ()


def _offsets(seq) -> tuple[int, ...]:
    out, pos = [], 1
    for w in seq[:-1]:
        pos += len(w)
        out.append(pos)
    return tuple(out)


def _family_members(path: str) -> tuple[dict, set]:
    with open(path) as fh:
        data = json.load(fh)
    return data, {tuple(m) for m in data["members"]}


def _universe_size(k: int, side: str, budget: int) -> int:
    """1 + number of side-consistent sequences with 1..budget letters."""
    ways = [1] + [0] * budget  # ways[t]: sequences with exactly t letters
    for t in range(1, budget + 1):
        ways[t] = sum(ways[t - n] * _fill(side, k, n) for n in range(1, t + 1))
    return sum(ways)


def _witness(data: dict) -> verify.Witness:
    def tup(x):
        return tuple(tup(i) for i in x) if isinstance(x, list) else x

    kind = data["kind"]
    payload = list(data["payload"])
    if kind == "mono_set":
        payload = [tuple(payload[0]), payload[1], verify.Coloring.from_json(payload[2])]
    elif kind == "reduction_prefix":
        payload = [tuple(payload[0]), payload[1]] + [
            verify.Coloring.from_json(c) if c else None for c in payload[2:4]
        ] + [tuple(payload[4])]
    elif kind == "subspace_prefix":
        payload = [tuple(payload[0]), payload[1], verify.Coloring.from_json(payload[2]), tuple(payload[3])]
    return verify.Witness(kind, tuple(payload), tup(data["certificate"]), tup(data["bounds"]))


# --- the checker ------------------------------------------------------------


class Checker:
    def __init__(self):
        self.seen: dict[str, dict] = {}
        self._counters: dict = {}
        self._profiles: dict = {}

    def check(self, job, returncode: int, report: dict | None) -> str | None:
        """None when the job ended with a checked answer, else why not."""
        if returncode not in (0, 1):
            return f"exit code {returncode}"
        if report is None:
            return "no JSON report"
        try:
            expect_rc = self._check_kind(job, report)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # a malformed answer must not stop the run
            return f"unreadable answer: {type(exc).__name__}: {exc}"
        if returncode != expect_rc:
            return f"exit code {returncode} does not match the answer (expected {expect_rc})"
        ans = answer(job.kind, report)
        first = self.seen.setdefault(job.key(), ans)
        if first != ans:
            return "answer differs from an earlier run of the same input"
        return None

    def _check_kind(self, job, rep) -> int:
        argv = job.argv
        rule = _opt(argv, "--rule", "fixed")
        cfg = schreier.SchreierConfig(rule)
        kind = job.kind
        if kind.startswith("schreier"):
            xi = ordinal.parse(_opt(argv, "--xi"))
            return getattr(self, "_" + kind.split()[1])(argv, rep, xi, rule, cfg)
        if kind == "cbindex":
            return self._cbindex(argv, rep)
        if kind.startswith("verify"):
            return getattr(self, "_" + kind.split()[1].replace("-", "_"))(argv, rep, cfg)
        if kind == "wxi enumerate":
            return self._wxi_enumerate(argv, rep, rule, cfg)
        return getattr(self, "_family_" + kind.split()[1])(argv, rep)

    def _counter(self, rule, hi, hashed):
        key = (rule, hi, hashed)
        if key not in self._counters:
            self._counters[key] = SetCounter(rule, hi, (lambda p, x: _h(x)) if hashed else (lambda p, x: 1))
        return self._counters[key]

    # -- sets ------------------------------------------------------------
    def _enumerate(self, argv, rep, xi, rule, cfg):
        n = int(_opt(argv, "--max-n"))
        members = rep["members"]
        _require(rep["count"] == len(members), "count differs from the member list")
        _require(all(a < b for a, b in zip(members, members[1:])), "members not strictly lexicographic")
        _require(all(m == sorted(set(m)) for m in members), "a member is not an increasing list")
        _require(all(1 <= m[0] and m[-1] <= n for m in members if m), f"a member is not a subset of 1..{n}")
        _require(self._counter(rule, n, False).total(xi, lambda a: 1) == len(members) % MOD,
                 "member count differs from the counting recursion")
        _require(self._counter(rule, n, True).total(xi, _h) == sum(map(_set_hash, members)) % MOD,
                 "member hash sum differs from the counting recursion")
        rng = random.Random(hashlib.sha256(json.dumps(argv).encode()).digest())
        for m in rng.sample(members, min(SAMPLE, len(members))):
            _require(verify.mem_direct(xi, tuple(m), cfg), f"{m} is not a member by mem_direct")
        return 0

    def _mem(self, argv, rep, xi, rule, cfg):
        s = tuple(json.loads("[" + _opt(argv, "--set").strip("{}") + "]"))
        truth = verify.mem_direct(xi, s, cfg)
        _require(rep["member"] == truth, f"member={rep['member']} but mem_direct says {truth}")
        return 0 if truth else 1

    def _decompose(self, argv, rep, xi, rule, cfg):
        stream = json.loads("[" + _opt(argv, "--stream").strip("{}") + "]")
        seg = rep["initial_segment"]
        _require(seg == stream[: len(seg)], "initial segment is not a prefix of the stream")
        _require(verify.mem_direct(xi, tuple(seg), cfg), "initial segment is not a member by mem_direct")
        return 0

    def _transfer(self, argv, rep, xi, rule, cfg):
        n = int(_opt(argv, "-n"))
        xi_n = ordinal.parse(rep["transfer_index"])
        # A_xi(n) and A_(xi_n) above n agree inside {n+1..hi}: same
        # hash sums for each maximum
        counter = self._counter(rule, min(n + 14, 24), True)
        left = counter.f(xi, n)
        right = {n: 1} if not xi_n.terms else counter.g(xi_n, n)
        _require({k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v},
                 "A_xi(n) differs from A_(xi_n) above n")
        return 0

    # -- chains ----------------------------------------------------------
    def _cbindex(self, argv, rep):
        spec = _opt(argv, "--family")
        levels = _opt(argv, "--levels")
        if spec.startswith("len:"):
            k = int(spec[4:])
            if levels is None:
                _require(rep["so_index"] == k, f"index {rep['so_index']} of len:{k} is not {k}")
                return 0
            key = (k, _opt(argv, "--alphabet", "ab"), _opt(argv, "--side-full", "constant"),
                   _opt(argv, "--stream", "e:40"), int(levels), int(_opt(argv, "--seed-letters", k)))
            if key not in self._profiles:
                alph = words.Alphabet(tuple(key[1]))
                fam = cbindex.length_truncation_family(alph, key[2], k, key[5])
                exact = cbindex.ChainOracle("exact", rule="length")
                self._profiles[key] = cbindex.derivative_profile(fam, _parse_stream(key[3], alph), exact, key[4])
            _require(rep["profile"] == self._profiles[key], "profile differs from the exact-rule profile")
            return 0
        # explicit tree family on a stream long enough for all members:
        # the exact rule peels one length per pass
        _data, members = _family_members(spec)
        top = max((len(m) for m in members), default=0)
        if levels is None:
            _require(rep["so_index"] == top, f"index {rep['so_index']} is not the longest member length {top}")
        else:
            want = [len(members)] + [sum(len(m) <= top - j for m in members) for j in range(1, int(levels) + 1)]
            _require(rep["profile"] == want, f"profile {rep['profile']} is not {want}")
        return 0

    # -- witness ---------------------------------------------------------
    def _witness_ok(self, rep, cfg, **ctx):
        w = _witness(rep["witness"])
        _require(rep["witness_checked"] is True, "report does not mark its witness checked")
        _require(verify.check_witness(w, cfg, **ctx), f"{w.kind} witness fails its independent check")
        return w

    def _ramsey(self, argv, rep, cfg):
        n, target = int(_opt(argv, "--max-n")), int(_opt(argv, "--target"))
        if rep["found"]:
            w = self._witness_ok(rep, cfg)
            L = w.payload[0]
            _require(len(L) >= target and set(L) <= set(range(1, n + 1)), "witness set out of bounds")
            return 0
        space = sum(comb(n, s) for s in range(target, n + 1))
        _require(rep["visited"] == rep["expected"] == space, "exhausted search did not visit the whole space")
        return 1

    def _carlson(self, argv, rep, cfg):
        if rep["found"]:
            w = self._witness_ok(rep, cfg)
            _require(len(w.payload[0]) == int(_opt(argv, "--depth")), "witness prefix has the wrong depth")
            return 0
        return 1

    def _subspace(self, argv, rep, cfg):
        if rep["found"]:
            self._witness_ok(rep, cfg)
            return 0
        return 1

    def _hj(self, argv, rep, cfg):
        r, n, k = (int(_opt(argv, f)) for f in ("--r", "--n", "--k"))
        mmax, xi = int(_opt(argv, "--mmax")), _opt(argv, "--xi")
        M = rep["M"]
        if (r, n, k, xi) == (2, 1, 2, "0"):
            _require(M == (2 if mmax >= 2 else None), f"M={M} for the two-letter line instance")
        checked = rep["colorings_checked"]
        if M is not None:
            _require(M <= mmax and checked[str(M)] == r ** rep["cube_size"], "threshold level not exhausted")
        for m in range(1, (M or mmax + 1)):
            if checked[str(m)]:
                d = rep["defeaters"][str(m)]
                _require(all(1 <= c <= r for c in d.values()), f"defeater at M={m} is not an r-coloring")
        return 0 if M is not None else 1

    def _pair_sweep(self, argv, rep, cfg):
        n, target = int(_opt(argv, "--max-n")), int(_opt(argv, "--target"))
        pairs = {p: i for i, p in enumerate(combinations(range(1, n + 1), 2))}
        triples = [[pairs[p] for p in combinations(t, 2)] for t in combinations(range(1, n + 1), target)]
        least = None
        for c in range(1 << len(pairs)):
            if not any(len({(c >> i) & 1 for i in t}) == 1 for t in triples):
                least = c
                break
        if target == 3:
            _require((least is None) == (n >= 6), "pair threshold is not 6")
        _require(rep["colorings"] == rep["visited"] == 1 << len(pairs), "sweep did not visit every coloring")
        _require(rep["all_have_witness"] == (least is None) and rep["defeating_coloring"] == least,
                 "defeating coloring differs from the direct sweep")
        return 0 if least is None else 1

    def _nw(self, argv, rep, cfg):
        fixture = _opt(argv, "--fixture")
        _require(rep["consistent"] is True, f"{fixture} fixture reported inconsistent")
        if fixture == "wide":
            _require(rep["inside"] == rep["probed"], "wide fixture: probes outside the closure")
        elif fixture == "narrow":
            _require(rep["outside"] == rep["probed"] > 0, "narrow fixture: probes inside the closure")
        else:
            _require(rep["probed"] == 0, "empty fixture probed something")
        prof = rep.get("derivative_profile") or []
        _require(all(a >= b for a, b in zip(prof, prof[1:])), "derivative profile increases")
        return 0

    def _wxi_enumerate(self, argv, rep, rule, cfg):
        xi = ordinal.parse(_opt(argv, "--xi"))
        alphabet = _opt(argv, "--alphabet")
        side = {"c": "constant", "v": "variable"}[_opt(argv, "--side", "c")]
        budget = int(_opt(argv, "--letters"))
        k = len(alphabet)
        seqs = [_seq(t) for t in rep["members"]]
        _require(rep["count"] == len(seqs) == len(set(seqs)), "count differs from the distinct members")
        for s in seqs:
            _require(0 < sum(map(len, s)) <= budget, f"{s} exceeds the letter budget")
            for w in s:
                _require(w and set(w) <= set(alphabet + "_") and (("_" in w) == (side == "variable")),
                         f"{s} is not {side}-side over {alphabet}")
            _require((len(s) == 1) if not xi.terms else len(s) >= 2, f"{s} has the wrong length for level {xi}")
        if not xi.terms:
            want = sum(_fill(side, k, n) for n in range(1, budget + 1))
        else:
            # offset sets in A_xi inside {2..budget}; weights count the
            # fillings of each word, the last word of any fitting length
            counter = SetCounter(rule, budget, lambda p, x: _fill(side, k, x - p))
            want = 0
            for a in range(2, budget + 1):
                for end, c in counter.f(xi, a).items():
                    tail = sum(_fill(side, k, n) for n in range(1, budget - end + 2))
                    want += _fill(side, k, a - 1) * c * tail
            want %= MOD
        _require(len(seqs) % MOD == want, f"count {len(seqs)} differs from the direct count {want}")
        if xi.terms:
            rng = random.Random(hashlib.sha256(json.dumps(argv).encode()).digest())
            for s in rng.sample(seqs, min(SAMPLE, len(seqs))):
                _require(verify.mem_direct(xi, _offsets(s), cfg), f"{s} offsets are not in A_xi")
        return 0

    # -- families ----------------------------------------------------------
    def _family_close(self, argv, rep):
        data, members = _family_members(_opt(argv, "--file"))
        closed = {_seq(t) for t in rep["closed"]}
        _require(rep["closed_size"] == len(closed) == len(rep["closed"]), "closed size differs")
        star = _opt(argv, "--closure", "star") == "star"
        _require(() in closed, "closure lacks the empty sequence")
        # the constant-side hereditary closure keeps only members with a
        # variable witness, so only the other closures contain their input
        if star or data["side"] == "variable":
            _require(members <= closed, "closure lost a member")
        fam = families.family_from_texts(words.Alphabet(tuple(data["alphabet"])), data["side"], closed)
        if star:
            _require(all(m[:i] in closed for m in closed for i in range(len(m))), "star closure not prefix-closed")
        else:
            again = families.substar(fam) if data["side"] == "variable" else families.g_substar(fam)
            _require(again.members == fam.members, "hereditary closure is not idempotent")
        return 0

    def _family_kernel(self, argv, rep):
        data, members = _family_members(_opt(argv, "--file"))
        kern = {_seq(t) for t in rep["kernel"]}
        _require(rep["kernel_size"] == len(kern), "kernel size differs")
        _require(kern <= members | {()}, "kernel is not a subfamily")
        fam = families.family_from_texts(words.Alphabet(tuple(data["alphabet"])), data["side"], kern)
        _require(families.is_hereditary(fam), "kernel is not hereditary")
        return 0

    def _family_dichotomy(self, argv, rep):
        data, _members = _family_members(_opt(argv, "--file"))
        horizon = int(_opt(argv, "--stream")[2:])
        budget = min(int(_opt(argv, "--letters")), horizon)
        _require(rep["equivalent"] is True, "tree dichotomy horns disagree")
        _require(rep["universe_size"] == _universe_size(len(data["alphabet"]), data["side"], budget),
                 "universe size differs from the direct count")
        return 0 if rep["equivalent"] else 1

