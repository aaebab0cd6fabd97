"""Seeded job generator for the three benchmark workloads.

A workload is an endless sequence of rounds.  A round is a fixed list of
slots (job kind plus size range), shuffled by the seed; the seed then
draws each job's parameters inside its slot's range.  Every seed thus
gets the same mix of kinds and cost classes, which keeps percentiles
comparable from seed to seed, while the concrete inputs differ.

The ranges were chosen by cost alone (Python 3.11, one core; every job
also pays about 0.13 s of interpreter start and import):

* sets: enumerations at ground sizes 12-16 (under 0.05 s of work and
  13k members), mem/transfer/decompose point queries (under 0.01 s),
  and the bulk enumeration of w^w up to 20 under each rule (about
  0.3 s, a 0.7 MB report and the run's largest RSS);
* chains: len:1-3 families under horizon oracles (0.01-0.6 s), exact
  rule on len:3-5 (up to 0.4 s), explicit trees (under 0.05 s);
* witness: light searches and sweeps (under 0.1 s) and three heavy
  slots (0.15-0.4 s).

No job is chosen or dropped for its outcome.  Known defects lie outside
these ranges and are not excluded on purpose: the `_consume` recursion
crash needs successor indices in the thousands, the `succ` descent hang
needs xi >= w^w^w, and the unbounded sweeps need pair-sweep n >= 7 or hj
coloring spaces past 2^20.

The program sees only the argv lists and the family JSON files written
here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import product

WORKLOADS = ("sets", "chains", "witness")


@dataclass
class Job:
    kind: str  # e.g. "schreier enumerate", "cbindex", "family close"
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # path -> content

    def key(self) -> str:
        """Identity of the job's input: argv with file paths replaced by
        the files' contents."""
        return json.dumps([self.files.get(a, a) for a in self.argv])


# --- ordinals below w^(w^2) -------------------------------------------------


def _exp_text(a: int, b: int) -> str:
    """The exponent w*a + b (< w^2) as text."""
    if a == 0:
        return str(b)
    head = "w" if a == 1 else f"w*{a}"
    return head if b == 0 else f"{head}+{b}"


def _power_text(a: int, b: int) -> str:
    if a == 0 and b == 0:
        return "1"
    if a == 0 and b == 1:
        return "w"
    return f"w^({_exp_text(a, b)})"


def random_xi(rng: random.Random, max_a: int = 3, max_b: int = 3) -> str:
    """A random ordinal below w^(w^2) in normal form: one or two terms
    w^(w*a+b)*c with strictly decreasing exponents."""
    exps = sorted({(rng.randint(0, max_a), rng.randint(0, max_b)) for _ in range(rng.randint(1, 2))}, reverse=True)
    terms = []
    for a, b in exps:
        if a == 0 and b == 0:
            terms.append(str(rng.randint(1, 8)))
        else:
            c = rng.choice((1, 1, 1, 2, 3))
            p = _power_text(a, b)
            terms.append(p if c == 1 else f"{p}*{c}")
    return "+".join(terms)


# --- word sequences -----------------------------------------------------------


def _words(pool: str, length: int, variable: bool):
    for letters in product(pool, repeat=length):
        if not variable or "_" in letters:
            yield "".join(letters)


def seq_universe(alphabet: str, side: str, letters: int) -> list[tuple[str, ...]]:
    """All side-consistent word sequences with at most `letters` letters."""
    variable = side == "variable"
    pool = alphabet + "_" if variable else alphabet
    out = []

    def extend(prefix, left):
        for n in range(1, left + 1):
            for w in _words(pool, n, variable):
                seq = prefix + (w,)
                out.append(seq)
                extend(seq, left - n)

    extend((), letters)
    return out


def random_family(rng: random.Random, alphabet: str, side: str, letters: int, p: float, tree: bool) -> dict:
    picked = [s for s in seq_universe(alphabet, side, letters) if rng.random() < p]
    members = set(picked)
    if tree:
        members.add(())
        for s in picked:
            members.update(s[:i] for i in range(len(s)))
    return {"alphabet": list(alphabet), "side": side, "members": [list(m) for m in sorted(members)]}


# --- slots --------------------------------------------------------------------


def _rule(rng):
    return ["--rule", rng.choice(("fixed", "succ"))]


def _sets_enumerate(n_lo, n_hi):
    def make(rng, ctx):
        xi = random_xi(rng)
        n = rng.randint(n_lo, n_hi)
        return Job("schreier enumerate", _rule(rng) + ["schreier", "enumerate", "--xi", xi, "--max-n", str(n)])

    return make


def _sets_bulk(rule):
    # the reference bulk enumeration, once per rule in every round (two
    # of fifteen slots, so job_s.p90 falls inside this class)
    def make(rng, ctx):
        return Job("schreier enumerate", ["--rule", rule, "schreier", "enumerate", "--xi", "w^w", "--max-n", "20"])

    return make


def _sets_mem(rng, ctx):
    xi = random_xi(rng)
    if rng.random() < 0.5:  # a run of consecutive naturals
        lo = rng.randint(1, 6)
        s = list(range(lo, lo + rng.randint(1, 14)))
    else:
        s = sorted(rng.sample(range(1, 25), rng.randint(1, 12)))
    return Job("schreier mem", _rule(rng) + ["schreier", "mem", "--xi", xi, "--set", "{" + ",".join(map(str, s)) + "}"])


def _sets_transfer(rng, ctx):
    xi = random_xi(rng)
    return Job("schreier transfer", _rule(rng) + ["schreier", "transfer", "--xi", xi, "-n", str(rng.randint(1, 8))])


def _sets_decompose(rng, ctx):
    # indices whose member from min <= 3 fits in 64 consecutive naturals:
    # finite k needs k, w*c+j needs at most 45, w^2 needs 21
    kind = rng.randint(0, 2)
    if kind == 0:
        xi = str(rng.randint(1, 20))
    elif kind == 1:
        c, j = rng.randint(1, 3), rng.randint(0, 3)
        xi = ("w" if c == 1 else f"w*{c}") + (f"+{j}" if j else "")
    else:
        xi = "w^2"
    lo = rng.randint(1, 3)
    stream = "{" + ",".join(str(x) for x in range(lo, lo + 64)) + "}"
    return Job("schreier decompose", _rule(rng) + ["schreier", "decompose", "--xi", xi, "--stream", stream])


# stream patterns as (head words, repeated words)
_STREAMS = ((None, None), (["_"], ["__"]), (["_"], ["a_"]), (["__"], ["_"]), (["_", "_"], ["_", "__"]))


def _stream(rng, k):
    """A stream spec of 40-48 words and the letters its first k words
    hold: len:K seeds need that many letters to reach length K inside the
    stream's reductions, where the exact length rule applies.  Patterns
    needing more than max(k, 5) seed letters are left out: their seed
    lists grow past a second of work and a gigabyte."""
    fits = []
    for head, repeat in _STREAMS:
        if head is None:
            fits.append(("e:{n}", k))
            continue
        letters = sum(map(len, (head + repeat * k)[:k]))
        if letters <= max(k, 5):
            fits.append((f"pat:{','.join(head)};{','.join(repeat)}:{{n}}", letters))
    spec, letters = rng.choice(fits)
    return spec.format(n=rng.randint(40, 48)), letters


def _len_argv(rng, k, alphabet, oracle, profile=True):
    stream, seed_letters = _stream(rng, k)
    argv = ["cbindex", "--family", f"len:{k}", "--alphabet", alphabet,
            "--side-full", rng.choice(("constant", "variable")), "--stream", stream, "--oracle", oracle]
    if seed_letters != k:
        argv += ["--seed-letters", str(seed_letters)]
    if profile and rng.random() < 0.5:
        argv += ["--levels", str(rng.randint(1, k + 1))]
    return argv


def _chains_len(k_lo, k_hi, alphabets):
    def make(rng, ctx):
        k = rng.randint(k_lo, k_hi)
        alphabet = rng.choice(alphabets)
        return Job("cbindex", _len_argv(rng, k, alphabet, f"horizon:{k + rng.choice((2, 3))}"))

    return make


def _chains_heavy(rng, ctx):
    # the index of len:3 over abc at H = K+2: 0.25-0.6 s of work; two of
    # twelve slots, so job_s.p90 falls inside this class
    return Job("cbindex", _len_argv(rng, 3, "abc", "horizon:5", profile=False))


def _chains_exact(rng, ctx):
    return Job("cbindex", _len_argv(rng, rng.randint(3, 5), rng.choice(("ab", "abc")), "exact:length"))


def _chains_explicit(rng, ctx):
    fam = random_family(rng, "ab", "constant", 4, rng.uniform(0.05, 0.2), tree=True)
    path = ctx.path("family")
    argv = ["cbindex", "--family", path, "--stream", "e:12", "--oracle", "exact:length"]
    if rng.random() < 0.5:
        argv += ["--levels", str(rng.randint(1, 4))]
    return Job("cbindex", argv, {path: json.dumps(fam)})


_SEQ_COLORINGS = ("const:1", "first_len_mod:2", "total_len_mod:2", "first_letter:2")


def _witness_ramsey(rng, ctx):
    return Job("verify ramsey", _rule(rng) + [
        "verify", "ramsey", "--xi", rng.choice(("1", "2", "3", "w", "w+1")),
        "--max-n", str(rng.randint(9, 12)),
        "--coloring", rng.choice(("min_mod:2", "min_mod:3", "size_mod:2", "size_mod:3")),
        "--target", str(rng.randint(4, 7))])


def _witness_carlson(rng, ctx):
    return Job("verify carlson", _rule(rng) + [
        "verify", "carlson", "--xi", rng.choice(("0", "1", "2", "w")),
        "--chi1", rng.choice(_SEQ_COLORINGS), "--chi2", rng.choice(_SEQ_COLORINGS),
        "--stream", f"e:{rng.randint(10, 12)}", "--depth", "3"])


# The heavy slots, one of each per round (3 of 17 slots, so job_s.p90
# falls inside them), each 0.15-0.4 s of work: an exhausted Ramsey scan,
# a depth-4 prefix search, and the wide dichotomy fixture.  Depth-4
# searches at xi=2 with chi2=first_letter cost over a second and are left
# out by cost.
def _witness_ramsey_heavy(rng, ctx):
    xi, n = rng.choice((("3", "12"), ("2", "13")))
    return Job("verify ramsey", _rule(rng) + ["verify", "ramsey", "--xi", xi, "--max-n", n,
                                             "--coloring", "min_mod:3", "--target", "7"])


def _witness_carlson_heavy(rng, ctx):
    return Job("verify carlson", _rule(rng) + [
        "verify", "carlson", "--xi", "2", "--chi1", rng.choice(("const:1", "total_len_mod:2", "first_letter:2")),
        "--chi2", "first_len_mod:2", "--stream", "e:10", "--depth", "4"])


def _witness_nw_wide(rng, ctx):
    return Job("verify nw", _rule(rng) + ["verify", "nw", "--fixture", "wide", "--alphabet", "ab",
                                         "--letters", str(rng.randint(6, 8))])


def _witness_subspace(rng, ctx):
    return Job("verify subspace", _rule(rng) + [
        "verify", "subspace", "--xi", rng.choice(("0", "1")),
        "--chi", rng.choice(("set_size_mod:2", "set_size_mod:3", "min_len_mod:2")),
        "--stream", f"e:{rng.randint(6, 8)}", "--depth", str(rng.randint(2, 3))])


def _witness_hj(rng, ctx):
    # the two-letter line instance (known threshold M = 2) and the
    # instances that stay within the 2^20 coloring space
    r, n, k, xi, mmax = rng.choice((
        (2, 1, 2, "0", rng.randint(1, 4)),
        (2, 1, 2, "0", 4),
        (3, 1, 2, "0", 3),
        (2, 1, 3, "0", 2),
        (2, 1, 2, "1", 3),
    ))
    return Job("verify hj", _rule(rng) + ["verify", "hj", "--r", str(r), "--n", str(n), "--k", str(k),
                                         "--xi", xi, "--mmax", str(mmax)])


def _witness_pair_sweep(rng, ctx):
    return Job("verify pair-sweep", ["verify", "pair-sweep", "--max-n", str(rng.randint(3, 6)), "--target", "3"])


def _witness_nw(rng, ctx):
    fixture = rng.choice(("narrow", "narrow", "empty"))
    return Job("verify nw", _rule(rng) + ["verify", "nw", "--fixture", fixture, "--alphabet", "ab",
                                         "--letters", str(rng.randint(5, 7))])


def _witness_wxi(rng, ctx):
    return Job("wxi enumerate", _rule(rng) + [
        "wxi", "enumerate", "--xi", rng.choice(("0", "1", "2", "w", "w+1")),
        "--alphabet", rng.choice(("ab", "abc")), "--side", rng.choice(("c", "v")),
        "--letters", str(rng.randint(4, 6))])


def _witness_family(action):
    def make(rng, ctx):
        side = rng.choice(("constant", "variable")) if action != "dichotomy" else "constant"
        fam = random_family(rng, "ab", side, 3, rng.uniform(0.05, 0.15), tree=action == "dichotomy")
        path = ctx.path("family")
        argv = ["family", action, "--file", path]
        if action == "close":
            argv += ["--closure", rng.choice(("star", "hereditary"))]
        elif action == "dichotomy":
            argv += ["--xi", rng.choice(("1", "2", "w", "w+1")), "--stream", f"e:{rng.randint(3, 4)}",
                     "--letters", "3"]
        return Job(f"family {action}", argv, {path: json.dumps(fam)})

    return make


# Why each workload: `sets` is ordinal arithmetic and the Schreier
# recursion alone (bulk cached enumeration; words, wxi, cbindex never
# run), `chains` is the chain DFS, stream re-matching and word
# substitution alone (ordinal and schreier never run), and `witness` is
# the searches with their certificate checkers, which use schreier as
# many small greedy `mem` queries, plus the brute-force sweeps.
ROUNDS = {
    "sets": [
        _sets_enumerate(12, 13), _sets_enumerate(12, 14), _sets_enumerate(13, 15),
        _sets_enumerate(14, 16), _sets_enumerate(15, 16), _sets_enumerate(16, 16),
        _sets_bulk("fixed"), _sets_bulk("succ"),
        _sets_mem, _sets_mem, _sets_mem,
        _sets_transfer, _sets_transfer,
        _sets_decompose, _sets_decompose,
    ],
    "chains": [
        _chains_len(1, 2, ("ab", "abc")), _chains_len(1, 2, ("ab", "abc")),
        _chains_len(2, 3, ("ab",)), _chains_len(2, 3, ("ab",)), _chains_len(3, 3, ("ab",)),
        _chains_heavy, _chains_heavy,
        _chains_exact, _chains_exact,
        _chains_explicit, _chains_explicit, _chains_explicit,
    ],
    "witness": [
        _witness_ramsey_heavy, _witness_carlson_heavy, _witness_nw_wide,
        _witness_ramsey, _witness_ramsey, _witness_carlson, _witness_carlson,
        _witness_subspace, _witness_hj, _witness_hj, _witness_pair_sweep, _witness_pair_sweep,
        _witness_nw, _witness_wxi,
        _witness_family("close"), _witness_family("kernel"), _witness_family("dichotomy"),
    ],
}


class _Ctx:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{stem}-{self.count}.json")


def generate(workload: str, seed: int, workdir: str):
    """Endless job sequence for (workload, seed); family files are named
    under workdir and written by `materialize`."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    ctx = _Ctx(workdir)
    while True:
        slots = list(ROUNDS[workload])
        rng.shuffle(slots)
        for make in slots:
            yield make(rng, ctx)


def materialize(job: Job) -> None:
    for path, text in job.files.items():
        with open(path, "w") as fh:
            fh.write(text)
