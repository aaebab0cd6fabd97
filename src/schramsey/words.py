"""Words over a finite alphabet with one distinguished variable letter,
and the reduction calculus on (finite prefixes of) infinite sequences of
variable words.

A word is a plain `str` over single-character symbols, with '_' as the
variable (a_b = a,var,b); a word sequence is a tuple of such strings.

A reduction substitutes one letter (or the variable itself) into each
word of a stream prefix and concatenates consecutive blocks; the block
structure of the substituted letter-word t is recorded by d_map(t).
`reduce_block` is the one place that substitutes into stream words,
`block_reductions`/`reductions` enumerate the side-consistent
reductions, `align` inverts one block against a stream, and `steps` is
the one table of ways to grow a reduction along a stream by one word.
`universe` is the one generator of the bounded universe of
side-consistent word sequences, and `span` the word-by-word
substitution images of a sequence.

A word's prefixes are its `str` prefixes (`startswith`); word sequences
are ordered by strict initial segment, seq_is_prefix.
"""

from __future__ import annotations

from itertools import product

from .errors import BudgetExceeded, HorizonExceeded

VAR = "_"

Word = str
WordSeq = tuple[str, ...]

MAX_REDUCTION_CASES = 1 << 20  # block cuts x substitutions of one listing
MAX_BLOCK_WORDS = 2  # stream words in the one new block of a `steps` entry
MAX_HORIZON = 1 << 20  # stream words: about the chain search's 500,000 nodes x MAX_BLOCK_WORDS
MAX_UNIVERSE_LETTERS = 1 << 24  # letters of one `universe` listing, over all its sequences


class Alphabet:
    __slots__ = ("symbols",)
    variable = VAR

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbol {s!r} is not a single character")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if VAR in symbols:
            raise ValueError("variable must not be an alphabet symbol")
        self.symbols = symbols

    @property
    def full(self) -> tuple[str, ...]:
        return self.symbols + (VAR,)


def word(text: str, alph: Alphabet) -> Word:
    """Parse juxtaposed single-character symbols, VAR for the variable."""
    for ch in text:
        if ch != VAR and ch not in alph.symbols:
            raise ValueError(f"letter {ch!r} not in alphabet")
    if not text:
        raise ValueError("words are non-empty")
    return text


def seq_text(seq: WordSeq) -> str:
    return "(" + ",".join(seq) + ")"


def seq_is_prefix(s: WordSeq, t: WordSeq) -> bool:
    """Strict initial-segment order on word sequences."""
    return len(s) < len(t) and t[: len(s)] == s


def seq_sort_key(seq: WordSeq):
    return (len(seq), seq)


def d_map(seq: WordSeq) -> tuple[int, ...]:
    """Cumulative word-start offsets {k2 < ... < kl}; empty for one word."""
    if not seq:
        raise ValueError("d_map needs a non-empty sequence")
    offsets = []
    pos = 1
    for w in seq[:-1]:
        pos += len(w)
        offsets.append(pos)
    return tuple(offsets)


# --- the reduction kernel ------------------------------------------------


def side_words(alph: Alphabet, side: str, length: int):
    """Every side-consistent word of the given length, in product order:
    constant words over the symbols, variable words over the symbols and
    the variable with at least one variable."""
    if side == "constant":
        for letters in product(alph.symbols, repeat=length):
            yield "".join(letters)
    else:
        for letters in product(alph.full, repeat=length):
            if VAR in letters:
                yield "".join(letters)


def side_consistent(seq: WordSeq, side: str) -> bool:
    """Every word of seq is constant (side 'constant') or carries the
    variable (side 'variable')."""
    if side == "constant":
        return all(VAR not in w for w in seq)
    return all(VAR in w for w in seq)


def shapes(total: int, parts: int):
    """Compositions of `total` into `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in shapes(total - first, parts - 1):
            yield (first,) + rest


def fill_words(shape: tuple[int, ...], side: str, alph: Alphabet):
    """All side-consistent word sequences with the given word lengths."""
    return product(*[list(side_words(alph, side, length)) for length in shape])


def _require_universe_budget(alph: Alphabet, side: str, letter_budget: int, max_words: int | None = None) -> None:
    """Refuse, before any work, a `universe` listing of more than
    MAX_REDUCTION_CASES sequences or MAX_UNIVERSE_LETTERS letters, counted
    letter by letter up to the first total past a budget: a letter extends
    the last word or starts a new one.  done[w] counts the sequences of w
    words whose last word is side-consistent, open_[w] those whose last
    word lacks the variable."""
    k = len(alph.symbols)
    done, open_ = [1], [0]  # the empty sequence
    count = letters = 0
    listing = f"universe of {side} sequences with up to {letter_budget} letters lists"
    for total in range(1, letter_budget + 1):
        ws = range(1, (total if max_words is None else min(total, max_words)) + 1)
        done, open_ = done + [0], open_ + [0]
        if side == "constant":
            done = [0] + [k * (done[w] + done[w - 1]) for w in ws]
        else:
            done, open_ = ([0] + [(k + 1) * done[w] + open_[w] + done[w - 1] for w in ws],
                           [0] + [k * (open_[w] + done[w - 1]) for w in ws])
        count += sum(done)
        letters += total * sum(done)
        if count > MAX_REDUCTION_CASES:
            raise BudgetExceeded(listing, count, MAX_REDUCTION_CASES, noun=f"sequences by {total} letters")
        if letters > MAX_UNIVERSE_LETTERS:
            raise BudgetExceeded(listing, letters, MAX_UNIVERSE_LETTERS, noun=f"letters by {total} letters",
                                 unit="letters")


def universe(alph: Alphabet, side: str, letter_budget: int, max_words: int | None = None):
    """Every side-consistent word sequence with 1..letter_budget letters
    (and at most max_words words), by total letters, then word count,
    then word lengths, then letters.  A listing over its budget is
    refused before the first sequence."""
    _require_universe_budget(alph, side, letter_budget, max_words)
    for total in range(1, letter_budget + 1):
        most = total if max_words is None else min(total, max_words)
        for parts in range(1, most + 1):
            for shape in shapes(total, parts):
                yield from fill_words(shape, side, alph)


def span(tseq: WordSeq, alph: Alphabet) -> tuple[WordSeq, ...]:
    """Word-by-word substitution images (no concatenation): sequences
    (t1(a1), ..., tm(am)) over all constant letter choices."""
    if not tseq:
        return ()
    images = {tuple(w.replace(VAR, a) for w, a in zip(tseq, assign))
              for assign in product(alph.symbols, repeat=len(tseq))}
    return tuple(sorted(images, key=seq_sort_key))


def reduce_block(ws: WordSeq, t: Word) -> Word:
    """Substitute the i-th letter of t into the i-th word of ws and
    concatenate: the one substitution into stream words."""
    return "".join([w.replace(VAR, a) for w, a in zip(ws, t)])


def block_reductions(ws: WordSeq, alph: Alphabet, side: str) -> list[Word]:
    """ws reduced as one block by every side-consistent letter-word."""
    return [reduce_block(ws, t) for t in side_words(alph, side, len(ws))]


def reductions(ws: WordSeq, alph: Alphabet, side: str):
    """Every reduction of the whole of ws on one side: a cut of ws into
    consecutive blocks and a side-consistent substitution into each
    block.  Yields (blocks, d) with d the 1-based indices of the words
    that start a later block."""
    n = len(ws)
    memo: dict[tuple[int, int], list[Word]] = {}

    def options(lo: int, hi: int) -> list[Word]:
        if (lo, hi) not in memo:
            memo[(lo, hi)] = block_reductions(ws[lo:hi], alph, side)
        return memo[(lo, hi)]

    for cuts in product((False, True), repeat=n - 1):
        bounds = [0] + [i for i, cut in enumerate(cuts, start=1) if cut] + [n]
        d = tuple(b + 1 for b in bounds[1:-1])
        for blocks in product(*[options(lo, hi) for lo, hi in zip(bounds, bounds[1:])]):
            yield blocks, d


class VarWordStream:
    """Finite materialized prefix of an infinite sequence of variable words.

    Reading past the horizon raises instead of fabricating entries.
    The label is the stream's spec, by default `list:w1,w2,...`.
    """

    __slots__ = ("alph", "prefix", "label")

    def __init__(self, alph: Alphabet, prefix: WordSeq, label: str | None = None):
        if not prefix:
            raise ValueError("stream horizon must be >= 1")
        for w in prefix:
            if VAR not in w:
                raise ValueError("stream entries must be variable words")
        self.alph, self.prefix, self.label = alph, prefix, label or f"list:{','.join(prefix)}"

    @property
    def horizon(self) -> int:
        return len(self.prefix)

    def word_at(self, i: int) -> Word:
        """1-based access within the horizon."""
        if not 1 <= i <= len(self.prefix):
            raise HorizonExceeded(f"stream {self.label} has horizon {len(self.prefix)}")
        return self.prefix[i - 1]

    def words(self, start: int, count: int) -> WordSeq:
        """Stream words start+1 .. start+count, within the horizon."""
        if start + count > len(self.prefix):
            self.word_at(start + count)  # raises HorizonExceeded
        return self.prefix[start : start + count]


def _require_horizon(spec: str, horizon: int) -> str:
    """Refuse, before allocating, a stream of more than MAX_HORIZON words;
    return its spec, the stream's label."""
    if horizon > MAX_HORIZON:
        raise BudgetExceeded(f"stream {spec} has horizon", horizon, MAX_HORIZON, unit="words")
    return spec


def upsilon_stream(alph: Alphabet, horizon: int) -> VarWordStream:
    """The identity stream: the bare variable repeated."""
    return VarWordStream(alph, (VAR,) * horizon, label=_require_horizon(f"e:{horizon}", horizon))


def pattern_stream(alph: Alphabet, head: list[str], repeat: list[str], horizon: int) -> VarWordStream:
    label = _require_horizon(f"pat:{','.join(head)};{','.join(repeat)}:{horizon}", horizon)
    words = [word(t, alph) for t in head]
    body = [word(t, alph) for t in repeat]
    if not body and len(words) < horizon:
        raise ValueError("pattern too short for the requested horizon")
    while len(words) < horizon:
        words.extend(body)
    return VarWordStream(alph, tuple(words[:horizon]), label=label)


def reduce_word(stream: VarWordStream, t: Word) -> Word:
    """Substitute t's i-th letter into the stream's i-th word, concatenated."""
    return reduce_block(stream.words(0, len(t)), t)


def reduce_seq(stream: VarWordStream, t: WordSeq) -> WordSeq:
    """Block-wise reduction: each word of t reduces one block of the stream.

    The block complexity of the output relative to the stream equals
    d_map(t) by construction.
    """
    out = []
    pos = 0
    for block in t:
        out.append(reduce_block(stream.words(pos, len(block)), block))
        pos += len(block)
    return tuple(out)


def reduced_words(seq: WordSeq, alph: Alphabet, side: str) -> tuple[Word, ...]:
    """The reduced words of a finite variable-word block on one side:
    every side-consistent per-word substitution, concatenated, sorted."""
    if not side_consistent(seq, "variable"):
        raise ValueError("reduced_words needs variable words")
    return tuple(sorted(set(block_reductions(seq, alph, side))))


def require_reduction_budget(n: int, alph: Alphabet) -> None:
    """Refuse, before any work, a listing of the reductions of n words
    with more block cuts x substitutions than MAX_REDUCTION_CASES."""
    cases = 2 ** max(n - 1, 0) * len(alph.full) ** n
    if cases > MAX_REDUCTION_CASES:
        what = f"finite_reductions of {n} words needs"
        raise BudgetExceeded(what, cases, MAX_REDUCTION_CASES, noun="cases")


def finite_reductions(seq: WordSeq, alph: Alphabet, side: str) -> tuple[tuple[WordSeq, tuple[int, ...]], ...]:
    """All block-partition x substitution reductions on one side that
    consume seq entirely: (sequence, d-value) pairs in canonical order,
    led by the empty sequence with d = ().  The variable side keeps the
    reductions every block of which carries the variable."""
    require_reduction_budget(len(seq), alph)
    if not side_consistent(seq, "variable"):
        raise ValueError("finite_reductions needs variable words")
    # a reduced sequence fixes its cut, since words are non-empty
    found = dict(reductions(seq, alph, side)) if seq else {}
    found[()] = ()
    return tuple(sorted(found.items(), key=lambda kv: seq_sort_key(kv[0])))


def hereditary_reductions(seq: WordSeq, alph: Alphabet, side: str) -> tuple[WordSeq, ...]:
    """What a hereditary family holding seq must hold on one side: the
    non-empty reductions of seq's non-empty initial segments, in canonical
    order.  A reduction of seq[:k] extends to one of seq by one more block,
    so these are the non-empty initial segments of seq's own reductions."""
    found = {r[:i] for r, _d in finite_reductions(seq, alph, side) for i in range(1, len(r) + 1)}
    return tuple(sorted(found, key=seq_sort_key))


def align(stream: VarWordStream, start: int, u: Word, side: str) -> tuple[Word, int] | None:
    """Invert one block: the letter-word t with reduce_block(stream words
    start+1..end, t) == u, and end; None when there is none or when t is
    not on `side` (constant: no variable; variable: some variable).
    Raises HorizonExceeded when u runs past the horizon."""
    t = ""
    end = start
    consumed = 0
    while consumed < len(u):
        end += 1
        w = stream.word_at(end)
        segment = u[consumed : consumed + len(w)]
        letter = segment[w.index(VAR)] if len(segment) == len(w) else None
        if letter is None or w.replace(VAR, letter) != segment:
            return None
        t += letter
        consumed += len(w)
    return (t, end) if (VAR in t) == (side == "variable") else None


def steps(stream: VarWordStream, k: int, side: str) -> tuple[list[tuple[Word, int]], bool]:
    """The one-word extensions of a reduction ending at stream word k:
    every side-consistent reduction of stream words k+1..k+b as one
    block, b <= MAX_BLOCK_WORDS, with its end k+b, by b and then letters;
    and whether the stream horizon cut the list short."""
    blocks = min(MAX_BLOCK_WORDS, stream.horizon - k)
    entries = [
        (chunk, k + b)
        for b in range(1, blocks + 1)
        for chunk in block_reductions(stream.prefix[k : k + b], stream.alph, side)
    ]
    return entries, blocks < MAX_BLOCK_WORDS
