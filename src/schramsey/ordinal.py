"""Ordinal arithmetic in Cantor normal form, capped below the first
fixed point of a -> w^a.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with e1 > ... > ek
(each exponent again such a sum) and positive integer coefficients.
The empty sum is 0.  An `Ordinal` is the tuple of its (exponent,
coefficient) terms.  The normal form is unique and its exponents
decrease, so tuple equality, hashing and lexicographic order are the
ordinal ones, and ordinals can be dict keys.

Every limit ordinal here carries a canonical approximating sequence
(`fixed_seq`), plus the variant that iterates it down to a successor
(`fixed_seq_succ`).  Ordinals whose approximation would require an
epsilon number (a = w^a) are not representable in this normal form at
all, which is exactly the supported range.
"""

from __future__ import annotations

from .errors import BudgetExceeded, OrdinalParseError, OrdinalRangeError

MAX_TOWER_DEPTH = 64
MAX_COEFF = 2**63 - 1
MAX_DESCENT_STEPS = 1_000  # steps of one walk down approximating sequences


class Ordinal(tuple):
    """A Cantor-normal-form ordinal: the tuple of its terms.

    The constructor does not check normal form: `parse`, the arithmetic
    below and `schreier.transfer_index` build only normal forms, and
    every coefficient they can grow passes `check_coeff`.  Tuple `+` and `*` are disabled, since
    they would build non-normal forms; ordinal sum is `add`.
    """

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

    @property
    def terms(self) -> "Ordinal":
        """The term tuple, which is the ordinal itself."""
        return self

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"

    def __str__(self) -> str:
        return format_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def check_coeff(n: int) -> int:
    """n, if it is within the coefficient cap."""
    if n > MAX_COEFF:
        raise OrdinalRangeError(f"coefficient {n} exceeds cap")
    return n


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, check_coeff(n)),))


def tower_depth(a: Ordinal) -> int:
    """The nesting depth of w^ in a.  Below e_0 a smaller ordinal is never
    deeper, so in a normal form the leading exponent decides."""
    return 1 + tower_depth(a[0][0]) if a else 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; left terms below b's leading exponent are absorbed."""
    if not b:
        return a
    lead, merged_coeff = b[0]
    kept = []
    for exp, coeff in a:
        if exp > lead:
            kept.append((exp, coeff))
        else:
            if exp == lead:
                merged_coeff = check_coeff(merged_coeff + coeff)
            break
    return Ordinal((*kept, (lead, merged_coeff), *b[1:]))


def nat_mul(a: Ordinal, n: int) -> Ordinal:
    """a*n for a natural n >= 1 (n-fold ordinal sum)."""
    if n < 1:
        raise ValueError("nat_mul needs n >= 1")
    if not a or n == 1:
        return a
    (exp, coeff), rest = a[0], a[1:]
    return Ordinal(((exp, check_coeff(coeff * n)), *rest))


def omega_pow(a: Ordinal) -> Ordinal:
    """w**a.  Rejects results past the tower-depth cap (approaching e_0)."""
    if tower_depth(a) + 1 > MAX_TOWER_DEPTH:
        raise OrdinalRangeError("w**a would exceed the supported tower depth")
    return Ordinal(((a, 1),))


def kind(a: Ordinal) -> str:
    """'zero' | 'successor' | 'limit'."""
    if not a:
        return "zero"
    if a[-1][0] == ZERO:
        return "successor"
    return "limit"


def shed_last(a: Ordinal) -> Ordinal:
    """a with one copy of its last term's power removed."""
    exp, coeff = a[-1]
    return Ordinal((*a[:-1], (exp, coeff - 1)) if coeff > 1 else a[:-1])


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if kind(a) != "successor":
        raise ValueError(f"{a} is not a successor")
    return shed_last(a)


def fixed_seq(lam: Ordinal, n: int) -> Ordinal:
    """The n-th member of the canonical approximating sequence of a limit.

    (w)_n = n;  (w^(a+1))_n = w^a*n;  (w^a)_n = w^((a)_n) for limit a;
    and for a composite limit the last term sheds one copy of its power,
    replaced by that power's own n-th approximant.  Always < lam.
    """
    if n < 1:
        raise ValueError("fixed_seq needs n >= 1")
    if kind(lam) != "limit":
        raise ValueError(f"{lam} is not a non-zero limit ordinal")
    if len(lam) == 1 and lam[0][1] == 1:
        e = lam[0][0]
        if e == ONE:
            return from_int(n)
        ek = kind(e)
        if ek == "successor":
            return nat_mul(omega_pow(pred(e)), n)
        # e a limit: e < w^e always holds in this normal form, so the
        # epsilon-number branch (e = w^e) cannot be reached.
        return omega_pow(fixed_seq(e, n))
    return add(shed_last(lam), fixed_seq(omega_pow(lam[-1][0]), n))


def charge_descent(steps: int, reached: Ordinal) -> None:
    """Refuse a descent walk (`fixed_seq_path`, `schreier.transfer_index`,
    and each chain of block expansions that Schreier membership and
    enumeration walk at one minimum) once it has taken more than
    MAX_DESCENT_STEPS steps."""
    if steps > MAX_DESCENT_STEPS:
        raise BudgetExceeded("descent takes", steps, MAX_DESCENT_STEPS, format_ordinal(reached), noun="steps")


def fixed_seq_path(lam: Ordinal, n: int) -> tuple[Ordinal, ...]:
    """Strictly decreasing trace lam, (lam)_n, ((lam)_n)_n, ... ending at
    the first successor ordinal."""
    if kind(lam) != "limit":
        raise ValueError(f"{lam} is not a non-zero limit ordinal")
    path = [lam]
    cur = lam
    while kind(cur) == "limit":
        charge_descent(len(path), cur)
        cur = fixed_seq(cur, n)
        path.append(cur)
    return tuple(path)


def fixed_seq_succ(lam: Ordinal, n: int) -> Ordinal:
    """The successor ordinal reached by iterating fixed_seq at fixed n."""
    return fixed_seq_path(lam, n)[-1]


# --- text form ---------------------------------------------------------
#
#   expr := term ('+' term)*
#   term := atom ('*' nat)?
#   atom := nat | 'w' | 'w^' atom | 'w^(' expr ')'
#
# Whitespace is insignificant.  Terms must appear in strictly decreasing
# exponent order; the canonical form emitted by format_ordinal parses
# back to the same ordinal byte-for-byte.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nest = 0  # the w^ atoms open around pos

    def error(self, msg: str):
        raise OrdinalParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        value = int(self.text[start : self.pos])
        if value > MAX_COEFF:
            self.pos = start
            self.error("number exceeds coefficient cap")
        return value

    def atom(self) -> Ordinal:
        ch = self.peek()
        if ch.isdigit():
            return from_int(self.nat())
        if ch == "w":
            self.pos += 1
            if self.peek() != "^":
                return OMEGA
            self.pos += 1
            self.nest += 1  # each open w^ is a level of tower depth: refuse before recursing
            if self.nest > MAX_TOWER_DEPTH:
                raise OrdinalRangeError("w**a would exceed the supported tower depth")
            if self.peek() == "(":
                self.pos += 1
                inner = self.expr()
                self.take(")")
            else:
                inner = self.atom()
            self.nest -= 1
            return omega_pow(inner)
        self.error("expected a number, 'w', or 'w^'")

    def term(self) -> Ordinal:
        value = self.atom()
        if self.peek() == "*":
            self.pos += 1
            n = self.nat()
            if n == 0:
                self.error("zero multiplier")
            if not value:
                self.error("cannot multiply the zero term")
            value = nat_mul(value, n)
        return value

    def expr(self) -> Ordinal:
        first_pos = self.pos
        total = self.term()
        while self.peek() == "+":
            self.pos += 1
            here = self.pos
            nxt = self.term()
            if not total or not nxt:
                self.pos = here
                self.error("zero term inside a sum")
            if total[-1][0] <= nxt[0][0]:
                self.pos = here
                self.error("terms not in strictly decreasing exponent order")
            total = Ordinal((*total, *nxt))
        if not total and self.pos - first_pos > 1:
            self.error("malformed zero")
        return total


def parse(text: str) -> Ordinal:
    p = _Parser(text)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return value


def _atom_text(a: Ordinal) -> str | None:
    """Render a as a grammar atom if possible (nat, w, or w^atom)."""
    if not a:
        return "0"
    if len(a) == 1 and a[0][0] == ZERO:
        return str(a[0][1])
    if len(a) == 1 and a[0][1] == 1:
        e = a[0][0]
        if e == ONE:
            return "w"
        inner = _atom_text(e)
        if inner is not None:
            return f"w^{inner}"
    return None


def format_ordinal(a: Ordinal) -> str:
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if exp == ZERO:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        else:
            atom = _atom_text(exp)
            base = f"w^{atom}" if atom is not None else f"w^({format_ordinal(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return " + ".join(parts)


