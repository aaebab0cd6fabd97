import pytest
from hypothesis import given, settings, strategies as st

from schramsey import cli
from schramsey import ordinal as o
from schramsey import schreier as sch
from schramsey.errors import OrdinalParseError, OrdinalRangeError

from reference import compare

P = o.parse


def ordinals():
    base = st.integers(0, 9).map(o.from_int)

    def extend(children):
        return st.tuples(children, st.integers(1, 3), children).map(
            lambda t: o.add(o.nat_mul(o.omega_pow(t[0]), t[1]), t[2])
        )

    return st.recursive(base, extend, max_leaves=5)


def assert_normal(a):
    """a is an Ordinal in Cantor normal form: exponents normal and
    strictly decreasing, coefficients in 1..MAX_COEFF."""
    assert isinstance(a, o.Ordinal)
    for i, (exp, coeff) in enumerate(a):
        assert_normal(exp)
        assert type(coeff) is int and 1 <= coeff <= o.MAX_COEFF
        if i:
            assert compare(a[i - 1][0], exp) > 0


def test_compare_examples():
    assert o.ZERO == o.ZERO
    assert o.OMEGA > o.from_int(5)
    assert P("w^2+1") > P("w*3")


def test_add_examples():
    assert o.add(o.from_int(1), o.OMEGA) == o.OMEGA
    assert o.add(o.OMEGA, o.from_int(1)) == P("w+1")
    assert o.add(P("w^2+w"), P("w^2")) == P("w^2*2")


def test_constructor_examples():
    assert o.nat_mul(o.OMEGA, 3) == P("w*3")
    assert o.omega_pow(o.ZERO) == o.from_int(1)
    assert o.omega_pow(o.OMEGA) == P("w^w")


def test_classify_examples():
    assert o.kind(P("w+4")) == "successor"
    assert o.pred(P("w+4")) == P("w+3")
    assert o.kind(P("w*2")) == "limit"
    assert o.kind(o.ZERO) == "zero"
    with pytest.raises(ValueError):
        o.pred(P("w*2"))


def test_fixed_seq_base_cases():
    assert o.fixed_seq(o.OMEGA, 3) == o.from_int(3)
    assert o.fixed_seq(P("w^2"), 3) == P("w*3")
    assert o.fixed_seq(P("w^w"), 2) == P("w^2")


def test_fixed_seq_composite():
    # w*2 sheds one w and approximates the last: w*1 + (w)_4 = w + 4
    assert o.fixed_seq(P("w*2"), 4) == P("w+4")
    assert o.fixed_seq(P("w^2+w"), 3) == P("w^2+3")


def test_fixed_seq_rejects_non_limits():
    for text in ["0", "5", "w+1"]:
        with pytest.raises(ValueError):
            o.fixed_seq(P(text), 2)


def test_fixed_seq_succ_examples():
    assert o.fixed_seq_succ(o.OMEGA, 5) == o.from_int(5)
    assert o.fixed_seq_succ(P("w*2"), 4) == P("w+4")
    # w^w -> w^2 -> w*2 -> w+2
    assert o.fixed_seq_succ(P("w^w"), 2) == P("w+2")
    assert o.fixed_seq_path(P("w^w"), 2) == (P("w^w"), P("w^2"), P("w*2"), P("w+2"))


@pytest.mark.parametrize("lam", ["w", "w^2", "w^w"])
def test_fixed_seq_strictly_monotone_on_powers(lam):
    lam = P(lam)
    values = [o.fixed_seq(lam, n) for n in range(1, 9)]
    for v, nxt in zip(values, values[1:]):
        assert v < nxt
    for v in values:
        assert v < lam


@pytest.mark.parametrize("lam", ["w*2", "w^2+w", "w^2*2", "w^w+w^2"])
def test_fixed_seq_below_composite(lam):
    lam = P(lam)
    for n in range(1, 9):
        assert o.fixed_seq(lam, n) < lam


@pytest.mark.parametrize("lam", ["w", "w*2", "w^2", "w^2+w", "w^w", "w^w*3+w^2*2"])
def test_fixed_seq_succ_path_decreasing(lam):
    lam = P(lam)
    for n in (1, 2, 5):
        path = o.fixed_seq_path(lam, n)
        assert o.kind(path[-1]) == "successor"
        for a, b in zip(path, path[1:]):
            assert b < a


def test_parse_examples():
    assert P("w^2*3 + w + 5") == o.add(
        o.nat_mul(o.omega_pow(o.from_int(2)), 3), o.add(o.OMEGA, o.from_int(5))
    )
    assert o.format_ordinal(o.ZERO) == "0"
    assert P("w^(w)") == o.omega_pow(o.OMEGA)
    assert P("  w ^ ( w + 1 ) ") == o.omega_pow(P("w+1"))
    assert P("w^w^2") == o.omega_pow(o.omega_pow(o.from_int(2)))


def test_parse_rejects_bad_input():
    for text in ["w+w", "1+w", "w^", "w*0", "3+", "w^2*", "()", "w w"]:
        with pytest.raises(OrdinalParseError) as err:
            P(text)
        assert err.value.pos >= 0


def test_range_errors():
    with pytest.raises(OrdinalRangeError):
        o.from_int(2**64)
    with pytest.raises(OrdinalParseError):
        P(str(2**64))
    a = o.OMEGA
    with pytest.raises(OrdinalRangeError):
        for _ in range(100):
            a = o.omega_pow(a)
    # 64 nested w^ is the deepest tower; past it the parser stops at the
    # cap, not at the interpreter's recursion limit
    assert o.tower_depth(P("w^" * 64 + "0")) == 64
    for text in ["w^" * 65 + "0", "w^(" * 400 + "1" + ")" * 400, "w^" * 1000, "w^(" * 100_000]:
        with pytest.raises(OrdinalRangeError, match="tower depth"):
            P(text)


def _full_tower_depth(a):
    return 1 + max(_full_tower_depth(e) for e, _ in a) if a else 0


@settings(max_examples=100)
@given(ordinals())
def test_tower_depth_reads_the_leading_exponent(a):
    assert o.tower_depth(a) == _full_tower_depth(a)


@settings(max_examples=100)
@given(ordinals())
def test_parse_format_roundtrip(a):
    text = o.format_ordinal(a)
    assert o.parse(text) == a
    assert o.format_ordinal(o.parse(text)) == text


@settings(max_examples=60)
@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert o.add(o.add(a, b), c) == o.add(a, o.add(b, c))


@given(ordinals())
def test_add_identity(a):
    assert o.add(a, o.ZERO) == a
    assert o.add(o.ZERO, a) == a


@settings(max_examples=60)
@given(ordinals(), ordinals(), ordinals())
def test_compare_total_order(a, b, c):
    assert (a < b) == (b > a)
    if a <= b and b <= c:
        assert a <= c
    if not a < b and not b < a:
        assert a == b


@given(ordinals())
def test_nat_mul_matches_repeated_add(a):
    total = o.ZERO
    for _ in range(3):
        total = o.add(total, a)
    assert o.nat_mul(a, 3) == total if a.terms else total == o.ZERO


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_tuple_order_matches_recursive_compare(a, b):
    assert (a > b) - (a < b) == compare(a, b)
    assert (a == b) == (compare(a, b) == 0)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100)
@given(ordinals(), ordinals(), st.integers(1, 4))
def test_arithmetic_results_are_normal(a, b, n):
    results = [a, o.add(a, b), o.nat_mul(a, n), o.omega_pow(a)]
    if o.kind(a) == "successor":
        results.append(o.pred(a))
    # descending to a successor, as fixed_seq_succ and transfer_index do,
    # takes about (n+1)^e steps for an exponent w^e; keep it short
    short_descent = n == 1 or o.tower_depth(a) <= 2
    if o.kind(a) == "limit":
        results.append(o.fixed_seq(a, n))
        if short_descent:
            results.append(o.fixed_seq_succ(a, n))
    if a and short_descent:
        results.append(sch.transfer_index(a, n))
    for r in results:
        assert_normal(r)


def test_tuple_operators_are_disabled():
    with pytest.raises(TypeError):
        o.OMEGA + o.ONE
    with pytest.raises(TypeError):
        o.OMEGA * 2
    with pytest.raises(TypeError):
        2 * o.OMEGA


def test_coefficient_cap_on_every_growing_path(capsys):
    with pytest.raises(OrdinalRangeError, match="coefficient 18446744073709551616 exceeds cap"):
        o.from_int(2**64)
    with pytest.raises(OrdinalRangeError, match="coefficient 9223372036854775808 exceeds cap"):
        o.nat_mul(o.OMEGA, 2**63)
    top = o.nat_mul(o.OMEGA, o.MAX_COEFF)
    assert o.add(o.nat_mul(o.OMEGA, o.MAX_COEFF - 1), o.OMEGA) == top
    with pytest.raises(OrdinalRangeError, match="coefficient 9223372036854775808 exceeds cap"):
        o.add(top, o.OMEGA)
    assert cli.main(["schreier", "transfer", "--xi", "w^2", "-n", str(2**63)]) == 0
    capsys.readouterr()
    assert cli.main(["schreier", "transfer", "--xi", "w^2", "-n", "9223372036854775809"]) == 2
    err = capsys.readouterr().err
    assert err == "error: coefficient 9223372036854775808 exceeds cap\n"
