"""Exact rational-function scalars: arithmetic, parsing, and evaluation."""

import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from hecke2d import Coeff, CoeffDivisionError, ParseError, PoleError, coeff, one_minus_qinv
from hecke2d.coeff import ONE, Q, S, ZERO, CoeffError
from hecke2d.text import parse_scalar


def _from_ints(nums: list[int], dens: list[int]) -> Coeff:
    return Coeff(tuple(nums), tuple(dens))


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
nonzero_polys = small_polys.filter(lambda p: any(p))
coeffs = st.builds(_from_ints, small_polys, nonzero_polys)


def test_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert Q == S * S
    assert Coeff.q_power(3) == Q**3
    assert Coeff.s_power(-2) == ONE / Q
    assert one_minus_qinv() == ONE - Coeff.q_power(-1)
    assert Coeff.integer(1) == 1
    assert ONE / 2 == Fraction(1, 2)


@pytest.mark.parametrize(
    "value, text",
    [(lambda: 2 - S, "-s + 2"), (lambda: 1 / S, "1/s"), (lambda: S + Fraction(1, 2), "(2*s + 1)/2")],
    ids=["int-minus", "int-over", "plus-fraction"],
)
def test_mixed_type_operators(value, text):
    # an int or a Fraction on either side is coerced to a Coeff
    assert str(value()) == text


def test_field_identities():
    x = (Q - ONE) / (Q + ONE)
    assert x - x == ZERO
    assert x * (ONE / x) == ONE
    assert (x + ONE) * (x - ONE) == x * x - ONE


@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(coeffs)
def test_str_parse_round_trip(a):
    assert Coeff.parse(str(a)) == a


def test_monomial_denominator_round_trip():
    # reduced form 1/(2*s^4): the denominator must reparse as one factor
    c = ONE / (Coeff.integer(2) * S**4)
    assert "(" in str(c)
    assert Coeff.parse(str(c)) == c


def test_parse_expressions():
    assert Coeff.parse("q^2 - 1") == Q * Q - ONE
    assert Coeff.parse("(s - 1)*(s + 1)") == Q - ONE
    assert Coeff.parse("1 - q^-1") == one_minus_qinv()
    assert Coeff.parse("-3/2") == Coeff.rational(-3, 2)


@pytest.mark.parametrize("text", ["1/0", "chi(1,0,0)", "m", "s^"])
def test_parse_rejects_non_scalars_with_column(text):
    # Coeff.parse reads the element grammar, so its errors are positioned too
    with pytest.raises(ParseError, match="column"):
        Coeff.parse(text)


def test_division_by_zero():
    with pytest.raises(CoeffDivisionError):
        ONE / ZERO
    with pytest.raises(CoeffDivisionError):
        ZERO**-1
    # a positive power of zero is zero, and its zeroth power is one
    assert ZERO**3 == ZERO
    assert parse_scalar("0^3") == ZERO
    assert parse_scalar("0^0") == ONE
    with pytest.raises(CoeffDivisionError, match="zero denominator"):
        Coeff((1,), (0,))


def test_eval_at_q():
    assert one_minus_qinv().eval_at_q(2) == Fraction(1, 2)
    assert (Q**2).eval_at_q(3) == 9
    assert S.eval_at_q(4) == 2
    with pytest.raises(ValueError):
        S.eval_at_q(2)  # no exact square root
    with pytest.raises(ValueError, match="q >= 0"):
        S.eval_at_q(-4)
    with pytest.raises(PoleError):
        (ONE / (Q - ONE)).eval_at_q(1)


@pytest.mark.parametrize("method", ["eval_at_q", "eval_at_s"])
@pytest.mark.parametrize("point", [0.1, 2.0, True, False])
def test_eval_refuses_a_float_or_bool_point(method, point):
    # Fraction(0.1) is the binary float, not 1/10, and True would stand for 1
    with pytest.raises(ValueError, match="must be an int or a Fraction, got "):
        getattr(Q - ONE, method)(point)


@given(coeffs, st.integers(2, 9))
def test_eval_is_multiplicative(a, q0):
    try:
        va, vsq = a.eval_at_q(q0), (a * a).eval_at_q(q0)
    except (PoleError, ValueError):
        return
    assert va * va == vsq


def test_pow_matches_repeated_product():
    x = (Q + ONE) / S
    assert x**0 == ONE
    assert x**3 == x * x * x
    assert x**-2 == ONE / (x * x)


@pytest.mark.parametrize("base", [S, -S, Q, -Q, Coeff.s_power(-3)], ids=str)
@pytest.mark.parametrize("e", [-7, 0, 1, 250])
def test_monomial_powers_equal_repeated_products(base, e):
    want = ONE
    for _ in range(abs(e)):
        want = want * (base if e > 0 else ONE / base)
    got = base**e
    assert got == want and got._v == want._v


@pytest.mark.parametrize(
    "base,e,message",
    [
        (S + ONE, 1025, "power too large: exponent 1025 on a base of size 1"),
        (Coeff.integer(2) * S, -1025, "power too large: exponent 1025 on a base of size 1"),
        (Coeff.integer(-3), 1025, "power too large: exponent 1025 on a base of size 1"),
        ((Q + ONE) / S, -513, "power too large: exponent 513 on a base of size 2"),
    ],
)
def test_non_monomial_powers_keep_their_refusal(base, e, message):
    with pytest.raises(CoeffError) as err:
        base**e
    assert str(err.value) == message


@pytest.mark.parametrize("text,e", [("s^4000", 4000), ("s^-4000", -4000), ("q^2000", 4000)])
def test_large_powers_parse_quickly(text, e):
    start = time.perf_counter()
    assert Coeff.parse(text) == Coeff.s_power(e)
    assert time.perf_counter() - start < 1.0


# -- the stored form s^k * n/d ----------------------------------------------------


def _laurent(k: int, nums: list[int], dens: list[int]) -> Coeff:
    # s^k * nums/dens, where nums and dens may still share factors and powers of s
    return Coeff((0,) * max(k, 0) + tuple(nums), (0,) * max(-k, 0) + tuple(dens))


laurents = st.builds(_laurent, st.integers(-40, 40), small_polys, nonzero_polys)
POINTS = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4))


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _rational_gcd_degree(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Degree of gcd(a, b) in Q[s], by Euclid over Fractions."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _assert_canonical(x: Coeff) -> None:
    k, n, d = x._v
    if not n:
        assert x._v == (0, (), (1,))
        return
    assert n[0] and n[-1] and d[0] and d[-1] > 0  # trimmed, prime to s, d[-1] > 0
    assert gcd(*n, *d) == 1 and _rational_gcd_degree(n, d) == 0


def _value_at(x: Coeff, s0: Fraction):
    try:
        return x.eval_at_s(s0)
    except PoleError:
        return None


@given(laurents, laurents, st.integers(-3, 3))
def test_laurent_arithmetic_matches_exact_evaluation(x, y, e):
    got = {"+": x + y, "-": x - y, "*": x * y}
    if y:
        got["/"] = x / y
    if x or e >= 0:
        got["**"] = x**e
    for r in got.values():
        _assert_canonical(r)
        assert Coeff(r.num, r.den) == r
        assert Coeff.parse(str(r)) == r
    for s0 in POINTS:
        vx, vy = _value_at(x, s0), _value_at(y, s0)
        if vx is None or vy is None:
            continue
        want = {"+": vx + vy, "-": vx - vy, "*": vx * vy}
        if vy:
            want["/"] = vx / vy
        if vx or e >= 0:
            want["**"] = vx**e
        for op, v in want.items():
            assert got[op].eval_at_s(s0) == v, (op, s0)


@given(laurents, nonzero_polys, st.integers(0, 5), laurents.filter(bool))
def test_equal_laurent_values_have_equal_hashes(x, f, j, z):
    spread = (0,) * j + tuple(f)  # a common factor f * s^j on both sides
    for y in (Coeff(_times(x.num, spread), _times(x.den, spread)), x * z / z, x + z - z):
        _assert_canonical(y)
        assert y == x and hash(y) == hash(x)


@given(laurents, st.integers(-40, 40))
def test_unit_monomial_products_match_the_reducing_constructor(x, k):
    # s^k * n/d rebuilt through Coeff(num, den), which reduces from scratch
    def shifted(j: int) -> Coeff:
        return Coeff((0,) * max(j, 0) + x.num, (0,) * max(-j, 0) + x.den)

    for got, j in ((x * Coeff.s_power(k), k), (Coeff.s_power(k) * x, k), (x * Coeff.q_power(k), 2 * k)):
        _assert_canonical(got)
        assert got._v == shifted(j)._v


# -- evaluation in integers ------------------------------------------------------


def _fraction_eval(k, n, d, x, var):
    # the Fraction-Horner evaluator that coeff._eval replaced, kept as the reference
    def peval(a):
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc

    num, den = peval(n) * x ** max(k, 0), peval(d) * x ** max(-k, 0)
    if den == 0:
        raise PoleError(f"denominator vanishes at {var} = {x}")
    return num / den


def _outcome(x: Coeff, method: str, point):
    try:
        value = getattr(x, method)(point)
        return type(value), value
    except Exception as err:  # the class and text are the outcome
        return type(err), str(err)


def _in_q(k: int, nums: list[int], dens: list[int]) -> Coeff:
    # q^k * nums(q)/dens(q), written in s
    def spread(cs):
        return [c for x in cs for c in (x, 0)][:-1]

    return _laurent(2 * k, spread(nums), spread(dens))


EVAL_POINTS = (0, 1, -1, *range(2, 10), Fraction(1, 3), Fraction(-2, 5), Fraction(9, 4))


@given(st.one_of(st.builds(_in_q, st.integers(-6, 6), small_polys, nonzero_polys), laurents))
def test_integer_evaluation_matches_fraction_horner(x):
    # values, exception classes and texts through both methods, at every point
    for point in EVAL_POINTS:
        for method in ("eval_at_q", "eval_at_s"):
            got = _outcome(x, method, point)
            with mock.patch.object(coeff, "_eval", _fraction_eval):
                want = _outcome(x, method, point)
            assert got == want, (str(x), point, method)


def test_repr_and_arithmetic_with_a_string():
    c = Coeff.parse("s^2 - 1/s")
    assert repr(c) == "Coeff[(s^3 - 1)/s]"
    for op in (lambda: c + "1", lambda: "1" + c, lambda: c - "1", lambda: "1" - c,
               lambda: c * "1", lambda: c / "1", lambda: "1" / c, lambda: 1.5 / c):
        with pytest.raises(TypeError):  # from either side, not a recursion
            op()
    assert 1 - c == -(c - 1) and 1 / c == c**-1 and Fraction(1, 2) / c == c**-1 / 2
    assert (c == "(s^3 - 1)/s") is False
