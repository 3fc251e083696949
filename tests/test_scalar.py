"""Ring laws and text round-trips for the radical scalar type.

The laws run under hypothesis on random Q-combinations of square roots;
the normalization facts are pinned by hand.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corealg.scalar import ONE, ZERO, Radical, parse_radical

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def radicals(draw):
    table = draw(st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 10]), fracs, max_size=3))
    x = ZERO
    for k, c in table.items():
        x = x + Radical.sqrt(k) * c
    return x


@given(radicals(), radicals(), radicals())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(radicals(), radicals())
def test_evalf_is_multiplicative(a, b):
    assert math.isclose((a * b).evalf(), a.evalf() * b.evalf(),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose((a + b).evalf(), a.evalf() + b.evalf(),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(radicals())
def test_text_round_trip(a):
    assert parse_radical(a.text()) == a


def test_sqrt_pulls_out_square_factors():
    assert Radical.sqrt(8) == Radical.sqrt(2) * 2
    assert Radical.sqrt(9) == ONE * 3
    assert Radical.sqrt(12).text() == "2*sqrt(3)"
    assert Radical.sqrt(1) == ONE


def test_inv_sqrt():
    for n in (1, 2, 3, 4, 6, 8):
        w = Radical.inv_sqrt(n)
        assert w * w == ONE * Fraction(1, n)
        assert w * Radical.sqrt(n) == ONE


def test_inv_sqrt_rational():
    w = Radical.inv_sqrt_rational(Fraction(4, 9))
    assert w == ONE * Fraction(3, 2)
    w = Radical.inv_sqrt_rational(Fraction(1, 2))
    assert w * w == ONE * 2


def test_zero_and_bool():
    assert not ZERO
    assert ONE
    assert Radical() == 0
    assert ONE == 1
    assert ONE * Fraction(2, 3) == Fraction(2, 3)


def test_rational_radicals_hash_like_their_rationals():
    assert len({ONE, 1}) == 1
    assert len({ZERO, 0, Fraction(0)}) == 1
    assert hash(Radical.from_rational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert Radical.sqrt(2) not in {Fraction(2), 2}


def test_float():
    assert float(Radical.sqrt(2)) == Radical.sqrt(2).evalf()
    assert float(ONE * Fraction(3, 4)) == 0.75


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_radical("sqrt()")
    with pytest.raises(ValueError):
        parse_radical("2**3")


def test_evalf_pinned():
    assert abs(Radical.sqrt(2).evalf() - 1.4142135623730951) < 1e-15
    x = Radical.sqrt(2) + ONE * Fraction(1, 2)
    assert abs(x.evalf() - (math.sqrt(2) + 0.5)) < 1e-15
