"""Ring laws and text round-trips for the radical scalar type.

The laws run under hypothesis on random Q-combinations of square roots;
the normalization facts are pinned by hand.
"""

import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corealg.scalar import ONE, ZERO, Radical, _squarefree_split, parse_radical

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


def test_product_radicands_match_factoring():
    squarefree = [k for k in range(1, 201) if _squarefree_split(k)[0] == 1]
    for j in squarefree:
        for k in squarefree:
            s, m = _squarefree_split(j * k)
            assert (Radical.sqrt(j) * Radical.sqrt(k)).terms() == [(m, Fraction(s))]


def test_product_of_large_radicands_needs_no_factoring():
    j, k = 3037000493, 3037000453      # coprime, j*k just below RADICAND_LIMIT
    a, b = Radical.sqrt(j), Radical.sqrt(k)

    def too_slow(signum, frame):
        raise TimeoutError("sqrt(%d)*sqrt(%d) took over 2 s" % (j, k))

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        product = a * b
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert product.terms() == [(j * k, Fraction(1))]
    assert a * a == ONE * j
    primorial_47 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
    with pytest.raises(OverflowError):
        Radical.sqrt(primorial_47) * Radical.sqrt(53 * 59)


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
