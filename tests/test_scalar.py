"""Ring laws and text round-trips for the radical scalar type.

The laws run under hypothesis on random Q-combinations of square roots;
the normalization facts are pinned by hand.
"""

import math
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import terms
from corealg.scalar import (
    ONE, RADICAND_LIMIT, ZERO, Radical, _squarefree_split, parse_radical)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# coefficients whose denominators mix and cancel across terms: shared small
# factors, a large prime and arbitrary denominators up to 10**6
coefficients = st.one_of(
    fracs,
    st.builds(Fraction, st.integers(-60, 60).filter(bool),
              st.sampled_from([1, 2, 3, 4, 6, 12, 999983, 10**6])),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)

SMALL = (1, 2, 3, 5, 6, 10)
# squarefree radicands near the limit, with factors small enough that the
# checked constructor splits them at once: RADICAND_LIMIT = 7*7*q1, and
# q2 = 701 * (product of the primes up to 43) is within 0.6% of the limit.
# Each family is closed under products (q*q = q**2).
Q1 = RADICAND_LIMIT // 49
Q2 = 701 * math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
NEAR_LIMIT = ((1, Q1), (1, Q2))
ROOTS = {k: Radical.sqrt(k) for k in SMALL + (Q1, Q2)}


@st.composite
def radicals(draw, family=SMALL, coefficient=coefficients):
    table = draw(st.dictionaries(st.sampled_from(family), coefficient, max_size=3))
    x = ZERO
    for k, c in table.items():
        x = x + ROOTS[k] * c
    return x


triples = st.sampled_from((SMALL,) + NEAR_LIMIT).flatmap(
    lambda family: st.tuples(*[radicals(family)] * 3))


@given(triples)
def test_ring_laws(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


# small coefficients: wide ones can cancel to values that floats cannot resolve
@given(radicals(coefficient=fracs), radicals(coefficient=fracs))
def test_evalf_is_multiplicative(a, b):
    assert math.isclose((a * b).evalf(), a.evalf() * b.evalf(),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose((a + b).evalf(), a.evalf() + b.evalf(),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(radicals())
def test_text_round_trip(a):
    assert parse_radical(a.text()) == a


def test_denominators_mix_and_cancel():
    x = Radical.sqrt(2) * Fraction(1, 6) + Radical.sqrt(3) * Fraction(1, 4)
    assert x.text() == "1/6*sqrt(2)+1/4*sqrt(3)"
    assert (x * 12).text() == "2*sqrt(2)+3*sqrt(3)"
    assert x * 12 == Radical({2: 2, 3: 3})
    assert terms(x - Radical.sqrt(3) * Fraction(1, 4)) == [(2, Fraction(1, 6))]
    y = Radical.sqrt(2) * Fraction(1, 3) - Radical.sqrt(3) * Fraction(1, 4)
    assert (x + y).text() == "1/2*sqrt(2)"
    assert x * Fraction(6, 5) + Radical.sqrt(3) * Fraction(-3, 10) == Radical.sqrt(2) * Fraction(1, 5)
    assert (x * x).text() == "35/144+1/12*sqrt(6)"
    assert hash(x * 12 - Radical({2: 2, 3: 3}) + Fraction(5, 4)) == hash(Fraction(5, 4))


def test_near_limit_radicands():
    assert _squarefree_split(RADICAND_LIMIT) == (7, Q1) and _squarefree_split(Q2) == (1, Q2)
    assert Radical.sqrt(RADICAND_LIMIT) == ROOTS[Q1] * 7
    assert ROOTS[Q2] * ROOTS[Q2] * Fraction(1, Q2) == ONE
    with pytest.raises(OverflowError):
        ROOTS[Q1] * ROOTS[Q2]


def test_sqrt_pulls_out_square_factors():
    assert Radical.sqrt(8) == Radical.sqrt(2) * 2
    assert Radical.sqrt(9) == ONE * 3
    assert Radical.sqrt(12).text() == "2*sqrt(3)"
    assert Radical.sqrt(1) == ONE


def test_constructor_reduces_radicands():
    assert Radical({4: 1}) == Radical.from_rational(2)
    assert Radical({4: 1}).text() == "2"
    assert Radical({2: 1, 8: 1}) == Radical.sqrt(2) * 3
    assert Radical({8: 1}) * Radical.sqrt(2) == Radical.from_rational(4)
    assert Radical({2: 1, 8: Fraction(-1, 2)}) == ZERO
    with pytest.raises(ValueError):
        Radical({0: 1})
    with pytest.raises(OverflowError):
        Radical({RADICAND_LIMIT + 1: 1})


def test_product_radicands_match_factoring():
    squarefree = [k for k in range(1, 201) if _squarefree_split(k)[0] == 1]
    for j in squarefree:
        for k in squarefree:
            s, m = _squarefree_split(j * k)
            assert terms(Radical.sqrt(j) * Radical.sqrt(k)) == [(m, Fraction(s))]


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
    assert terms(product) == [(j * k, Fraction(1))]
    assert a * a == ONE * j
    primorial_47 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
    with pytest.raises(OverflowError):
        Radical.sqrt(primorial_47) * Radical.sqrt(53 * 59)


def _split_by_trial_division(n):
    """The square/squarefree split by trial division up to sqrt(n)."""
    s, m, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        m *= d ** (e % 2)
        d += 1
    return s, m * n


def test_squarefree_split_matches_trial_division():
    for n in range(1, 20001):
        assert _squarefree_split(n) == _split_by_trial_division(n), n
    # cofactors left after the cube-root bound: p*q, p*p, and both times small factors
    primes = [1009, 1013, 4999, 5003, 9973]
    for p in primes:
        for q in primes:
            for small in (1, 2, 12, 45):
                n = small * p * q
                assert _squarefree_split(n) == _split_by_trial_division(n), n


def _within(seconds, fn, *args):
    def too_slow(signum, frame):
        raise TimeoutError("%s%r took over %s s" % (fn.__name__, args, seconds))

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_sqrt_of_large_radicands_needs_no_full_trial_division():
    prime = 9223372036854775783          # the largest prime below 2**63
    assert terms(_within(2.0, Radical.sqrt, prime)) == [(prime, Fraction(1))]
    assert _within(2.0, Radical.sqrt, 3037000493 ** 2) == ONE * 3037000493
    assert _within(2.0, parse_radical, "sqrt(%d)" % prime) == Radical.sqrt(prime)
    with pytest.raises(OverflowError):
        Radical.sqrt(RADICAND_LIMIT + 1)


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



def test_zero_evaluates_to_a_float():
    assert float(ZERO) == 0.0 and type(float(ZERO)) is float
    assert type(ZERO.evalf()) is float and type(ONE.evalf()) is float

def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_radical("sqrt()")
    with pytest.raises(ValueError):
        parse_radical("2**3")
    with pytest.raises(ValueError):
        _within(2.0, parse_radical, "1e10000000")


def test_evalf_pinned():
    assert abs(Radical.sqrt(2).evalf() - 1.4142135623730951) < 1e-15
    x = Radical.sqrt(2) + ONE * Fraction(1, 2)
    assert abs(x.evalf() - (math.sqrt(2) + 0.5)) < 1e-15


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Radical.from_rational(0.1)
    with pytest.raises(TypeError):
        Radical({1: 0.5})
    with pytest.raises(TypeError):
        Radical.inv_sqrt_rational(0.5)
    with pytest.raises(TypeError):
        Radical.from_rational("1/2")
    assert terms(Radical({1: 1, 2: Fraction(1, 2)})) == [(1, Fraction(1)), (2, Fraction(1, 2))]
    assert Radical.from_rational(True) == ONE


def _checked_copy(x: Radical) -> Radical:
    return Radical(dict(terms(x)))


rationals = st.builds(Radical.from_rational, coefficients)
operands = st.sampled_from((SMALL,) + NEAR_LIMIT).flatmap(
    lambda family: st.tuples(*[st.one_of(radicals(family), rationals)] * 2))


@given(operands)
def test_unchecked_results_are_canonical(ab):
    # +, -, * and the rational fast path build results without checks
    a, b = ab
    for r in (a + b, a - b, a * b, -a, a + 1, 2 - a, a * Fraction(1, 3), a - a, a * ZERO,
              a * 12, (a + b) * Fraction(1, 10**6)):
        assert all(type(c) is Fraction and c for _, c in terms(r))
        assert _checked_copy(r) == r
        assert hash(_checked_copy(r)) == hash(r)


# -- parser fuzzing ---------------------------------------------------------------

radicands = st.one_of(st.integers(min_value=-3, max_value=10**4),
                      st.integers(min_value=RADICAND_LIMIT - 10**4, max_value=RADICAND_LIMIT + 3))
literal_chunks = st.one_of(
    st.builds(str, fracs),
    st.builds(lambda c, k: "%s*sqrt(%d)" % (c, k), fracs, radicands),
    st.builds(lambda k: "sqrt(%d)" % k, radicands),
    st.builds(lambda k: "-sqrt(%d)" % k, radicands),
    st.text(alphabet="0123456789+-*/sqrt() .e_", max_size=12),
)
literals = st.lists(literal_chunks, min_size=1, max_size=3).map(
    lambda chunks: "+".join(chunks).replace("+-", "-"))


@settings(max_examples=60, deadline=3000)
@given(st.one_of(literals, st.text(max_size=20)))
@example("sqrt(%d)" % (RADICAND_LIMIT + 1))
@example("9e99999999*sqrt(2)")
def test_parse_radical_accepts_or_raises_value_error(text):
    try:
        x = parse_radical(text)
    except ValueError:
        return
    assert parse_radical(x.text()) == x
