"""sympy as an independent oracle for the integer linear algebra (exact
determinants, lattice solves, Smith diagonals and Hermite forms) and for the
radical scalars (ring operations and square roots against sympy.sqrt)."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import (  # noqa: E402
    hermite_normal_form as sympy_hermite,
    smith_normal_form as sympy_smith,
)

from conftest import terms  # noqa: E402
from corealg.dilation import LatticeSystem, hermite_normal_form  # noqa: E402
from corealg.ktheory import int_det, smith_normal_form  # noqa: E402
from corealg.scalar import RADICAND_LIMIT, Radical, parse_radical  # noqa: E402


def matrices(rows, cols, bound=6):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(1, 6).flatmap(lambda n: matrices(n, n))
small_square = st.integers(1, 3).flatmap(lambda n: matrices(n, n, bound=4))
rectangular = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda rc: matrices(*rc))


def reversed_both(m):
    """J M J with J the reversal permutation: rows and columns in reverse order."""
    return [list(row[::-1]) for row in m[::-1]]


def test_sympy_hermite_convention():
    # sympy's Hermite form is upper triangular with the entries right of each
    # pivot reduced; corealg's is lower triangular with the entries left of it
    # reduced, so the two agree after reversing rows and columns
    assert sympy_hermite(sympy.Matrix([[2, 1], [0, 3]])).tolist() == [[2, 1], [0, 3]]
    assert hermite_normal_form([[2, 1], [0, 3]])[0] == [[1, 0], [3, 6]]
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert sympy_hermite(sympy.Matrix(m)).tolist() == [[90, 41, 71], [0, 1, 0], [0, 0, 1]]
    assert hermite_normal_form(m)[0] == [[1, 0, 0], [0, 1, 0], [71, 59, 90]]
    for b in ([[2, 1], [0, 3]], [[1, 1], [-1, 1]], m, [[-3]]):
        via_sympy = reversed_both(sympy_hermite(sympy.Matrix(reversed_both(b))).tolist())
        assert hermite_normal_form(b)[0] == via_sympy


def test_sympy_smith_convention():
    assert sympy_smith(sympy.Matrix([[2, 4], [6, 8]]), domain=sympy.ZZ).tolist() == \
        [[2, 0], [0, 4]]
    assert sympy_smith(sympy.Matrix([[1, 2], [2, 4]]), domain=sympy.ZZ).tolist() == \
        [[1, 0], [0, 0]]


@settings(max_examples=150, deadline=None)
@given(square)
def test_int_det_matches_sympy(m):
    assert int_det(m) == sympy.Matrix(m).det()


@settings(max_examples=60, deadline=None)
@given(small_square)
def test_lattice_solve_matches_sympy_inverse(b):
    assume(sympy.Matrix(b).det() != 0)
    system = LatticeSystem(b)
    inverse = sympy.Matrix(b).inv()
    for k in product(range(-2, 3), repeat=len(b)):
        x = inverse * sympy.Matrix(k)
        expected = tuple(int(v) for v in x) if all(v.is_integer for v in x) else None
        assert system.solve(k) == expected, (b, k)


@settings(max_examples=80, deadline=None)
@given(rectangular)
def test_smith_diagonal_matches_sympy(m):
    _, d, _ = smith_normal_form(m)
    theirs = sympy_smith(sympy.Matrix(m), domain=sympy.ZZ)
    size = min(len(m), len(m[0]))
    assert [d[i][i] for i in range(size)] == [abs(theirs[i, i]) for i in range(size)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_hermite_matches_sympy(b):
    assume(sympy.Matrix(b).det() != 0)
    via_sympy = reversed_both(sympy_hermite(sympy.Matrix(reversed_both(b))).tolist())
    assert hermite_normal_form(b)[0] == via_sympy


# -- radical scalars -------------------------------------------------------------

# small radicands, square and not, and large ones whose products can pass the limit
radicands = st.one_of(st.integers(1, 72),
                      st.sampled_from([3037000453, 3037000493, 2**31 - 1,
                                       RADICAND_LIMIT, RADICAND_LIMIT - 25]))
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def radical_pairs(draw):
    """A Radical built through the public constructor, and its sympy value."""
    table = draw(st.dictionaries(radicands, coefficients, max_size=4))
    return Radical(table), sympy.Add(*[rat(c) * sympy.sqrt(k) for k, c in table.items()])


def rat(q):
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def as_sympy(x: Radical):
    return sympy.Add(*[rat(c) * sympy.sqrt(k) for k, c in terms(x)])


def same(x: Radical, expr) -> bool:
    return sympy.expand(as_sympy(x) - expr) == 0


def product_radicands(x: Radical, y: Radical):
    return [j * k // math.gcd(j, k) ** 2 for j, _ in terms(x) for k, _ in terms(y)]


@settings(max_examples=150, deadline=None)
@given(radical_pairs(), radical_pairs())
def test_radical_arithmetic_matches_sympy(xa, yb):
    (x, a), (y, b) = xa, yb
    assert same(x, a) and same(y, b)
    assert same(x + y, a + b)
    assert same(x - y, a - b)
    assert same(-x, -a)
    try:
        xy = x * y
    except OverflowError:
        assert max(product_radicands(x, y)) > RADICAND_LIMIT
    else:
        assert max(product_radicands(x, y), default=1) <= RADICAND_LIMIT
        assert same(xy, sympy.expand(a * b))
    assert (x == y) == (sympy.expand(a - b) == 0)
    assert x == (x + y) - y and (x + y) - y == x
    assert (x - x == 0) and (x == x * 1)
    text = x.text()
    assert parse_radical(text) == x and same(parse_radical(text), a)


@st.composite
def one_terms(draw):
    """A one-term Radical c*sqrt(k) with k from `radicands`, and its sympy value."""
    k, c = draw(radicands), draw(coefficients.filter(bool))
    return Radical({k: c}), rat(c) * sympy.sqrt(k)


def canonical(x: Radical) -> bool:
    return x._den > 0 and math.gcd(x._den, *x._num.values()) == 1


@settings(max_examples=200, deadline=None)
@given(one_terms(), one_terms(), coefficients)
def test_one_term_arithmetic_matches_sympy(xa, yb, c):
    (x, a), (y, b) = xa, yb
    assert x.term_count() == 1 == y.term_count()
    [(j, cx)], [(k, _)] = terms(x), terms(y)
    try:
        xy = x * y
    except OverflowError:
        assert j * k // math.gcd(j, k) ** 2 > RADICAND_LIMIT
    else:
        assert j * k // math.gcd(j, k) ** 2 <= RADICAND_LIMIT
        assert xy.term_count() == 1 and canonical(xy) and same(xy, sympy.expand(a * b))
        assert xy == y * x
    # the same radicand as x, with any coefficient: the sum can cancel
    z = Radical({j: c})
    for total in (x + z, z + x):
        assert canonical(total) and total == Radical({j: cx + c})
        assert same(total, a + rat(c) * sympy.sqrt(j))
    assert not x + (-x) and (x + (-x)).term_count() == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**6), coefficients.filter(lambda q: q > 0))
def test_radical_roots_match_sympy(n, q):
    assert same(Radical.sqrt(n), sympy.sqrt(n))
    assert same(Radical.inv_sqrt(n), 1 / sympy.sqrt(n))
    assert same(Radical.inv_sqrt_rational(q), sympy.radsimp(1 / sympy.sqrt(rat(q))))
    assert Radical.inv_sqrt(n) * Radical.sqrt(n) == 1


def test_radical_roots_at_the_radicand_limit():
    for n in (RADICAND_LIMIT, 3037000493 ** 2, 2 * (2**31 - 1) ** 2):
        assert same(Radical.sqrt(n), sympy.sqrt(n))
        assert same(Radical.inv_sqrt(n), sympy.radsimp(1 / sympy.sqrt(n)))
