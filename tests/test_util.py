"""The shared sparse-map accumulate, over every coefficient type that uses
it, the sparse-sum base of the three value types, the integer (Bareiss)
elimination, the one Hermite kernel and the integer matrix product, the one
way a check is recorded, and the layers that build no Fraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from corealg.core_endo import CoreEndo
from corealg.dilation import LatticeSystem, lattice_rep_check
from corealg.exel_path import DepthFunction
from corealg.graph import bouquet, load_graph
from corealg.ktheory import smith_normal_form
from corealg.scalar import ONE, Radical
from corealg.star_algebra import StarElement, parse_element
from corealg.uhf_cuntz import TensorElement
from corealg.util import CheckReport, SparseSum, accumulate, bareiss, hermite, mat_mul


@pytest.mark.parametrize("one", [
    Fraction(1, 3),
    ONE + Radical.sqrt(2),
    DepthFunction.constant(bouquet(2), ONE),
    TensorElement.identity(2, 1),
], ids=["fraction", "radical", "depth_function", "tensor_element"])
def test_accumulate_stores_no_zero(one):
    zero = one * 0
    assert not zero and one
    out = {}
    accumulate(out, ("e1",), zero)
    assert out == {}
    accumulate(out, ("e1",), one)
    accumulate(out, ("e1",), zero)
    assert out[("e1",)] is one  # a zero addend leaves the stored value as it was
    accumulate(out, ("e1",), one)
    assert not out[("e1",)] - one * 2
    accumulate(out, ("e1",), one * -2)
    assert out == {}



_G3_TEXT = "V a; V b\nE x a a; E y a b; E z b a\n"   # out-degrees 2 and 1


def _star_case():
    g = bouquet(2)
    x = parse_element(g, "TERM 1/2*sqrt(2) e1 e2\nTERM -3 e2.e1 e2\nTERM 1 @v @v\n")
    y = parse_element(g, "TERM 1/3 e1 e1\nTERM 3 e2.e1 e2\n")
    return x, y, x.expand_to_level(2), StarElement.zero(bouquet(2)), \
        "elements live over different graphs"


def _depth_case(depth):
    g = load_graph(_G3_TEXT)
    p, q, r = g.paths(depth)[:3]
    x = DepthFunction(g, depth, {p: Radical.sqrt(2), q: Fraction(-1, 2)})
    y = DepthFunction(g, depth, {p: 1, r: 3})
    return x, y, x.lift(depth + 1), DepthFunction(load_graph(_G3_TEXT), depth), \
        "functions live over different graphs"


def _tensor_case(k):
    one, two = (1,) * k, (2,) * k
    x = TensorElement(2, k, {(one, two): Radical.sqrt(2), (two, two): -1})
    y = TensorElement(2, k, {(one, two): 1, (one, one): Fraction(2, 3)})
    return x, y, x.lift(k + 1), TensorElement(3, k), "elements live over different matrix sizes"


@pytest.mark.parametrize("case", [
    _star_case, lambda: _depth_case(1), lambda: _depth_case(2),
    lambda: _tensor_case(0), lambda: _tensor_case(1),
], ids=["star-o2", "depth-g3-1", "depth-g3-2", "tensor-2-0", "tensor-2-1"])
def test_sparse_sum_linear_structure(case):
    x, y, lifted, foreign, message = case()
    assert isinstance(x, SparseSum) and x and y and not x.is_zero()
    zero = x + (-x)
    assert zero.is_zero() and not zero and zero.equal(x * 0)
    assert (x - y).terms == (x + (-y)).terms and (x - y).equal(x + (-y))
    assert (0 * x).is_zero() and not 0 * x
    assert x.equal(lifted) and lifted.equal(x) and (x + lifted).equal(x * 2)
    assert not x.equal(y)
    for mixed in (lambda: x + foreign, lambda: x - foreign, lambda: x.equal(foreign)):
        with pytest.raises(ValueError, match=message):
            mixed()
    for bad in (lambda: x + object(), lambda: x - object(), lambda: object() + x):
        with pytest.raises(TypeError):
            bad()


def test_bareiss_pinned():
    rows = [[2, 4], [6, 8]]
    assert bareiss(rows, 2) == -8
    rows = [[0, 1, 1, 0], [1, 0, 0, 1]]    # the first pivot needs a row swap
    assert bareiss(rows, 2) == -1
    assert rows == [[-1, 0, 0, -1], [0, -1, -1, 0]]    # [det I | adj]
    rows = [[2, 1, 1, 0], [0, 3, 0, 1]]
    assert bareiss(rows, 2) == 6
    assert [row[2:] for row in rows] == [[3, -1], [0, 2]]
    assert bareiss([[1, 2], [2, 4]], 2) == 0
    assert bareiss([], 0) == 1


@st.composite
def hermite_inputs(draw):
    """A rectangular integer matrix: random, with one row a combination of
    two others, or zero."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "singular", "zero"]))
    if kind == "zero":
        return [[0] * c for _ in range(r)]
    a = [[draw(st.integers(-4, 4)) for _ in range(c)] for _ in range(r)]
    if kind == "singular" and r > 2:
        q = draw(st.integers(-3, 3))
        a[draw(st.integers(2, r - 1))] = [x + q * y for x, y in zip(a[0], a[1])]
    return a


@settings(max_examples=200, deadline=None)
@given(hermite_inputs())
@example([[4, 1], [6, 0]])                          # a pivot that needs a gcd step
@example([[0, 0, 1], [-2, 3, 0], [4, -6, 0]])       # a row that reduces to zero
def test_hermite_contract(a):
    sympy = pytest.importorskip("sympy")
    r, c = len(a), len(a[0])
    rows = [row + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    rank = hermite(rows, c)
    h, u = [row[:c] for row in rows], [row[c:] for row in rows]
    assert rank == sympy.Matrix(a).rank()
    assert mat_mul(u, a) == h
    assert abs(bareiss([list(row) for row in u], r)) == 1
    assert not any(map(any, h[rank:]))                  # zero rows last
    pivots = [next(j for j, x in enumerate(row) if x) for row in h[:rank]]
    assert pivots == sorted(set(pivots))                # upper echelon
    for i, j in enumerate(pivots):
        assert h[i][j] > 0
        assert all(0 <= h[k][j] < h[i][j] for k in range(i))


def triple_loop(a, b):
    """The matrix product as an explicit loop over rows, columns and the
    inner index, with b's column count read off its first row."""
    cb = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cb)]
            for i in range(len(a))]


@pytest.mark.parametrize("a, b", [
    ([[1, -2, 3], [0, 4, -5]], [[2, 1], [-1, 0], [3, 7]]),      # 2x3 times 3x2
    ([[1, 2], [3, 4], [5, 6]], [[7, -8, 9, 0], [1, 2, -3, 4]]),  # 3x2 times 2x4
    ([[3, -1, 2]], [[1], [2], [3]]),                              # 1xn times nx1
    ([[1], [2], [3]], [[3, -1, 2]]),                              # nx1 times 1xn
    ([[5]], [[-7]]),
    ([], []),                                                     # 0x0
    ([[]], []),                                                   # 1x0 times 0x0
    ([[], [], []], []),                                           # 3x0 times 0x0
    ([[1, 2, 3], [4, 5, 6]], [[], [], []]),                       # 2x3 times 3x0
    (((1, 2), (3, 4)), ((0, 1), (1, 0))),                         # rows as tuples
])
def test_mat_mul_matches_the_triple_loop(a, b):
    assert mat_mul(a, b) == triple_loop(a, b)


@pytest.mark.parametrize("a, b, message", [
    ([[1, 2], [3]], [[1], [1]], "ragged matrix"),
    ([[1, 2], [3, 4]], [[1, 0], [0]], "ragged matrix"),
    ([[1, 2, 3]], [[1], [2]], "shape mismatch"),
    ([[1, 2]], [], "shape mismatch"),
    ([], [[1]], "shape mismatch"),
])
def test_mat_mul_refuses_ragged_and_mismatched_factors(a, b, message):
    with pytest.raises(ValueError, match=message):
        mat_mul(a, b)


def _unreachable():
    raise AssertionError("a passing check formatted its witness")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), max_size=12))
def test_check_counts_every_call_and_records_only_failures(oks):
    report = CheckReport("sweep")
    for n, ok in enumerate(oks):
        witness = _unreachable if ok else (lambda: "case %d" % n)
        assert report.check(ok, witness) is ok
        assert report.checks == n + 1 and len(report.failures) <= report.checks
    assert report.failures == ["case %d" % n for n, ok in enumerate(oks) if not ok]
    assert report.passed == all(oks)
    assert report.lines()[0].endswith("(%d checks, %d failures)"
                                      % (len(oks), oks.count(False)))


def count_fractions(monkeypatch) -> list:
    """The argument tuples of every Fraction constructed from here on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made == [(1, 2)]    # the wrapper does count
    made.clear()
    return made


def test_integer_layer_constructs_no_fraction(monkeypatch):
    made = count_fractions(monkeypatch)
    system = LatticeSystem([[2, 1], [0, 3]])
    assert lattice_rep_check(system, 2).passed
    rnd = random.Random(12)
    m = [[rnd.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    _, d, _ = smith_normal_form(m)
    assert d[11][11] == 33825001
    assert made == []


def test_scalar_layer_constructs_no_fraction(monkeypatch):
    # every input is built before Fraction is counted
    half, third = Radical.from_rational(Fraction(1, 2)), Radical.from_rational(Fraction(-1, 3))
    sixth = Radical.from_rational(Fraction(-1, 6))
    r2, r6 = Radical.inv_sqrt(2), Radical.sqrt(6) * Fraction(5, 4)
    mixed = half + r2 - r6
    g = bouquet(2)
    endo = CoreEndo(g)
    x = parse_element(g, "TERM 1/2*sqrt(3) e1 e2\nTERM -2/3 e2.e1 e2.e2\nTERM 1 e2 e2\n")
    made = count_fractions(monkeypatch)
    for a in (half, third, r2, r6, mixed):
        for b in (half, third, r2, r6, mixed):
            assert a * b == b * a
            assert (a + b) - b == a and -(a - b) == b - a
        assert a * 3 - a == a * 2 and a != a + 1 and a == -(-a)
    assert half * third == sixth
    assert r2 * r2 == half and r2 * r6 - r6 * r2 == 0
    bx = endo.beta(x)
    assert bx.items() and (x * bx).equal(x * bx)
    assert made == []
