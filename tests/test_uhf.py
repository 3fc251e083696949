"""Tensor towers, the corner transfer operator, and the isometry dictionary."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corealg import uhf_cuntz
from corealg.hilbert_module import UhfFrameSystem, canonical_frame, iso_generators_check
from corealg.scalar import ONE, Radical
from corealg.star_algebra import StarElement, matrix_unit, unit
from corealg.uhf_cuntz import (
    CuntzFamily,
    CuntzFamilyError,
    TensorElement,
    UhfSystem,
    canonical_cuntz_family,
    orthonormal_columns,
    pi_T,
    pi_T_report,
    prefix_rep_sweep,
    rank_rescale,
    tensor_prepend,
    uhf_L,
    uhf_alpha,
    words,
)
from corealg.util import CheckReport, accumulate


def e(n, mu, nu, c=1):
    return TensorElement.unit_entry(n, tuple(mu), tuple(nu), c)


# -- tensor arithmetic ---------------------------------------------------------


def test_matrix_unit_multiplication():
    assert (e(2, [1], [2]) * e(2, [2], [1])).equal(e(2, [1], [1]))
    assert (e(2, [1], [2]) * e(2, [1], [2])).is_zero()
    two = e(2, [1, 2], [2, 1]) * e(2, [2, 1], [1, 1])
    assert two.equal(e(2, [1, 2], [1, 1]))


def test_lift_is_unital_embedding():
    a = e(2, [1], [2], Fraction(3, 5))
    lifted = a.lift(3)
    assert lifted.k == 3 and lifted.equal(a)
    assert lifted.trace() == a.trace() * 4  # trace scales with the tower step
    with pytest.raises(ValueError):
        lifted.lift(1)


def test_adjoint_and_trace():
    a = e(3, [1, 2], [2, 2], Fraction(1, 2)) + e(3, [1, 1], [1, 1])
    assert a.adjoint().adjoint().equal(a)
    assert a.trace() == 1
    assert TensorElement.identity(2, 2).trace() == 4
    assert (a * a.adjoint()).trace() == Fraction(5, 4)


def test_internal_results_pass_the_public_checks():
    """Arithmetic results, tensor_prepend and uhf_L skip the constructor's
    checks; rebuilding each one through the constructor must accept it and
    drop nothing."""
    a = e(2, [1], [2], Fraction(3, 5)) + e(2, [2], [2], Radical.sqrt(2))
    b = e(2, [1, 2], [2, 1], -1) + e(2, [2, 2], [1, 2])
    results = [a.lift(3), a + b, a - b, a - a, -b, a * b, b * a, a * 0, 0 * b,
               a * Radical.sqrt(3), Fraction(-1, 2) * b, a.adjoint(), b.adjoint(),
               tensor_prepend(a, b), uhf_alpha(UhfSystem(2, 1), a),
               uhf_L(UhfSystem(2, 2), b * b.adjoint()), uhf_L(UhfSystem(2, 2), a), uhf_L(UhfSystem(2, 1), a - a),
               a.block(2, 2), b.block(1, 2), b.block(2, 1), TensorElement.identity(2, 0).block(1, 1)]
    for r in results:
        assert TensorElement(r.n, r.k, r.terms).terms == r.terms
        assert all(len(mu) == len(nu) == r.k for mu, nu in r.terms)
    assert (a - a).is_zero() and (a * 0).is_zero() and (0 * b).is_zero()


def test_words_and_identity():
    assert len(words(2, 2)) == 4
    assert len(words(3, 0)) == 1
    ident = TensorElement.identity(2, 2)
    a = e(2, [1, 2], [2, 1])
    assert (ident * a).equal(a) and (a * ident).equal(a)


# -- the (alpha, L) pair -------------------------------------------------------


def test_system_validation():
    with pytest.raises(ValueError):
        UhfSystem(2, 3)
    with pytest.raises(ValueError):
        UhfSystem(2, 0)


def test_alpha_prepends_corner():
    sys = UhfSystem(2, 2)
    a = e(2, [1], [2])
    img = uhf_alpha(sys, a)
    assert img.equal(tensor_prepend(sys.p_tensor(), a))
    assert img.k == 2
    # With the full corner (N = n) alpha is unital.
    assert uhf_alpha(sys, TensorElement.identity(2, 0)).equal(
        TensorElement.identity(2, 1))


def test_alpha_not_unital_on_proper_corner():
    sys = UhfSystem(2, 1)
    img = uhf_alpha(sys, TensorElement.identity(2, 0))
    assert img.equal(sys.p_tensor())
    assert not img.equal(TensorElement.identity(2, 1))


def test_transfer_values_pinned():
    sys = UhfSystem(2, 1)
    # L keeps e_{mu nu} only when the first letters agree and lie in the corner.
    assert uhf_L(sys, e(2, [1, 1], [1, 2])).equal(e(2, [1], [2]))
    assert uhf_L(sys, e(2, [2, 1], [2, 2])).is_zero()
    assert uhf_L(sys, e(2, [1, 1], [2, 2])).is_zero()
    wide = UhfSystem(2, 2)
    assert uhf_L(wide, e(2, [2, 1], [2, 2])).equal(e(2, [1], [2], Fraction(1, 2)))


def test_transfer_left_inverse_exhaustive():
    for n, N in ((2, 1), (2, 2), (3, 2)):
        sys = UhfSystem(n, N)
        for k in (0, 1, 2):
            for mu in words(n, k):
                for nu in words(n, k):
                    a = e(n, mu, nu)
                    assert uhf_L(sys, uhf_alpha(sys, a)).equal(a)


def test_transfer_module_identity():
    sys = UhfSystem(2, 2)
    for mu in words(2, 1):
        for nu in words(2, 1):
            a = e(2, mu, nu)
            for kap in words(2, 2):
                for lam in words(2, 2):
                    b = e(2, kap, lam)
                    lhs = uhf_L(sys, uhf_alpha(sys, a) * b)
                    assert lhs.equal(a * uhf_L(sys, b))


# -- isometry dictionary -------------------------------------------------------


def test_canonical_family_verifies():
    for n, N in ((2, 1), (2, 2), (3, 2)):
        sys = UhfSystem(n, N)
        g, family = canonical_cuntz_family(sys)
        assert len(g.edge_names) == n * N
        assert isinstance(family, CuntzFamily) and family.graph is g
        assert sorted(family) == sorted(sys.indices()) and len(family) == n * N
        assert dict(CuntzFamily(sys, dict(family))) == dict(family)


def test_corrupted_family_rejected():
    sys = UhfSystem(2, 1)
    g, family = canonical_cuntz_family(sys)
    bad = dict(family)
    bad[(1, 1)] = bad[(2, 1)]
    with pytest.raises(CuntzFamilyError, match=r"S_\(1, 1\)\* S_\(2, 1\) is not 0"):
        CuntzFamily(sys, bad)
    # orthonormal isometries whose ranges miss part of the identity
    short = dict(family)
    short[(2, 1)] = matrix_unit(g, g.path(["s2_1", "s1_1"]), g.empty_path("v"))
    with pytest.raises(CuntzFamilyError, match="sum of range projections differs from 1"):
        CuntzFamily(sys, short)


def test_pi_T_pinned_single_isometries():
    sys = UhfSystem(2, 1)
    g, family = canonical_cuntz_family(sys)
    img = pi_T(sys, family, e(2, [1], [2]))
    expected = matrix_unit(g, g.path(["s1_1"]), g.path(["s2_1"]))
    assert img.equal(expected)
    assert pi_T(sys, family, TensorElement.identity(2, 0)).equal(unit(g))


def test_pi_T_multiplicative_report():
    for n, N in ((2, 1), (2, 2)):
        sys = UhfSystem(n, N)
        g, family = canonical_cuntz_family(sys)
        for k in (1, 2):
            a = e(n, [1] * k, ([2] if n > 1 else [1]) * k)
            report = pi_T_report(sys, family, a)
            assert report.passed, report.lines()


def test_prefix_model():
    sys = UhfSystem(2, 1)
    a = e(2, [1, 2], [1, 1]) + e(2, [2, 2], [2, 2], Fraction(1, 3))
    report = prefix_rep_sweep(sys, a, m=3)
    assert report.passed, report.lines()
    assert report.checks > 0


def _count_products(monkeypatch) -> list:
    """Count StarElement word products for the test."""
    calls = []
    inner = StarElement._product

    def counting(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(StarElement, "_product", counting)
    return calls


def test_empty_family_raises():
    sys = UhfSystem(2, 1)
    with pytest.raises(CuntzFamilyError, match="empty family"):
        CuntzFamily(sys, {})
    with pytest.raises(TypeError, match="CuntzFamily"):
        pi_T_report(sys, {}, e(2, [1], [2]))


def test_rejections_fire_on_every_attempt(monkeypatch):
    # the constructor keeps no verdict: each attempt runs its checks again
    sys = UhfSystem(2, 1)
    _, family = canonical_cuntz_family(sys)
    _, other = canonical_cuntz_family(sys)
    corrupted = dict(family)
    corrupted[(1, 1)] = family[(2, 1)]
    mixed = dict(family)
    mixed[(2, 1)] = other[(2, 1)]
    rejections = [(sys, {}, CuntzFamilyError, "empty family"),
                  (sys, mixed, CuntzFamilyError, "different graphs"),
                  (UhfSystem(2, 2), family, ValueError, "indexed by the"),
                  (sys, corrupted, CuntzFamilyError, "is not 0")]
    products = _count_products(monkeypatch)
    for members_sys, members, error, message in rejections:
        for _ in range(3):
            before = len(products)
            with pytest.raises(error, match=message):
                CuntzFamily(members_sys, members)
            # only the corrupted family gets as far as the products
            assert (len(products) > before) == (members is corrupted)
    assert dict(CuntzFamily(sys, family)) == dict(family)


def test_family_is_read_only():
    _, family = canonical_cuntz_family(UhfSystem(2, 1))
    with pytest.raises(TypeError):
        family[(1, 1)] = family[(2, 1)]
    with pytest.raises(TypeError):
        del family[(1, 1)]
    assert not hasattr(family, "update")


def test_pi_T_takes_only_a_family_of_its_system():
    sys = UhfSystem(2, 1)
    _, family = canonical_cuntz_family(sys)
    a = e(2, [1], [2])
    for call in (pi_T, pi_T_report):
        with pytest.raises(TypeError, match="needs a CuntzFamily, got dict"):
            call(sys, dict(family), a)
    with pytest.raises(ValueError, match="indexed by the"):
        pi_T(UhfSystem(2, 2), family, e(2, [1], [1]))


def test_family_over_two_graphs_rejected():
    sys = UhfSystem(2, 1)
    _, family = canonical_cuntz_family(sys)
    _, other = canonical_cuntz_family(sys)
    mixed = dict(family)
    mixed[(2, 1)] = other[(2, 1)]
    with pytest.raises(CuntzFamilyError, match="different graphs"):
        CuntzFamily(sys, mixed)


def test_pi_T_report_product_count(monkeypatch):
    # the word products of one report on (3,2): T_ij* pi(a) once per (i, j),
    # each word isometry once and each matrix-unit image once; the family's
    # 42 check products ran when it was built
    sys = UhfSystem(3, 2)
    _, family = canonical_cuntz_family(sys)
    a = TensorElement(3, 2, {((1, 2), (2, 1)): 1, ((3, 1), (1, 1)): Fraction(-1, 2)})
    products = _count_products(monkeypatch)
    assert pi_T_report(sys, family, a).passed
    assert len(products) == 74


def test_second_report_reuses_word_isometries(monkeypatch):
    # the family keeps its word isometries and matrix-unit images: a second
    # report on it forms none of them, only the 6 products T_ij* pi(a) and
    # the 36 products T_ij* pi(a) T_kl
    sys = UhfSystem(3, 2)
    _, family = canonical_cuntz_family(sys)
    a = TensorElement(3, 2, {((1, 2), (2, 1)): 1, ((3, 1), (1, 1)): Fraction(-1, 2)})
    assert pi_T_report(sys, family, a).passed
    products = _count_products(monkeypatch)
    assert pi_T_report(sys, family, a).passed
    assert len(products) == 42


def test_unit_image_formed_once_per_family(monkeypatch):
    # the first image forms one T T* product per (entry, lam) and the 16 word
    # isometries of its two entries; the family keeps both, so a second
    # image, or an element sharing an entry, forms none again
    sys = UhfSystem(3, 2)
    _, family = canonical_cuntz_family(sys)
    a = TensorElement(3, 2, {((1, 2), (2, 1)): 1, ((3, 1), (1, 1)): Fraction(-1, 2)})
    products = _count_products(monkeypatch)
    pi_T(sys, family, a)
    assert len(products) == 2 * 4 + 16
    del products[:]
    pi_T(sys, family, a)
    pi_T(sys, family, TensorElement(3, 2, {((1, 2), (2, 1)): Fraction(5, 3)}))
    assert products == []
    assert family.unit_image((1, 2), (2, 1)) is family.unit_image((1, 2), (2, 1))
    # another family keeps its own images
    _, other = canonical_cuntz_family(sys)
    del products[:]
    pi_T(sys, other, a)
    assert len(products) == 2 * 4 + 16


# -- pi_T_report and prefix_rep_sweep against the loops they replace ---------------


def _loop_pi_T(sys, family, a):
    """pi_T as it reads: every T_(mu lam) T_(nu lam)^* c formed from the
    members and added to a running sum, one lam at a time."""
    g = family.graph
    if a.k == 0:
        c = a.terms.get(((), ()), Radical())
        return unit(g) * c if c else StarElement.zero(g)

    def word(mu, lam):
        out = unit(g)
        for letters in zip(mu, lam):
            out = out * family[letters]
        return out

    out = StarElement.zero(g)
    for (mu, nu), c in a.terms.items():
        for lam in words(sys.N, a.k):
            out = out + word(mu, lam) * word(nu, lam).adjoint() * c
    return out


@pytest.mark.parametrize("nN", [(2, 1), (2, 2), (3, 2)])
def test_pi_T_matches_the_loop(nN):
    sys = UhfSystem(*nN)
    _, family = canonical_cuntz_family(sys)
    rnd = random.Random("pi_T:%d,%d" % nN)
    coeffs = [Fraction(1), Fraction(-1, 2), Fraction(3), Radical.sqrt(2), Radical.sqrt(3) * 2]
    for k in (0, 1, 2, 2, 2):
        ws = words(sys.n, k)
        for count in (1, 2, 4):
            a = TensorElement(sys.n, k, {(rnd.choice(ws), rnd.choice(ws)): rnd.choice(coeffs)
                                         for _ in range(count)})
            got, want = pi_T(sys, family, a), _loop_pi_T(sys, family, a)
            assert got.equal(want) and got.text() == want.text()
    # the images of an element and its negative cancel term by term
    assert (pi_T(sys, family, a) + pi_T(sys, family, -a)).is_zero()




def _loop_pi_T_report(sys, family, a):
    """The compression check with every product formed inside the (k, l) loop."""
    report = CheckReport("pi_T relations at depth %d" % a.k)
    g = next(iter(family.values())).graph
    report.check(pi_T(sys, family, TensorElement.identity(sys.n, 1)).equal(unit(g)),
                 lambda: "pi_T(1) differs from 1")
    image = pi_T(sys, family, a)
    for (i, j) in sys.indices():
        for (k, l) in sys.indices():
            lhs = family[(i, j)].adjoint() * image * family[(k, l)]
            inner = uhf_cuntz.uhf_L(sys, sys.matrix_unit(j, i) * a * sys.matrix_unit(k, l)) * sys.N
            rhs = pi_T(sys, family, inner)
            report.check(lhs.equal(rhs),
                         lambda: "compression relation fails at ij=%s kl=%s for a=\n%s"
                         % ((i, j), (k, l), a.text()))
    return report


def _apply_tensor(a, vec):
    out = {}
    j = a.k
    for x, c in vec.items():
        head, tail = x[:j], x[j:]
        for (mu, nu), val in a.terms.items():
            if nu == head:
                accumulate(out, mu + tail, val * c)
    return out


def _loop_prefix_rep_sweep(sys, a, m):
    """The prefix sweep reading every entry of a and L(a) for every word."""
    report = CheckReport("prefix model sweep (depth %d, m=%d)" % (a.k, m))
    la = uhf_cuntz.uhf_L(sys, a)
    scale = Fraction(1, sys.N)
    for x in words(sys.n, m):
        lhs = _apply_tensor(la, {x: ONE})
        rhs = {}
        for i in range(1, sys.N + 1):
            for u, c in _apply_tensor(a, {(i,) + x: ONE}).items():
                if u[0] == i:
                    accumulate(rhs, u[1:], c * scale)

        def mismatch():
            bad = sorted(set(lhs) | set(rhs))[0]
            return "x=%r first mismatch at y=%r: lhs=%s rhs=%s" % (
                x, bad, lhs.get(bad, Radical()).text(), rhs.get(bad, Radical()).text())
        report.check(lhs == rhs, mismatch)
    return report


def _elements(sys, seed):
    """Matrix units of depth 1 (and 2 for n = 2), then seeded random
    elements of depths 0 to 2 with rational and radical entries."""
    n = sys.n
    out = [e(n, mu, nu) for k in ((1, 2) if n == 2 else (1,))
           for mu in words(n, k) for nu in words(n, k)]
    rnd = random.Random(seed)
    values = (1, -1, Fraction(1, 3), Fraction(-5, 2), Radical.sqrt(2), Radical.sqrt(3) * 2)
    for k in (0, 1, 2, 2, 2):
        ws = words(n, k)
        out.append(TensorElement(n, k, {(rnd.choice(ws), rnd.choice(ws)): rnd.choice(values)
                                        for _ in range(3)}))
    return out


_TENSOR_SYSTEMS = [(2, 1), (2, 2), (3, 2)]


def _assert_reports_match_loops(sys, elements):
    _, family = canonical_cuntz_family(sys)
    for a in elements:
        assert pi_T_report(sys, family, a).lines() == _loop_pi_T_report(sys, family, a).lines()
        for m in range(a.k + 1, a.k + 3):
            assert (prefix_rep_sweep(sys, a, m).lines()
                    == _loop_prefix_rep_sweep(sys, a, m).lines())


@pytest.mark.parametrize("nN", _TENSOR_SYSTEMS, ids=str)
def test_reports_match_the_loops(nN):
    sys = UhfSystem(*nN)
    _assert_reports_match_loops(sys, _elements(sys, seed=sum(nN)))


@pytest.mark.parametrize("nN", _TENSOR_SYSTEMS, ids=str)
def test_planted_failures_match_the_loops(monkeypatch, nN):
    # L with its least nonzero entry doubled: both routes must fail at the
    # same places and print the same witnesses in the same order
    original = uhf_cuntz.uhf_L

    def planted(sys, a):
        out = original(sys, a)
        if not out.terms:
            return out
        entries = dict(out.terms)
        key = min(entries)
        entries[key] = entries[key] * 2
        return TensorElement(out.n, out.k, entries)

    monkeypatch.setattr(uhf_cuntz, "uhf_L", planted)
    sys = UhfSystem(*nN)
    elements = _elements(sys, seed=7)[-4:]
    _, family = canonical_cuntz_family(sys)
    assert not any(pi_T_report(sys, family, a).passed for a in elements[1:])
    assert not all(prefix_rep_sweep(sys, a, a.k + 1).passed for a in elements)
    _assert_reports_match_loops(sys, elements)


# -- block reads against the matrix-unit products they replace ----------------------


_BLOCK_SYSTEMS = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]
_BLOCK_VALUES = (1, -1, Fraction(1, 3), Fraction(-5, 2), Radical.sqrt(2),
                 Radical.sqrt(3) * 2, Radical.sqrt(6) * Fraction(-1, 7))


@st.composite
def _system_and_element(draw):
    n, N = draw(st.sampled_from(_BLOCK_SYSTEMS))
    ws = words(n, draw(st.integers(0, 3)))
    word = st.sampled_from(ws)
    entries = draw(st.dictionaries(st.tuples(word, word), st.sampled_from(_BLOCK_VALUES),
                                   max_size=6))
    return UhfSystem(n, N), TensorElement(n, len(ws[0]), entries)


def _assert_same(got, want):
    assert (got.n, got.k, got.terms, got.text()) == (want.n, want.k, want.terms, want.text())


@settings(max_examples=60, deadline=None)
@given(_system_and_element())
def test_block_reads_match_the_matrix_unit_formulas(sys_and_b):
    sys, b = sys_and_b
    fsys = UhfFrameSystem(sys)
    n, N = sys.n, sys.N
    for (i, j) in sys.indices():
        _assert_same(fsys.qcoord((i, j), b),
                     uhf_L(sys, sys.matrix_unit(j, i) * b) * Radical.sqrt(N))
        for (k, l) in sys.indices():
            prod = sys.matrix_unit(j, i) * b * sys.matrix_unit(k, l)
            _assert_same(fsys.act1((i, j), b, (k, l)), uhf_L(sys, prod) * N)
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        _assert_same(tensor_prepend(sys.matrix_unit(j, l), b.block(i, k)),
                     sys.matrix_unit(j, i) * b * sys.matrix_unit(k, l))


def test_planted_block_fails_both_routes(monkeypatch):
    # a block with its least entry doubled: the Gram identities read it
    # through act1, and the compression relation through e_ji a e_kl
    original = TensorElement.block

    def planted(self, i, j):
        out = original(self, i, j)
        if not out.terms:
            return out
        entries = dict(out.terms)
        key = min(entries)
        entries[key] = entries[key] * 2
        return TensorElement(out.n, out.k, entries)

    monkeypatch.setattr(TensorElement, "block", planted)
    sys = UhfSystem(2, 2)
    assert not canonical_frame(UhfFrameSystem(sys)).passed
    _, family = canonical_cuntz_family(sys)
    report = pi_T_report(sys, family, e(2, [1, 2], [2, 1], Fraction(1, 3)))
    assert not report.passed
    assert "compression relation fails" in report.failures[0]


def almost_faithful_witness(sys: UhfSystem, a: TensorElement):
    """A pair (j, i) whose matrix unit b = e_ji makes L((ab)*(ab)) nonzero,
    or None when a is zero."""
    for j in range(1, sys.n + 1):
        for i in range(1, sys.n + 1):
            b = sys.matrix_unit(j, i)
            w = a * b
            if not uhf_L(sys, w.adjoint() * w).is_zero():
                return (j, i)
    return None


def test_almost_faithful_witness():
    sys = UhfSystem(2, 1)
    assert almost_faithful_witness(sys, e(2, [1], [1])) == (1, 1)
    assert almost_faithful_witness(sys, e(2, [2], [2])) is not None
    assert almost_faithful_witness(sys, TensorElement(2, 1)) is None


def test_orthonormal_columns():
    cols = orthonormal_columns([[Fraction(1), Fraction(1)],
                                [Fraction(1), Fraction(0)]])
    for i in range(2):
        for j in range(2):
            dot = sum((cols[k][i] * cols[k][j] for k in range(2)), Radical())
            assert dot == (ONE if i == j else 0)


def test_rank_rescale_pinned():
    sys1, u, rep = rank_rescale(2, 1, e(2, [1], [1]))
    assert (sys1.n, sys1.N) == (2, 1) and rep.passed
    assert u[0][0] == ONE and u[1][1] == ONE and u[0][1] == 0
    p = tensor_prepend(e(2, [1], [1]), TensorElement.identity(2, 1))
    sys2, _, rep2 = rank_rescale(2, 2, p)
    assert (sys2.n, sys2.N) == (4, 2) and rep2.passed


def test_rank_rescale_rejects_non_projection():
    with pytest.raises(ValueError):
        rank_rescale(2, 1, e(2, [1], [2]))


def test_iso_generators():
    report = iso_generators_check(UhfSystem(2, 1))
    assert report.passed, report.lines()


def test_iso_generators_verify_the_family_once(monkeypatch):
    # the family is checked when it is built, and it is built once
    built = []
    init = CuntzFamily.__init__

    def counted(self, sys, members):
        built.append(sys)
        init(self, sys, members)

    monkeypatch.setattr(CuntzFamily, "__init__", counted)
    assert iso_generators_check(UhfSystem(3, 2)).passed
    assert len(built) == 1
