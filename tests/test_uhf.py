"""Tensor towers, the corner transfer operator, and the isometry dictionary."""

import random
from fractions import Fraction

import pytest

from corealg import uhf_cuntz
from corealg.scalar import ONE, Radical
from corealg.star_algebra import StarElement, matrix_unit, unit
from corealg.uhf_cuntz import (
    CuntzFamilyError,
    TensorElement,
    UhfSystem,
    almost_faithful_witness,
    averaging_unitary,
    canonical_cuntz_family,
    iso_generators_check,
    orthonormal_columns,
    pi_T,
    pi_T_report,
    prefix_rep_sweep,
    rank_rescale,
    tensor_prepend,
    uhf_L,
    uhf_alpha,
    verify_cuntz_family,
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
               uhf_L(UhfSystem(2, 2), b * b.adjoint()), uhf_L(UhfSystem(2, 2), a), uhf_L(UhfSystem(2, 1), a - a)]
    for r in results:
        assert TensorElement(r.n, r.k, r.entries).entries == r.entries
        assert all(len(mu) == len(nu) == r.k for mu, nu in r.entries)
    assert (a - a).is_zero() and (a * 0).is_zero() and (0 * b).is_zero()


def test_words_and_identity():
    assert len(words(2, 2)) == 4
    assert len(words(3, 0)) == 1
    ident = TensorElement.identity(2, 2)
    a = e(2, [1, 2], [2, 1])
    assert (ident * a).equal(a) and (a * ident).equal(a)


def test_to_numeric_matches_entries():
    a = e(2, [1], [2]) + e(2, [2], [1])
    m = a.to_numeric()
    assert m.shape == (2, 2)
    assert m[0, 1] == 1.0 and m[1, 0] == 1.0 and m[0, 0] == 0.0


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
        g, family = canonical_cuntz_family(UhfSystem(n, N))
        assert len(g.edge_names) == n * N
        verify_cuntz_family(family)


def test_corrupted_family_rejected():
    g, family = canonical_cuntz_family(UhfSystem(2, 1))
    bad = dict(family)
    bad[(1, 1)] = bad[(2, 1)]
    with pytest.raises(CuntzFamilyError):
        verify_cuntz_family(bad)


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
        verify_cuntz_family({})
    with pytest.raises(CuntzFamilyError, match="empty family"):
        pi_T_report(sys, {}, e(2, [1], [2]))


def test_verified_family_is_remembered_by_content(monkeypatch):
    products = _count_products(monkeypatch)
    g, family = canonical_cuntz_family(UhfSystem(2, 1))
    verify_cuntz_family(family)
    first = len(products)
    assert first > 0
    verify_cuntz_family(dict(family))
    assert len(products) == first
    bad = dict(family)
    bad[(1, 1)] = bad[(2, 1)]
    for _ in range(3):
        with pytest.raises(CuntzFamilyError):
            verify_cuntz_family(bad)
        assert len(products) > first
        first = len(products)


def test_family_over_two_graphs_rejected():
    _, family = canonical_cuntz_family(UhfSystem(2, 1))
    _, other = canonical_cuntz_family(UhfSystem(2, 1))
    mixed = dict(family)
    mixed[(2, 1)] = other[(2, 1)]
    with pytest.raises(CuntzFamilyError, match="different graphs"):
        verify_cuntz_family(mixed)


def test_pi_T_report_product_count(monkeypatch):
    # each word product of one report on (3,2), the family's verification
    # included: 152 with T_ij* pi(a) T_kl, e_ji a e_kl and the word
    # isometries formed anew for every (k, l) and every image, 122 now
    sys = UhfSystem(3, 2)
    _, family = canonical_cuntz_family(sys)
    a = TensorElement(3, 2, {((1, 2), (2, 1)): 1, ((3, 1), (1, 1)): Fraction(-1, 2)})
    products = _count_products(monkeypatch)
    assert pi_T_report(sys, family, a).passed
    assert len(products) == 122


# -- pi_T_report and prefix_rep_sweep against the loops they replace ---------------


def _loop_pi_T_report(sys, family, a):
    """The compression check with every product formed inside the (k, l) loop."""
    report = CheckReport("pi_T relations at depth %d" % a.k)
    verify_cuntz_family(family)
    g = next(iter(family.values())).graph
    report.count()
    if not pi_T(sys, family, TensorElement.identity(sys.n, 1)).equal(unit(g)):
        report.fail("pi_T(1) differs from 1")
    image = pi_T(sys, family, a)
    for (i, j) in sys.indices():
        for (k, l) in sys.indices():
            lhs = family[(i, j)].adjoint() * image * family[(k, l)]
            inner = uhf_cuntz.uhf_L(sys, sys.matrix_unit(j, i) * a * sys.matrix_unit(k, l)) * sys.N
            rhs = pi_T(sys, family, inner)
            report.count()
            if not lhs.equal(rhs):
                report.fail("compression relation fails at ij=%s kl=%s for a=\n%s"
                            % ((i, j), (k, l), a.text()))
    return report


def _apply_tensor(a, vec):
    out = {}
    j = a.k
    for x, c in vec.items():
        head, tail = x[:j], x[j:]
        for (mu, nu), val in a.entries.items():
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
        report.count()
        if lhs != rhs:
            bad = sorted(set(lhs) | set(rhs))[0]
            report.fail("x=%r first mismatch at y=%r: lhs=%s rhs=%s"
                        % (x, bad, lhs.get(bad, Radical()).text(),
                           rhs.get(bad, Radical()).text()))
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
        if not out.entries:
            return out
        entries = dict(out.entries)
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

def test_almost_faithful_witness():
    sys = UhfSystem(2, 1)
    assert almost_faithful_witness(sys, e(2, [1], [1])) == (1, 1)
    assert almost_faithful_witness(sys, e(2, [2], [2])) is not None
    assert almost_faithful_witness(sys, TensorElement(2, 1)) is None


def test_averaging_unitary_pinned():
    u = averaging_unitary(2)
    h = Radical.inv_sqrt(2)
    assert u[0][0] == h and u[0][1] == h
    assert u[1][0] == h and u[1][1] == -h


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
    # every pi_T image verifies its family; after the first, that is a lookup
    runs = []
    check = uhf_cuntz._check_cuntz_family

    def counted(g, family):
        runs.append(g)
        return check(g, family)

    monkeypatch.setattr(uhf_cuntz, "_check_cuntz_family", counted)
    assert iso_generators_check(UhfSystem(3, 2)).passed
    assert len(runs) == 1
