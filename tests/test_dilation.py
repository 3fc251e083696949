"""Integer dilation matrices: Hermite boxes, transversals, and the isometry
relations on finitely supported vectors."""

from itertools import product

import pytest

from corealg import dilation
from corealg.dilation import (
    LatticeSystem,
    delta,
    dilation_beta,
    dilate,
    codilate,
    hermite_normal_form,
    lattice_rep_check,
    mono_apply,
    sigma_i,
    translate,
    transversal_check,
    vec_equal,
)
from corealg.util import CheckReport

MATRICES = ([[2]], [[2, 0], [0, 2]], [[1, 1], [-1, 1]], [[2, 0], [0, 3]])


def _det(b):
    if len(b) == 1:
        return abs(b[0][0])
    return abs(b[0][0] * b[1][1] - b[0][1] * b[1][0])


@pytest.mark.parametrize("b", MATRICES)
def test_hermite_form_properties(b):
    h, u = hermite_normal_form(b)
    d = len(b)
    for i in range(d):
        assert h[i][i] > 0
        for j in range(i + 1, d):
            assert h[i][j] == 0          # lower triangular
    assert _det(u) == 1                  # unimodular
    prod = [[sum(b[i][k] * u[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]
    assert prod == h


def test_hermite_pinned():
    h, _ = hermite_normal_form([[1, 1], [-1, 1]])
    assert h == [[1, 0], [1, 2]]
    h, _ = hermite_normal_form([[2]])
    assert h == [[2]]


def test_hermite_rejects_singular():
    with pytest.raises(ValueError):
        hermite_normal_form([[1, 1], [1, 1]])


@pytest.mark.parametrize("b", MATRICES)
def test_coset_reps_are_transversal(b):
    sys = LatticeSystem(b)
    reps = sys.Sigma
    assert len(reps) == _det(b)
    report = transversal_check(sys, reps)
    assert report.passed, report.lines()


def test_membership_and_reduce():
    sys = LatticeSystem([[1, 1], [-1, 1]])
    assert sys.member((2, 0))            # (1,1) + (1,-1)
    assert not sys.member((1, 0))
    for m in ((3, -2), (0, 5), (-4, 1)):
        r = sys.reduce(m)
        assert r in sys.Sigma
        diff = tuple(mi - ri for mi, ri in zip(m, r))
        assert sys.member(diff)


def test_solve_inverts_apply():
    sys = LatticeSystem([[2, 0], [0, 3]])
    for k in ((1, 0), (-2, 5), (4, 4)):
        assert sys.solve(sys.apply(k)) == k
    assert sys.solve((1, 1)) is None


def test_user_sigma_accepted_and_rejected():
    good = LatticeSystem([[2]], sigma=[(0,), (3,)])   # 3 is odd, still a transversal
    assert good.Sigma == [(0,), (3,)]
    with pytest.raises(ValueError):
        LatticeSystem([[2]], sigma=[(0,), (2,)])      # congruent mod 2
    with pytest.raises(ValueError):
        LatticeSystem([[2]], sigma=[(0,)])            # wrong count


def test_witness_names_the_clashing_points():
    sys = LatticeSystem([[2]])
    report = transversal_check(sys, [(0,), (2,)])
    assert not report.passed
    assert any("points 0 and 2" in w for w in report.failures)


@pytest.mark.parametrize("b", MATRICES)
def test_sigma_i_counts(b):
    sys = LatticeSystem(b)
    for i in (1, 2, 3):
        pts = sigma_i(sys, i)
        assert len(pts) == _det(b) ** i
        report = transversal_check(sys, pts, power=i)
        assert report.passed, report.lines()


def test_operator_actions_pinned():
    sys = LatticeSystem([[2]])
    v = delta((3,))
    assert dilate(sys, v) == {(6,): 1}
    assert codilate(sys, dilate(sys, v)) == v
    assert codilate(sys, delta((3,))) == {}          # 3 odd, outside the lattice
    assert translate((2,), delta((3,))) == {(5,): 1}
    # u_m v (u_n v)* maps delta_{2k+n} to delta_{2k+m}.
    out = mono_apply(sys, ((1,), 1, (0,)), delta((4,)))
    assert out == {(5,): 1}
    assert mono_apply(sys, ((1,), 1, (0,)), delta((3,))) == {}


@pytest.mark.parametrize("b", MATRICES)
def test_defining_relations(b):
    sys = LatticeSystem(b)
    report = lattice_rep_check(sys, radius=3)
    assert report.passed, report.lines()
    assert report.checks > 0


def matrix_unit_check(sys: LatticeSystem, i: int, radius: int) -> CheckReport:
    """T_mn = (u_m v^i)(u_n v^i)* over Sigma_i multiply like matrix units."""
    pts = sigma_i(sys, i)
    report = CheckReport("matrix units at level %d" % i)
    box = list(product(range(-radius, radius + 1), repeat=sys.d))
    for m in pts:
        for n in pts:
            for mp in pts:
                for np_ in pts:
                    ok = True
                    for k in box:
                        dk = delta(k)
                        step = mono_apply(sys, (mp, i, np_), dk)
                        lhs = mono_apply(sys, (m, i, n), step)
                        rhs = mono_apply(sys, (m, i, np_), dk) if n == mp else {}
                        if not vec_equal(lhs, rhs):
                            ok = False
                            break
                    report.check(ok, lambda: "units at (%s,%s),(%s,%s) fail at k=%s"
                                 % (m, n, mp, np_, k))
    return report


def test_matrix_units_over_sigma():
    for b in ([[2]], [[1, 1], [-1, 1]]):
        sys = LatticeSystem(b)
        for i in (1, 2):
            report = matrix_unit_check(sys, i, radius=3)
            assert report.passed, report.lines()


def test_rewrite_step_pinned():
    sys = LatticeSystem([[2]])
    new, report = dilation_beta(sys, ((1,), 1, (0,)))
    assert new == ((2,), 2, (0,))
    assert report.passed, report.lines()


@pytest.mark.parametrize("b", MATRICES)
def test_rewrite_step_everywhere(b):
    sys = LatticeSystem(b)
    for m in sys.Sigma:
        for n in sys.Sigma:
            new, report = dilation_beta(sys, (m, 0, n), radius=3)
            assert report.passed, report.lines()
            assert new[1] == 1


def test_compared_vectors_hold_no_zero(monkeypatch):
    # vec_equal is dict equality because no vector holds a zero value; check
    # every pair compared over the A09 boxes (radius 8) and by the rewrites
    compared = []
    inner = dilation.vec_equal

    def recording(a, b):
        compared.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(dilation, "vec_equal", recording)
    for b in MATRICES:
        sys = LatticeSystem(b)
        assert lattice_rep_check(sys, radius=8).passed
        ends = (sys.Sigma[0], sys.Sigma[-1])
        for term in product(ends, (0, 1), ends):
            assert dilation_beta(sys, term, radius=8)[1].passed
    assert compared and any(a for a, _ in compared)
    assert all(c != 0 for pair in compared for vec in pair for c in vec.values())
