"""Integer dilation matrices: Hermite boxes, transversals, and the isometry
relations on finitely supported vectors."""

from itertools import product
from operator import mul

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
# the matrices of A09 and one in dimension 3
KERNEL_MATRICES = MATRICES + ([[2, 1, 0], [0, 2, 1], [1, 0, 2]],)


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


def test_points_of_another_dimension_are_refused():
    # the lattice kernels zip vectors, so a point of the wrong length would
    # be cut short or padded out in silence: it is refused up front
    with pytest.raises(ValueError, match="dimension 1"):
        LatticeSystem([[2]], sigma=[(0, 5), (1, 7)])      # 2-D points on Z
    with pytest.raises(ValueError, match="dimension 2"):
        LatticeSystem([[2, 0], [0, 2]], sigma=[(0,), (1,), (2,), (3,)])
    with pytest.raises(ValueError, match="dimension 2"):
        LatticeSystem([[2, 0], [0, 2]], sigma=[(0, 0), (1, 0), (0, 1), (1, 1, 0)])
    one, two = LatticeSystem([[2]]), LatticeSystem([[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="dimension 1"):
        transversal_check(one, [(0, 5), (1, 7)])
    with pytest.raises(ValueError, match="dimension 2"):
        transversal_check(two, [(0,), (1,), (2,), (3,)], power=1)


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


# -- the integer kernels against their generator forms ------------------------------


def oracle_apply(sys, k):
    return tuple(sum(sys.B[i][j] * k[j] for j in range(sys.d)) for i in range(sys.d))


def oracle_solve(sys, k):
    out = []
    for row in sys._adj:
        q, r = divmod(sum(a * x for a, x in zip(row, k)), sys._det)
        if r:
            return None
        out.append(q)
    return tuple(out)


def oracle_translate(m, vec):
    return {tuple(x + y for x, y in zip(k, m)): c for k, c in vec.items()}


def oracle_mono_apply(sys, term, vec):
    m, i, n = term
    out = oracle_translate(tuple(-x for x in n), vec)
    for _ in range(i):
        out = {oracle_solve(sys, k): c for k, c in out.items()
               if oracle_solve(sys, k) is not None}
    for _ in range(i):
        out = {oracle_apply(sys, k): c for k, c in out.items()}
    return oracle_translate(tuple(m), out)


@pytest.mark.parametrize("b", KERNEL_MATRICES)
def test_kernels_match_their_generator_forms(b):
    sys = LatticeSystem(b)
    box = list(dilation._box(sys.d, 3))
    solved = [sys.solve(k) for k in box]
    assert solved == [oracle_solve(sys, k) for k in box]
    assert None in solved and any(s is not None for s in solved)   # members and not
    assert [sys.apply(k) for k in box] == [oracle_apply(sys, k) for k in box]
    # one vector over the whole box, with distinct values, compared key for
    # key and in order
    vec = {k: c for c, k in enumerate(box, 1)}
    far = tuple(-3 for _ in range(sys.d))
    shifts = (sys.Sigma[0], sys.Sigma[-1], far, sys.apply(sys.Sigma[-1]))
    for m in shifts:
        assert list(translate(m, vec).items()) == list(oracle_translate(m, vec).items())
    for term in product(shifts, (0, 1, 2), shifts):
        got = mono_apply(sys, term, vec)
        assert list(got.items()) == list(oracle_mono_apply(sys, term, vec).items()), term


def test_lattice_rep_check_rejects_a_flooring_solve(monkeypatch):
    # a solve that floors where it should refuse a non-integral preimage
    # makes every point a lattice member
    def floored(self, k):
        return tuple(sum(map(mul, row, k)) // self._det for row in self._adj)

    monkeypatch.setattr(LatticeSystem, "solve", floored)
    for b in KERNEL_MATRICES:
        report = lattice_rep_check(LatticeSystem(b), radius=3)
        assert not report.passed, b
        assert any(w.startswith("vv* is not the lattice-membership projection")
                   for w in report.failures), b
