import random

import pytest
from hypothesis import given, settings, strategies as st

from corealg.graph import Graph, bouquet, cycle
from corealg.ktheory import (
    GroupPresentation,
    coker_ker,
    graph_k_theory,
    int_det,
    lattice_solve,
    paschke_sequence,
    smith_normal_form,
    vertex_matrix,
)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def det(m):
    return int_det(m)


# -- Smith form --------------------------------------------------------------------


def test_smith_pinned():
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert d == [[2, 0], [0, 4]]
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    _, d, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_int_det():
    assert int_det([[2, 4], [6, 8]]) == -8
    assert int_det([[1]]) == 1
    assert int_det([[1, 2], [2, 4]]) == 0


entries = st.integers(min_value=-5, max_value=5)
mats = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
rect_mats = shapes.flatmap(lambda rc: st.lists(
    st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]))


@settings(max_examples=80, deadline=None)
@given(rect_mats)
def test_smith_properties(m):
    u, d, v = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == d
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(a >= 0 for a in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0      # the divisibility chain
        else:
            assert b == 0          # a zero is followed only by zeros


def test_smith_transforms_stay_small():
    # a smallest-entry pivot scan that never reduces the other rows took
    # 21-28 s on this matrix (2 cores, Python 3.11.7), with U and V entries
    # of 24,824 bits; the Hermite kernel takes about half a second
    rnd = random.Random(80)
    m = [[rnd.randint(-3, 3) for _ in range(80)] for _ in range(80)]
    u, d, v = smith_normal_form(m)
    assert [d[i][i] for i in range(80)] == [1] * 79 + [abs(int_det(m))]
    assert max(abs(x).bit_length() for t in (u, v) for row in t for x in row) <= 1024


@settings(max_examples=60, deadline=None)
@given(mats)
def test_coker_order_matches_det(m):
    group, ker = coker_ker(m)
    d = det(m)
    if d != 0:
        assert ker == 0
        assert group.free_rank == 0
        assert group.order() == abs(d)
    else:
        assert group.free_rank == ker  # square matrix: rank-nullity on both sides
        assert ker >= 1


# -- presentations --------------------------------------------------------------------


def test_presentation_text():
    assert GroupPresentation(0, ()).text() == "0"
    assert GroupPresentation(1, ()).text() == "Z"
    assert GroupPresentation(2, (2, 4)).text() == "Z^2 + Z/2 + Z/4"
    assert GroupPresentation(0, (5,)).text() == "Z/5"


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(0, (1,))
    with pytest.raises(ValueError):
        GroupPresentation(0, (4, 2))      # chain must divide forward
    with pytest.raises(ValueError):
        GroupPresentation(-1, ())


def test_presentation_order():
    assert GroupPresentation(0, (2, 4)).order() == 8
    assert GroupPresentation(1, ()).order() is None
    assert GroupPresentation(0, ()).is_trivial


def test_coker_ker_examples():
    group, ker = coker_ker([[2, 0], [0, 3]])
    assert group.text() == "Z/6" and ker == 0
    group, ker = coker_ker([[0, 0], [0, 0]])
    assert group.text() == "Z^2" and ker == 2
    group, ker = coker_ker([[1, 0], [0, 0]])
    assert group.text() == "Z" and ker == 1


def test_lattice_solve():
    assert lattice_solve([[2]], [[4], [1]]) == [[2], None]
    assert lattice_solve([[2]], []) == []
    sol, none = lattice_solve([[2, 1], [0, 3]], [[5, 3], [0, 1]])
    assert sol is not None and none is None
    assert [2 * sol[0] + sol[1], 3 * sol[1]] == [5, 3]
    with pytest.raises(ValueError):
        lattice_solve([[2, 1], [0, 3]], [[5, 3], [1]])


# -- graph invariants ------------------------------------------------------------------


def test_vertex_matrix(two_cycle):
    verts, a = vertex_matrix(two_cycle)
    assert verts == ["v1", "v2"]
    assert a == [[0, 1], [1, 0]]


def test_golden_bouquets():
    for n in range(2, 7):
        result = graph_k_theory(bouquet(n))
        assert result.k1.is_trivial
        if n == 2:
            assert result.k0.is_trivial
        else:
            assert result.k0.text() == "Z/%d" % (n - 1)
        assert result.report.passed, result.report.lines()


def test_golden_loop():
    result = graph_k_theory(cycle(1))
    assert result.k0.text() == "Z"
    assert result.k1.text() == "Z"


def test_two_cycle_matches_classic(two_cycle):
    result = graph_k_theory(two_cycle)
    verts, a = vertex_matrix(two_cycle)
    n = len(verts)
    classic = [[a[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    group, ker = coker_ker(classic)
    assert result.k0.text() == group.text()
    assert result.k1.text() == GroupPresentation(ker, ()).text()


def test_rejects_singular_graphs(single_edge):
    with pytest.raises(ValueError):
        graph_k_theory(single_edge)
    borderline = Graph(["a", "b"], [("x", "a", "b"), ("y", "b", "b")])
    with pytest.raises(ValueError):
        graph_k_theory(borderline)       # vertex a receives nothing


def test_paschke_pinned():
    r = paschke_sequence([[6]], True)
    assert r.k0.text() == "Z/5" and r.k1.text() == "0"
    r = paschke_sequence([[2, 0], [0, 3]], True)
    assert r.k0.text() == "Z/2" and r.k1.text() == "0"
    assert "K_0(crossed)" in r.diagram and "K_1(crossed)" in r.diagram


def test_paschke_without_af_flag():
    r = paschke_sequence([[6]], False)
    assert r.k0 is None and r.k1 is None
    assert r.diagram.splitlines()[0].endswith("K_0(crossed) = ?")
    assert r.diagram.splitlines()[-1].strip() == (
        "(corners not determined without the core K_1 input)")


def test_paschke_agrees_with_bouquet():
    for n, N in ((2, 1), (2, 2), (3, 2)):
        r = paschke_sequence([[n * N]], True)
        g = graph_k_theory(bouquet(n * N))
        assert r.k0.text() == g.k0.text()
        assert r.k1.text() == g.k1.text()
