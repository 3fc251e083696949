"""Frame coordinates for the transfer bimodule, the isometry U, and the
conjugation that turns compact operators into the balanced endomorphism."""

import gc
import sys
import threading
import weakref
from fractions import Fraction
from itertools import product

import pytest

from conftest import two_vertex_graphs
from corealg import hilbert_module

from corealg.core_endo import CoreEndo
from corealg.exel_path import DepthFunction
from corealg.graph import bouquet, load_graph
from corealg.hilbert_module import (
    CompactOp,
    GraphFrameSystem,
    ModuleElement,
    TruncationDepthError,
    UhfFrameSystem,
    U_map,
    U_star_map,
    beta_crosscheck,
    build_U,
    canonical_frame,
    compact_to_star,
    conj_beta,
    frame_rep_psi,
    graph_frame_system,
    gram_psd_check,
    left_act,
    reconstruct_check,
    tensor,
    u_element,
    u_isometry_report,
)
from corealg.scalar import ONE, Radical
from corealg.star_algebra import matrix_unit
from corealg.uhf_cuntz import TensorElement, UhfSystem

G3_TEXT = "V a; V b\nE x a a; E y a b; E z b a\n"   # out-degrees 2 and 1


@pytest.fixture
def gsys(o2):
    return GraphFrameSystem(o2)


@pytest.fixture
def usys():
    return UhfFrameSystem(UhfSystem(2, 1))


# -- coefficient functions -------------------------------------------------------


def test_radical_func_algebra(o2):
    f = DepthFunction(o2, 1, {o2.path(["e1"]): ONE})
    g = DepthFunction(o2, 1, {o2.path(["e2"]): ONE})
    one = DepthFunction.constant(o2, ONE)
    assert (f + g).equal(one)
    assert (f * f).equal(f)
    assert (f * g).is_zero()
    assert (f * Radical.sqrt(2)).value(o2.path(["e1", "e1"])) == Radical.sqrt(2)
    with pytest.raises(ValueError):
        f.value(o2.empty_path("v"))


def test_a_text_sorts_by_path_text():
    g = bouquet(10)
    gsys = GraphFrameSystem(g)
    text = gsys.a_text(DepthFunction.constant(g, ONE, depth=1))
    assert text.splitlines()[:3] == ["F e1 1", "F e10 1", "F e2 1"]
    assert gsys.a_text(gsys.zero()) == "0\n"
    assert gsys.a_text(gsys.frame_rep("e3")) == "F e3 1*sqrt(10)\n"


def test_frame_system_requires_path_space(single_edge):
    with pytest.raises(ValueError):
        GraphFrameSystem(single_edge)


# -- frames ------------------------------------------------------------------------


def test_canonical_frame_graph(gsys):
    report = canonical_frame(gsys)
    assert report.passed, report.lines()
    assert set(gsys.indices) == {"e1", "e2"}
    # Normalized edge indicators have inner products delta_ef * chi_{Z(s(e))}.
    g11 = gsys.act1("e1", gsys.unit(), "e1")
    assert g11.equal(DepthFunction(gsys.graph, 0, {gsys.graph.empty_path("v"): ONE}))
    assert gsys.act1("e1", gsys.unit(), "e2").is_zero()


def test_canonical_frame_uhf(usys):
    report = canonical_frame(usys)
    assert report.passed, report.lines()
    assert set(usys.indices) == {(1, 1), (2, 1)}


@pytest.mark.parametrize("make", [lambda: GraphFrameSystem(bouquet(2)),
                                  lambda: UhfFrameSystem(UhfSystem(2, 1))],
                         ids=["O_2", "uhf-2-1"])
def test_canonical_frame_reports_a_wrong_gram_entry(monkeypatch, make):
    system = make()
    act1 = system.act1

    def planted(i, b, j):
        # the unit off the diagonal, where <F_i, F_j> is zero
        return system.unit() if i != j else act1(i, b, j)

    monkeypatch.setattr(system, "act1", planted)
    report = canonical_frame(system)
    i, j = system.indices[:2]
    assert not report.passed
    assert "gram(%s, %s) = %s" % (i, j, system.a_text(system.unit())) in report.failures
    assert len(report.failures) >= len(system.indices) * (len(system.indices) - 1)


def test_reconstruction_from_algebra(gsys, usys):
    g = gsys.graph
    for a in (gsys.frame_rep("e1"),):
        m = ModuleElement.from_algebra(gsys, a)
        report = reconstruct_check(m)
        assert report.passed, report.lines()
    b = TensorElement.unit_entry(2, (1,), (2,))
    m = ModuleElement.from_algebra(usys, b)
    report = reconstruct_check(m)
    assert report.passed, report.lines()


def test_reconstruction_detects_tampering(gsys):
    a = gsys.frame_rep("e1")
    m = ModuleElement.from_algebra(gsys, a)
    coords = dict(m.coords)
    coords[("e2",)] = gsys.unit()  # inconsistent with the recorded source
    tampered = ModuleElement(gsys, 1, coords, source=a)
    report = reconstruct_check(tampered)
    assert not report.passed


# -- module arithmetic ---------------------------------------------------------------


def test_inner_products_and_pairing(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    n = ModuleElement.basis_word(gsys, ("e2",))
    assert m.inner(n).is_zero()
    assert not m.inner(m).is_zero()
    assert not gsys.act1("e1", gsys.unit(), "e1").is_zero()
    assert not (m - m).coords


def test_right_action_compatibility(gsys):
    g = gsys.graph
    m = ModuleElement.basis_word(gsys, ("e1", "e2"))
    b = DepthFunction(g, 1, {g.path(["e2"]): ONE})
    mb = m.right_mul(b)
    # <m b, n> = b* <m, n>; with real coefficients b* = b.
    n = ModuleElement.basis_word(gsys, ("e1", "e2"))
    assert mb.inner(n).equal(b * m.inner(n))


def test_tensor_degree_adds(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    n = ModuleElement.basis_word(gsys, ("e2", "e1"))
    t = tensor(m, n)
    assert t.degree == 3
    assert not t.is_null()


def test_canonical_coordinates_decide_equality(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    z = ModuleElement.zero(gsys, 1)
    assert not m.equal(z)
    assert m.equal(m + z)
    assert (m - m).is_null()


# -- the isometry U -------------------------------------------------------------------


def test_u_element_coordinates(gsys):
    u = u_element(gsys)
    # q(alpha(1)) has coordinate 2^{-1/2} chi_{Z(s(e))} in every slot on O_2.
    for e in ("e1", "e2"):
        val = u.coords[(e,)]
        blocks = list(val.values.values())
        assert blocks and all(c == Radical.inv_sqrt(2) for c in blocks)


def test_build_u_graph_and_uhf(gsys, usys):
    for system in (gsys, usys):
        for depth in (1, 2):
            _, report = build_U(system, depth)
            assert report.passed, report.lines()


def test_build_u_depth_zero_rejected(gsys):
    with pytest.raises(TruncationDepthError):
        build_U(gsys, 0)


def test_u_isometry_identities(gsys, usys):
    for system in (gsys, usys):
        for degree in (1, 2):
            report = u_isometry_report(system, degree)
            assert report.passed, report.lines()


def test_u_star_undoes_u(gsys):
    m = ModuleElement.basis_word(gsys, ("e2", "e1"))
    assert U_star_map(gsys, U_map(gsys, m)).equal(m)


# -- compact operators and the endomorphism --------------------------------------------


def test_theta_composition_rule(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    n = ModuleElement.basis_word(gsys, ("e2",))
    t_mn = CompactOp.from_theta(m, n)
    t_nm = CompactOp.from_theta(n, m)
    assert t_mn.adjoint().equal(t_nm)
    # theta_{m,n} theta_{n,m} = theta_{m <n,n>, m} = theta_{m', m}.
    comp = t_mn.compose(t_nm)
    expected = CompactOp.from_theta(m.right_mul(n.inner(n)), m)
    assert comp.equal(expected)
    assert comp.apply(n).is_null()


_FRAME_SYSTEMS = {
    "graph-O2": lambda: GraphFrameSystem(bouquet(2)),
    "graph-G3": lambda: GraphFrameSystem(load_graph(G3_TEXT)),
    "tensor-2-1": lambda: UhfFrameSystem(UhfSystem(2, 1)),
    "tensor-3-2": lambda: UhfFrameSystem(UhfSystem(3, 2)),
}


def _sample_elements(system, degree: int) -> list:
    """The first and last nonzero basis words, and the first and last nonzero
    q-images of depth-1 basis elements (tensored with a basis word at degree 2)."""
    def ends(elements):
        nonzero = [m for m in elements if not m.is_null()]
        return [nonzero[0], nonzero[-1]]

    words = product(system.indices, repeat=degree)
    qs = [ModuleElement.from_algebra(system, a) for a in system.basis(1)]
    if degree == 2:
        qs = [tensor(q, ModuleElement.basis_word(system, (i,)))
              for q in qs for i in system.indices]
    return ends(ModuleElement.basis_word(system, w) for w in words) + ends(qs)


def _gram(system, w: tuple, v: tuple):
    """<F_w, F_v> straight from the frame system, one letter at a time."""
    b = system.unit()
    for i, j in zip(w, v):
        b = system.act1(i, b, j)
    return b


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(_FRAME_SYSTEMS))
def test_gram_projection_identities(name, degree):
    system = _FRAME_SYSTEMS[name]()
    words = list(product(system.indices, repeat=degree))
    gram = {(w, v): _gram(system, w, v) for w in words for v in words}
    for (w, v), g in gram.items():
        fw, fv = ModuleElement.basis_word(system, w), ModuleElement.basis_word(system, v)
        assert fw.inner(fv).equal(g)
    # the Gram matrix is a projection, so on the module it acts as the identity
    assert (CompactOp(system, degree, gram)
            .equal(CompactOp(system, degree, {(w, w): system.unit() for w in words})))

    # b is not self-adjoint on the tensor systems
    b = system.basis(1)[1]
    m1, m2, n1, n2 = _sample_elements(system, degree)
    elements = [m1, m2, n1, n2, m2.right_mul(b)]
    for m in elements:
        for n in elements:
            # theta_{m,n} x = m <n, x>, and <m, n>* = <n, m>
            theta = CompactOp.from_theta(m, n)
            for x in elements:
                assert theta.apply(x).equal(m.right_mul(n.inner(x)))
            assert m.inner(n).adjoint().equal(n.inner(m))

    # an operator with several columns, equal to itself written another way
    t1, t2 = CompactOp.from_theta(m1, n2), CompactOp.from_theta(m2, n1 + n2)
    total = t1.add(t2)
    assert len({v for _, v in total.entries}) > 1
    assert total.equal(t2.add(t1))
    # over functions theta_{m,n} can vanish when m and n have disjoint supports
    assert total.equal(t1) is t2.is_null() and total.equal(t2) is t1.is_null()
    assert (CompactOp.from_theta(m2.right_mul(b), n1)
            .equal(CompactOp.from_theta(m2, n1.right_mul(b.adjoint()))))

    # the left action on degree 0 is multiplication
    c = system.frame_rep(system.indices[-1])
    got = left_act(system, b, ModuleElement(system, 0, {(): c}))
    assert got.degree == 0 and len(got.coords) == len(ModuleElement(system, 0, {(): b * c}).coords)
    assert got.coords.get((), system.zero()).equal(b * c)
    assert not left_act(system, b, ModuleElement.zero(system, 0)).coords


def test_conj_beta_matches_endo(o2):
    gsys = GraphFrameSystem(o2)
    m = ModuleElement.basis_word(gsys, ("e1",))
    n = ModuleElement.basis_word(gsys, ("e2",))
    T = CompactOp.from_theta(m, n)
    out = conj_beta(T)
    assert out.degree == 2
    mu = o2.path(["e1"])
    nu = o2.path(["e2"])
    word = compact_to_star(out)
    expected = CoreEndo(o2).beta(matrix_unit(o2, mu, nu))
    assert word.equal(expected)


# -- conj_beta against the loop over every column --------------------------------------


def _all_columns_conj_beta(T):
    """The conjugation loop that computes every column U T U*(F_v)."""
    sys = T.system
    entries = {}
    for v in product(sys.indices, repeat=T.degree + 1):
        col = U_map(sys, T.apply(U_star_map(sys, ModuleElement.basis_word(sys, v))))
        for w, c in col.coords.items():
            entries[(w, v)] = c
    return CompactOp(sys, T.degree + 1, entries)


def _operators(system, degree: int, step: int = 1):
    """Rank-one thetas of basis words and of a scaled word, their sums,
    adjoints and products, on every step-th pair of words."""
    words = list(product(system.indices, repeat=degree))
    pairs = [(w, v) for w in words for v in words][::step]
    coeff = Radical.from_rational(Fraction(-3, 2)) + Radical.sqrt(2)
    thetas = [CompactOp.from_theta(ModuleElement.basis_word(system, w),
                                   ModuleElement.basis_word(system, v)) for w, v in pairs]
    ops = list(thetas)
    for (w, v), t, s in zip(pairs, thetas, thetas[1:] + thetas[:1]):
        ops.append(t.add(s))
        ops.append(t.adjoint())
        ops.append(t.compose(s.adjoint()))
        ops.append(CompactOp.from_theta(ModuleElement.basis_word(system, w).scale(coeff),
                                        ModuleElement.basis_word(system, v)))
    return ops


def _assert_same_conj_beta(ops):
    for T in ops:
        got, want = conj_beta(T), _all_columns_conj_beta(T)
        assert list(got.entries) == list(want.entries)
        assert all(c.equal(want.entries[key]) for key, c in got.entries.items())


def test_conj_beta_matches_all_columns_on_a04_graphs():
    for _, g in two_vertex_graphs(4):
        _assert_same_conj_beta(_operators(GraphFrameSystem(g), 1))


@pytest.mark.parametrize("make, degree, step", [
    (lambda: GraphFrameSystem(bouquet(3)), 2, 1),
    (lambda: GraphFrameSystem(load_graph(G3_TEXT)), 2, 1),
    (lambda: UhfFrameSystem(UhfSystem(2, 1)), 1, 1),
    (lambda: UhfFrameSystem(UhfSystem(3, 2)), 1, 3),
], ids=["O_3", "G3", "uhf-2-1", "uhf-3-2"])
def test_conj_beta_matches_all_columns(make, degree, step):
    _assert_same_conj_beta(_operators(make(), degree, step))


def test_conj_beta_with_a_warm_memo_calls_no_u_star(monkeypatch):
    system = GraphFrameSystem(load_graph(G3_TEXT))
    ops = _operators(system, 2, 5)
    conj_beta(ops[0])
    calls = _count_calls(monkeypatch, hilbert_module, "U_star_map")
    images = [conj_beta(T) for T in ops]
    assert calls == []
    assert any(len(im.entries) > 1 for im in images)


def test_beta_crosscheck_levels(o2, two_cycle):
    for g in (o2, two_cycle):
        for lvl in (1, 2):
            for mu in g.paths(lvl):
                for nu in g.paths(lvl):
                    report = beta_crosscheck(g, mu, nu)
                    assert report.passed, report.lines()


def test_beta_crosscheck_rejects_unbalanced(o2):
    with pytest.raises(ValueError):
        beta_crosscheck(o2, o2.path(["e1"]), o2.path(["e1", "e2"]))


# -- per-system memos -------------------------------------------------------------------

def _count_calls(monkeypatch, obj, name: str) -> list:
    """Wrap obj.name for the test; the list gets each call's first argument."""
    calls = []
    inner = getattr(obj, name)

    def wrapper(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(obj, name, wrapper)
    return calls


def _module_image(system, mu: tuple, nu: tuple) -> str:
    theta = CompactOp.from_theta(ModuleElement.basis_word(system, mu),
                                 ModuleElement.basis_word(system, nu))
    return compact_to_star(conj_beta(theta)).text()


class _DoubledGramSystem(GraphFrameSystem):
    """A broken frame: every <F_e, b F_f> is twice what it should be, so U at
    degree 2 does not restrict to U at degree 1."""

    def act1(self, e, b, f):
        return super().act1(e, b, f) * Radical.from_rational(2)


@pytest.mark.parametrize("make", [lambda: GraphFrameSystem(bouquet(2)),
                                  lambda: UhfFrameSystem(UhfSystem(2, 1))])
def test_u_data_computed_once_per_system(monkeypatch, make):
    system = make()
    alpha_calls = _count_calls(monkeypatch, system, "alpha")
    l_calls = _count_calls(monkeypatch, system, "L")
    m = ModuleElement.basis_word(system, (system.indices[0],))
    for _ in range(3):
        assert U_star_map(system, U_map(system, m)).equal(m)
    assert u_element(system) is u_element(system)
    assert len(alpha_calls) == 1
    assert len(l_calls) == len(system.indices)
    with pytest.raises(TypeError):
        u_element(system).coords[(system.indices[0],)] = system.zero()


def test_restriction_check_runs_once_per_system_and_degree(monkeypatch):
    runs = _count_calls(monkeypatch, hilbert_module, "_check_restriction")
    systems = (GraphFrameSystem(bouquet(2)), GraphFrameSystem(bouquet(2)))
    for system in systems:
        for word in (("e1",), ("e2",), ("e1", "e2"), ("e2", "e2"), ("e1",)):
            _module_image(system, word, word)
    assert runs == [systems[0], systems[0], systems[1], systems[1]]


def test_failed_restriction_check_is_not_remembered(monkeypatch):
    system = _DoubledGramSystem(bouquet(2))
    runs = _count_calls(monkeypatch, hilbert_module, "_check_restriction")
    for _ in range(3):
        with pytest.raises(RuntimeError, match="does not restrict"):
            _module_image(system, ("e1",), ("e1",))
    assert len(runs) == 3


def test_graphs_with_the_same_text_get_separate_systems():
    g1, g2 = bouquet(2), bouquet(2)
    reports = [beta_crosscheck(g, g.path(["e1", "e2"]), g.path(["e2", "e2"]))
               for g in (g1, g2)]
    assert graph_frame_system(g1) is graph_frame_system(g1)
    assert graph_frame_system(g1) is not graph_frame_system(g2)
    assert graph_frame_system(g2).graph is g2
    assert reports[0].passed and reports[0].lines() == reports[1].lines()
    fresh = _module_image(GraphFrameSystem(bouquet(2)), ("e1", "e2"), ("e2", "e2"))
    for g in (g1, g2):
        assert _module_image(graph_frame_system(g), ("e1", "e2"), ("e2", "e2")) == fresh


def test_dropped_graph_is_collected():
    g = bouquet(2)
    assert beta_crosscheck(g, g.path(["e1"]), g.path(["e2"])).passed
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_memo_fill_under_threads(monkeypatch):
    expected = _module_image(GraphFrameSystem(bouquet(2)), ("e1",), ("e2",))
    system = GraphFrameSystem(bouquet(2))
    alpha_calls = _count_calls(monkeypatch, system, "alpha")
    runs = _count_calls(monkeypatch, hilbert_module, "_check_restriction")
    results, barrier = [], threading.Barrier(8)

    def work():
        barrier.wait(timeout=10)
        results.append((u_element(system), _module_image(system, ("e1",), ("e2",))))

    threads = [threading.Thread(target=work) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert len({id(u) for u, _ in results}) == 1
    assert all(text == expected for _, text in results)
    assert len(alpha_calls) == 1 and runs == [system]


def test_compact_to_star_uhf_rejected(usys):
    m = ModuleElement.basis_word(usys, ((1, 1),))
    with pytest.raises(ValueError):
        compact_to_star(CompactOp.from_theta(m, m))


# -- representations -------------------------------------------------------------------


def test_frame_rep_psi_graph(o3):
    from corealg.star_algebra import edge_isometry

    gsys = GraphFrameSystem(o3)
    family = {e: edge_isometry(o3, e) for e in o3.edge_names}

    def pi(b):
        # b is a DepthFunction of some depth; realize it as a core element.
        from corealg.star_algebra import StarElement
        out = StarElement.zero(o3)
        for p, c in b.values.items():
            out = out + StarElement.word(o3, c, p, p)
        return out

    psi, report = frame_rep_psi(gsys, family, pi)
    assert report.passed, report.lines()
    m = ModuleElement.basis_word(gsys, ("e2",))
    assert psi(m).equal(family["e2"])


def test_frame_rep_psi_detects_bad_family(o2):
    from corealg.star_algebra import StarElement, edge_isometry

    gsys = GraphFrameSystem(o2)
    t1 = edge_isometry(o2, "e1")
    family = {"e1": t1, "e2": t1}  # ranges overlap, not a Cuntz family

    def pi(b):
        out = StarElement.zero(o2)
        for p, c in b.values.items():
            out = out + StarElement.word(o2, c, p, p)
        return out

    psi, report = frame_rep_psi(gsys, family, pi)
    assert not report.passed


def test_gram_psd(gsys, usys):
    elems = [ModuleElement.basis_word(gsys, ("e1",)),
             ModuleElement.basis_word(gsys, ("e2",)),
             u_element(gsys)]
    report = gram_psd_check(gsys, elems)
    assert report.passed, report.lines()
    uelems = [ModuleElement.basis_word(usys, ((1, 1),)),
              ModuleElement.basis_word(usys, ((2, 1),))]
    report = gram_psd_check(usys, uelems)
    assert report.passed, report.lines()
