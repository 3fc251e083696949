"""Frame coordinates for the transfer bimodule, the isometry U, and the
conjugation that turns compact operators into the balanced endomorphism."""

import gc
import pickle
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
from corealg.ktheory import graph_k_theory
from corealg.scalar import ONE, Radical
from corealg.star_algebra import matrix_unit
from corealg.uhf_cuntz import TensorElement, UhfSystem
from corealg.util import Memo, accumulate, add_maps

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
    assert not (m + m.right_mul(Radical.from_rational(-1))).coords


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
    assert t.canonical_coords()


def test_canonical_coordinates_decide_equality(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    z = ModuleElement(gsys, 1)
    assert not m.equal(z)
    assert m.equal(m + z)
    assert not (m + m.right_mul(Radical.from_rational(-1))).canonical_coords()


# -- the isometry U -------------------------------------------------------------------


def test_u_element_coordinates(gsys):
    u = u_element(gsys)
    # q(alpha(1)) has coordinate 2^{-1/2} chi_{Z(s(e))} in every slot on O_2.
    for e in ("e1", "e2"):
        val = u.coords[(e,)]
        blocks = list(val.terms.values())
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


def add(s: CompactOp, t: CompactOp) -> CompactOp:
    """The sum s + t of two compact operators of one degree."""
    return CompactOp(s.system, s.degree, add_maps(s.entries, t.entries))


def adjoint(t: CompactOp) -> CompactOp:
    return CompactOp(t.system, t.degree,
                     {(v, w): c.adjoint() for (w, v), c in t.entries.items()})


def canonical_entries(t: CompactOp) -> dict:
    """Left-multiply by the Gram matrix; equal results mean equal operators."""
    sys = t.system
    columns: dict[tuple, dict] = {}
    for (w, v), c in t.entries.items():
        columns.setdefault(v, {})[w] = c
    return {(u, v): d for v, col in columns.items()
            for u, d in hilbert_module._act(sys, sys.unit(), col).items()}


def equal(s: CompactOp, t: CompactOp) -> bool:
    return (t.degree == s.degree
            and hilbert_module._same(canonical_entries(s), canonical_entries(t)))


def apply(t: CompactOp, m: ModuleElement) -> ModuleElement:
    """t applied to the coordinates of m: the entry c at (w, v) sends the
    coordinate d at v to F_w c d."""
    out: dict[tuple, object] = {}
    for (w, v), c in t.entries.items():
        d = m.coords.get(v)
        if d is not None:
            accumulate(out, w, c * d)
    return ModuleElement(t.system, t.degree, out)


def compose(s: CompactOp, t: CompactOp) -> CompactOp:
    """The product s t of two compact operators of one degree."""
    if t.degree != s.degree:
        raise ValueError("degree mismatch")
    by_row: dict[tuple, list] = {}
    for (u, v), c in t.entries.items():
        by_row.setdefault(u, []).append((v, c))
    out: dict[tuple, object] = {}
    for (w, u), c in s.entries.items():
        for v, d in by_row.get(u, ()):
            accumulate(out, (w, v), c * d)
    return CompactOp(s.system, s.degree, out)


def test_theta_composition_rule(gsys):
    m = ModuleElement.basis_word(gsys, ("e1",))
    n = ModuleElement.basis_word(gsys, ("e2",))
    t_mn = CompactOp.from_theta(m, n)
    t_nm = CompactOp.from_theta(n, m)
    assert equal(adjoint(t_mn), t_nm)
    # theta_{m,n} theta_{n,m} = theta_{m <n,n>, m} = theta_{m', m}.
    comp = compose(t_mn, t_nm)
    expected = CompactOp.from_theta(m.right_mul(n.inner(n)), m)
    assert equal(comp, expected)
    assert not apply(comp, n).canonical_coords()


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
        nonzero = [m for m in elements if m.canonical_coords()]
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
    assert equal(CompactOp(system, degree, gram),
                 CompactOp(system, degree, {(w, w): system.unit() for w in words}))

    # b is not self-adjoint on the tensor systems
    b = system.basis(1)[1]
    m1, m2, n1, n2 = _sample_elements(system, degree)
    elements = [m1, m2, n1, n2, m2.right_mul(b)]
    for m in elements:
        for n in elements:
            # theta_{m,n} x = m <n, x>, and <m, n>* = <n, m>
            theta = CompactOp.from_theta(m, n)
            for x in elements:
                assert apply(theta, x).equal(m.right_mul(n.inner(x)))
            assert m.inner(n).adjoint().equal(n.inner(m))

    # an operator with several columns, equal to itself written another way
    t1, t2 = CompactOp.from_theta(m1, n2), CompactOp.from_theta(m2, n1 + n2)
    total = add(t1, t2)
    assert len({v for _, v in total.entries}) > 1
    assert equal(total, add(t2, t1))
    # over functions theta_{m,n} can vanish when m and n have disjoint supports
    assert equal(total, t1) is (not canonical_entries(t2))
    assert equal(total, t2) is (not canonical_entries(t1))
    assert equal(CompactOp.from_theta(m2.right_mul(b), n1),
                 CompactOp.from_theta(m2, n1.right_mul(b.adjoint())))

    # the left action on degree 0 is multiplication
    c = system.frame_rep(system.indices[-1])
    got = left_act(system, b, ModuleElement(system, 0, {(): c}))
    assert got.degree == 0 and len(got.coords) == len(ModuleElement(system, 0, {(): b * c}).coords)
    assert got.coords.get((), system.zero()).equal(b * c)
    assert not left_act(system, b, ModuleElement(system, 0)).coords


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
        col = U_map(sys, apply(T, U_star_map(sys, ModuleElement.basis_word(sys, v))))
        for w, c in col.coords.items():
            entries[(w, v)] = c
    return CompactOp(sys, T.degree + 1, entries)


def _operators(system, degree: int, step: int = 1):
    """Rank-one thetas of basis words and of a word times a coefficient
    (not self-adjoint on the tensor systems), their sums, adjoints and
    products, on every step-th pair of words."""
    words = list(product(system.indices, repeat=degree))
    pairs = [(w, v) for w in words for v in words][::step]
    basis = system.basis(1)
    coeff = basis[min(1, len(basis) - 1)] * (Radical.from_rational(Fraction(-3, 2))
                                             + Radical.sqrt(2))
    thetas = [CompactOp.from_theta(ModuleElement.basis_word(system, w),
                                   ModuleElement.basis_word(system, v)) for w, v in pairs]
    ops = list(thetas)
    for (w, v), t, s in zip(pairs, thetas, thetas[1:] + thetas[:1]):
        ops.append(add(t, s))
        ops.append(adjoint(t))
        ops.append(compose(t, adjoint(s)))
        ops.append(CompactOp.from_theta(ModuleElement.basis_word(system, w).right_mul(coeff),
                                        ModuleElement.basis_word(system, v)))
    return ops


def _assert_same_conj_beta(ops):
    """conj_beta and the all-columns loop give the same operator: the same
    image of every basis word, and on a graph the same dictionary image."""
    for T in ops:
        got, want = conj_beta(T), _all_columns_conj_beta(T)
        sys = T.system
        for v in product(sys.indices, repeat=T.degree + 1):
            f_v = ModuleElement.basis_word(sys, v)
            assert apply(got, f_v).equal(apply(want, f_v))
        if sys.kind == "graph":
            assert compact_to_star(got).equal(compact_to_star(want))


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


@pytest.mark.parametrize("make, degree, step", [
    (lambda: GraphFrameSystem(load_graph(G3_TEXT)), 2, 5),
    (lambda: UhfFrameSystem(UhfSystem(3, 2)), 1, 7),
], ids=["G3", "uhf-3-2"])
def test_conj_beta_calls_u_twice_per_entry_and_u_star_never(monkeypatch, make, degree, step):
    # U(F_w c) and U(F_v) for each entry, with the memo cold (the first
    # operator runs the restriction check, whose own U calls are not counted)
    # and warm (every later one)
    system = make()
    ops = _operators(system, degree, step)
    assert any(len(T.entries) > 1 for T in ops)
    checks, checking = [], []
    check = hilbert_module._check_restriction

    def counted_check(sys, deg):
        checks.append(deg)
        checking.append(deg)
        try:
            return check(sys, deg)
        finally:
            checking.pop()

    u_map, u_calls = hilbert_module.U_map, []

    def counted_u(sys, m):
        if not checking:
            u_calls.append(m)
        return u_map(sys, m)

    monkeypatch.setattr(hilbert_module, "_check_restriction", counted_check)
    monkeypatch.setattr(hilbert_module, "U_map", counted_u)
    u_star_calls = _count_calls(monkeypatch, hilbert_module, "U_star_map")
    for T in ops:
        u_calls.clear()
        conj_beta(T)
        assert len(u_calls) == 2 * len(T.entries)
    assert checks == [degree] and u_star_calls == []


def test_beta_crosscheck_builds_one_core_endo_per_graph(monkeypatch):
    g = load_graph(G3_TEXT)
    inits = _count_calls(monkeypatch, CoreEndo, "__init__")
    paths = g.paths(2)
    for mu in paths:
        for nu in paths:
            assert beta_crosscheck(g, mu, nu).passed
    assert len(paths) > 1 and len(inits) == 1



def test_k_theory_and_crosschecks_share_one_core_endo(monkeypatch):
    g = load_graph(G3_TEXT)
    inits = _count_calls(monkeypatch, CoreEndo, "__init__")
    assert graph_k_theory(g).report.passed
    for mu in g.paths(1):
        for nu in g.paths(1):
            assert beta_crosscheck(g, mu, nu).passed
    assert len(inits) == 1

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


def _all_indices_left_act_word(system, b, w: tuple) -> dict:
    """b . F_w with act1 read at every frame index, partner or not."""
    if not w:
        return {(): b}
    out = {}
    for i in system.indices:
        b1 = system.act1(i, b, w[0])
        if b1.is_zero():
            continue
        for v, d in _all_indices_left_act_word(system, b1, w[1:]).items():
            accumulate(out, (i,) + v, d)
    return out


@pytest.mark.parametrize("make", [lambda: GraphFrameSystem(load_graph(G3_TEXT)),
                                  lambda: UhfFrameSystem(UhfSystem(3, 2))])
def test_left_action_reads_act1_only_on_partners(monkeypatch, make):
    system = make()
    coefficients = [system.unit()] + system.basis(1) + system.basis(2)[:5]
    # a non-partner entry <F_i, b F_f> is zero for every b
    for f in system.indices:
        for i in system.indices:
            if i not in system.partners[f]:
                assert all(system.act1(i, b, f).is_zero() for b in coefficients)
    words = [w for d in (1, 2) for w in product(system.indices, repeat=d)]
    expected = {(b_pos, w): _all_indices_left_act_word(system, b, w)
                for b_pos, b in enumerate(coefficients) for w in words}
    calls = []
    act1 = system.act1

    def counted(i, b, f):
        calls.append((i, f))
        return act1(i, b, f)

    monkeypatch.setattr(system, "act1", counted)
    for (b_pos, w), want in expected.items():
        got = hilbert_module._left_act_word(system, coefficients[b_pos], w)
        # the same keys, in the same order, with equal entries
        assert list(got) == list(want) and all(got[v].equal(want[v]) for v in got)
    assert calls and all(i in system.partners[f] for i, f in calls)
    if system.kind == "graph":
        assert all(i == f for i, f in calls)
    else:
        assert all(i[1] == f[1] for i, f in calls)
        assert [i for i in system.indices if i in system.partners[(1, 2)]] == \
            list(system.partners[(1, 2)])


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


def test_memo_computes_once_and_pickles_empty(monkeypatch):
    memo, runs = Memo(), []

    def inner():
        runs.append("inner")
        return 2

    def outer():
        # one value's computation fills another key of the same memo
        runs.append("outer")
        return memo.get("inner", inner) + 1

    def broken():
        runs.append("broken")
        raise ArithmeticError("no value")

    assert [memo.get("outer", outer) for _ in range(3)] == [3, 3, 3]
    assert memo.get("inner", inner) == 2 and runs == ["outer", "inner"]
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            memo.get("broken", broken)
    assert runs[2:] == ["broken", "broken"]
    assert memo.get("broken", lambda: 5) == 5

    system = GraphFrameSystem(bouquet(2))
    alpha_calls = _count_calls(monkeypatch, system, "alpha")
    checks = _count_calls(monkeypatch, hilbert_module, "_check_restriction")
    images = {_module_image(system, ("e1",), ("e2",)) for _ in range(3)}
    assert u_element(system) is u_element(system)
    assert len(images) == 1 and len(alpha_calls) == 1 and checks == [system]

    # the owner's values include read-only views, which pickle cannot copy
    owner = GraphFrameSystem(bouquet(2))
    image = _module_image(owner, ("e1",), ("e2",))
    assert owner.memo._values
    copy = pickle.loads(pickle.dumps(owner))
    assert copy.memo._values == {}
    assert _module_image(copy, ("e1",), ("e2",)) == image


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
        for p, c in b.terms.items():
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
        for p, c in b.terms.items():
            out = out + StarElement.word(o2, c, p, p)
        return out

    psi, report = frame_rep_psi(gsys, family, pi)
    assert not report.passed


def test_frame_rep_psi_forms_each_generator_image_once():
    # (3, 2): 10 generators and 6 indices; pi(b) is formed once per
    # generator and psi(m) once per checked element
    from corealg.uhf_cuntz import canonical_cuntz_family, pi_T

    sys_ = UhfSystem(3, 2)
    _, family = canonical_cuntz_family(sys_)
    calls = []

    def pi(b):
        calls.append(b)
        return pi_T(sys_, family, b)

    psi, report = frame_rep_psi(UhfFrameSystem(sys_), family, pi)
    assert report.passed, report.lines()
    assert len(calls) == 578


def test_frame_rep_psi_forms_each_element_image_once(monkeypatch):
    # (2, 2): 5 generators, 4 indices and 6 elements.  Each psi(m) costs one
    # canonical_coords, and psi(F_i) and the psi of every element are formed
    # once for the three checks that read them
    from corealg.uhf_cuntz import canonical_cuntz_family, pi_T

    sys_ = UhfSystem(2, 2)
    _, family = canonical_cuntz_family(sys_)
    calls = []
    canonical_coords = ModuleElement.canonical_coords

    def counted(self):
        calls.append(self)
        return canonical_coords(self)

    monkeypatch.setattr(ModuleElement, "canonical_coords", counted)
    psi, report = frame_rep_psi(UhfFrameSystem(sys_), family,
                                lambda b: pi_T(sys_, family, b))
    assert report.passed, report.lines()
    assert report.checks == 186
    assert len(calls) == 122


def test_gram_psd(gsys, usys):
    elems = [ModuleElement.basis_word(gsys, ("e1",)),
             ModuleElement.basis_word(gsys, ("e2",)),
             u_element(gsys)]
    report = gram_psd_check(gsys, elems)
    assert report.passed and report.checks == 9, report.lines()
    uelems = [ModuleElement.basis_word(usys, ((1, 1),)),
              ModuleElement.basis_word(usys, ((2, 1),))]
    report = gram_psd_check(usys, uelems)
    assert report.passed and report.checks == 4, report.lines()


@pytest.mark.parametrize("text, checks, failures", [
    ("V v\nE e1 v v\nE e2 v v\n", 16, 8),
    (G3_TEXT, 36, 12),
])
def test_gram_positivity_rejects_a_doubled_gram(text, checks, failures):
    # the element set of module verify-frames; with every <F_e, b F_f>
    # doubled the Gram matrix is 2P, which a numeric eigenvalue test passes,
    # but <m, n> = 2 c* P d differs from (2P c)* (2P d) = 4 c* P d
    g = load_graph(text)
    for system, bad in ((GraphFrameSystem(g), 0), (_DoubledGramSystem(g), failures)):
        elements = [ModuleElement.basis_word(system, (i,)) for i in system.indices]
        elements += [ModuleElement.from_algebra(system, a) for a in system.basis(1)]
        report = gram_psd_check(system, elements)
        assert (report.checks, len(report.failures)) == (checks, bad)
