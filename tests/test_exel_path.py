"""The averaging transfer operator on locally constant path functions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import weighted_transfer_L
from corealg import exel_path
from corealg.core_endo import CoreEndo
from corealg.exel_path import (
    DepthFunction,
    alpha_shift,
    diag,
    exel_relations_check,
    transfer_L,
    transfer_identity_check,
)
from corealg.graph import Graph, Path, bouquet, cycle, load_graph
from corealg.star_algebra import unit
from corealg.hilbert_module import GraphFrameSystem
from corealg.scalar import ONE, ZERO, Radical


def test_requires_path_space(single_edge):
    with pytest.raises(ValueError):
        DepthFunction.constant(single_edge, 1)


def test_rejects_paths_not_in_the_graph(o2):
    foreign = bouquet(3).path(["e3"])              # an edge o2 does not have
    misplaced = Path(("e1",), "w", "v")            # o2's edge, wrong endpoints
    for p in (foreign, misplaced, Path((), "w", "w"), Path((), "v", "w")):
        with pytest.raises(ValueError, match="not a path of the graph"):
            DepthFunction(o2, len(p), {p: 1})
    with pytest.raises(ValueError, match="not a path of the graph"):
        DepthFunction.indicator(o2, foreign)
    assert DepthFunction(o2, 0, {o2.empty_path("v"): 1}).equal(DepthFunction.constant(o2, 1))


def test_value_and_lift(o2):
    g = o2
    f = DepthFunction.indicator(g, g.path(["e1"]))
    assert f.value(g.path(["e1", "e2"])) == 1   # only the first edge matters
    assert f.value(g.path(["e2", "e1"])) == 0
    with pytest.raises(ValueError):
        f.value(g.empty_path("v"))
    lifted = f.lift(2)
    assert lifted.depth == 2 and lifted.equal(f)


def test_pointwise_algebra(o2):
    g = o2
    one = DepthFunction.constant(g, 1)
    f = DepthFunction.indicator(g, g.path(["e1"]))
    assert (f * f).equal(f)                      # indicators are idempotent
    assert (one - f).equal(DepthFunction.indicator(g, g.path(["e2"])))
    assert (f + (-f)).is_zero()
    assert (f * Fraction(2, 3)).value(g.path(["e1"])) == Fraction(2, 3)
    assert f.terms == {g.path(["e1"]): 1} and (-f).terms == {g.path(["e1"]): -1}



def test_values_are_radical_and_print_as_fractions():
    g = load_graph("V a; V b\nE x a a; E y a b; E z b a\n")
    px, xz = g.path(["x"]), g.path(["x", "z"])
    made = [DepthFunction(g, 1, {px: 3}), DepthFunction(g, 1, {px: Fraction(-1, 2)}),
            DepthFunction.indicator(g, xz), DepthFunction.constant(g, Fraction(2, 3)),
            DepthFunction.constant(g, Radical.sqrt(2), 1)]
    made += [alpha_shift(f) for f in made] + [transfer_L(f) for f in made]
    made += [f.lift(3) for f in made] + [f * h for f in made[:5] for h in made[:5]]
    made += [f * Fraction(1, 7) for f in made[:5]] + [3 * f for f in made[:5]]
    assert all(type(x) is Radical for f in made for x in f.terms.values())
    assert type(made[0].value(g.path(["y"]))) is Radical and made[0].value(g.path(["y"])) == 0
    assert made[2].value(g.path(["x", "x"])) is ZERO
    for q in (3, -2, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7)):
        assert DepthFunction(g, 1, {px: q}).text() == "F %s %s\n" % (px.text(), Fraction(q))
    assert DepthFunction(g, 1, {px: 0}).text() == ""


def test_alpha_is_unital_endomorphism(o2):
    g = o2
    one = DepthFunction.constant(g, 1)
    assert alpha_shift(one).equal(one)
    f = DepthFunction.indicator(g, g.path(["e2"]))
    af = alpha_shift(f)
    assert af.depth == 2
    assert af.value(g.path(["e1", "e2"])) == 1    # sees e2 after the shift
    assert af.value(g.path(["e2", "e1"])) == 0
    h = DepthFunction.indicator(g, g.path(["e1"]))
    assert alpha_shift(f * h).equal(alpha_shift(f) * alpha_shift(h))
    assert alpha_shift(f + h).equal(alpha_shift(f) + alpha_shift(h))


def test_transfer_values(o2):
    g = o2
    # L of a first-edge indicator is the constant 1/2 on O_2.
    f = DepthFunction.indicator(g, g.path(["e1"]))
    lf = transfer_L(f)
    for p in g.paths(1):
        assert lf.value(p) == Fraction(1, 2)
    assert transfer_L(DepthFunction.constant(g, 1)).equal(DepthFunction.constant(g, 1))


def test_transfer_left_inverse(o2, o3, two_cycle):
    for g in (o2, o3, two_cycle):
        for n in (0, 1, 2):
            for mu in g.paths(n):
                f = DepthFunction.indicator(g, mu)
                assert transfer_L(alpha_shift(f)).equal(f)


def test_transfer_identity_exhaustive(o2, two_cycle):
    for g in (o2, two_cycle):
        pool = [DepthFunction.indicator(g, mu)
                for n in (0, 1, 2) for mu in g.paths(n)]
        for a in pool:
            for b in pool:
                report = transfer_identity_check(a, b)
                assert report.passed, report.lines()


def test_transfer_identity_with_radical_values(o2):
    g = o2
    a = DepthFunction.indicator(g, g.path(["e1"])) * Radical.sqrt(2)
    pool = [DepthFunction.indicator(g, mu) for n in (0, 1, 2) for mu in g.paths(n)]
    for b in pool + [a]:
        report = transfer_identity_check(a, b)
        assert report.passed, report.lines()
    assert transfer_L(a).equal(DepthFunction.constant(g, Radical.sqrt(2) * Fraction(1, 2)))


def test_rational_and_radical_values_agree(o2):
    g = o2
    assert DepthFunction.constant(g, 1).equal(DepthFunction.constant(g, ONE))
    f = DepthFunction.indicator(g, g.path(["e2"]))
    assert (f * ONE).equal(f)
    assert (f * Radical.sqrt(2) - f * Radical.sqrt(2)).is_zero()
    assert (f * Radical.sqrt(2)).text() == "F e2 1*sqrt(2)\n"
    assert (f * (ONE * Fraction(2, 3))).text() == (f * Fraction(2, 3)).text() == "F e2 2/3\n"


def test_ml_inner_positive(o3):
    g = o3
    f = DepthFunction.indicator(g, g.path(["e2"])) * Fraction(3, 2)
    inner = transfer_L(f * f)
    assert not inner.is_zero()
    assert all(x.is_rational() and x.rational_part() > 0 for x in inner.terms.values())
    zero = DepthFunction(g, 0)
    assert transfer_L(zero * zero).is_zero()


# -- the support-driven operations against the dense loops over all paths ----------

_G3 = load_graph("V a; V b\nE x a a; E y a b; E z b a\n")   # out-degrees 2 and 1
_DENSE_SYSTEMS = tuple(GraphFrameSystem(g) for g in (bouquet(2), bouquet(3), cycle(2), _G3))


def _dense_lift(f, depth):
    out = {}
    for p in f.graph.paths(depth):
        x = f.value(p)
        if x:
            out[p] = x
    return out


def _dense_alpha(f):
    g = f.graph
    out = {}
    for p in g.paths(f.depth + 1):
        x = f.value(g.drop_first(p))
        if x:
            out[p] = x
    return out


def _dense_L(f):
    g = f.graph
    if f.depth == 0:
        f = DepthFunction(g, 1, _dense_lift(f, 1))
    k = max(f.depth - 1, 1)
    out = {}
    for p in g.paths(k):
        exts = g.out_edges(p.rng)
        total = None
        for e in exts:
            x = f.value(g.prepend_edge(e, p))
            if x:
                total = x if total is None else total + x
        if total:
            out[p] = total * Fraction(1, len(exts))
    return out


def _dense_restrict(b, e):
    g = b.graph
    v = g.src(e)
    out = {}
    for p in g.paths(max(b.depth - 1, 0)):
        if p.rng != v:
            continue
        x = b.value(g.prepend_edge(e, p))
        if x:
            out[p] = x
    return out


# few values, so that sums over the preimages of a path often cancel
_VALUES = (0, 0, 1, -1, Fraction(1, 2), Radical.sqrt(2), -Radical.sqrt(2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_DENSE_SYSTEMS))), st.integers(0, 3),
       st.lists(st.sampled_from(_VALUES), min_size=27, max_size=27))
# sums of L that cancel: on O_2 at e1 and e2, on G3 at @a (f(x) + f(y)) and at x
@example(0, 2, [1, 1, -1, -1] + [0] * 23)
@example(3, 1, [1, 5, -1] + [0] * 24)
@example(3, 2, [1, 1, -1, -1, 7] + [0] * 22)
def test_support_operations_match_dense_loops(index, depth, values):
    system = _DENSE_SYSTEMS[index]
    g = system.graph
    f = DepthFunction(g, depth, dict(zip(g.paths(depth), values)))
    checks = [(f.lift(m).terms, _dense_lift(f, m)) for m in range(depth, 4)]
    checks.append((alpha_shift(f).terms, _dense_alpha(f)))
    checks.append((transfer_L(f).terms, _dense_L(f)))
    checks += [(system.restrict_edge(f, e).terms, _dense_restrict(f, e))
               for e in g.edge_names]
    for got, want in checks:
        assert got == want
    assert transfer_L(f).depth == max(depth - 1, 1)
    assert transfer_L(f).text() == DepthFunction(g, max(depth - 1, 1), _dense_L(f)).text()


def _paths_text(f):
    """text() as the loop over Graph.paths(depth) writes it."""
    lines = []
    for p in f.graph.paths(f.depth):
        x = f.terms.get(p)
        if x:
            lines.append("F %s %s" % (p.text(), x.text() if isinstance(x, Radical) else x))
    return "\n".join(lines) + "\n" if lines else ""


# vertices and edges declared against name order, edge names against vertex order
_UNSORTED = load_graph("V b; V a\nE z a b; E y b a; E x a a; E w b b; E v b a\n")
_TEXT_GRAPHS = (bouquet(2), bouquet(3), cycle(2), _G3, _UNSORTED)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_TEXT_GRAPHS))), st.integers(0, 3),
       st.lists(st.sampled_from(_VALUES), min_size=81, max_size=81))
def test_text_matches_the_paths_loop(index, depth, values):
    g = _TEXT_GRAPHS[index]
    paths = g.paths(depth)
    f = DepthFunction(g, depth, dict(zip(reversed(paths), values)))
    assert f.text() == _paths_text(f)


def test_operations_never_list_the_paths(o2, two_cycle, monkeypatch):
    # every operation but constant reads only the support
    systems = [GraphFrameSystem(g) for g in (o2, two_cycle, _G3)]

    def listed(self, n):
        raise AssertionError("Graph.paths(%d) called" % n)

    monkeypatch.setattr(Graph, "paths", listed)
    for system in systems:
        g = system.graph
        e = g.edge_names[0]
        a = DepthFunction.indicator(g, g.path([e]))
        ef = g.append_edge(g.path([e]), g.in_edges(g.src(e))[0])
        b = (DepthFunction.indicator(g, ef) * Fraction(2, 3)
             + DepthFunction.indicator(g, g.empty_path(g.vertices[0])))
        assert a.lift(3).depth == 3 and alpha_shift(b).depth == 3
        assert transfer_L(alpha_shift(a)).equal(a)
        assert not (a * b).equal(a + b)
        assert transfer_identity_check(a, b).passed
        assert transfer_identity_check(b, a).passed
        for f in (a, b, DepthFunction.indicator(g, g.empty_path(g.vertices[-1]))):
            for e in g.edge_names:
                assert system.restrict_edge(f, e).depth == max(f.depth - 1, 0)
                system.act1(e, f, e)


G3_TEXT = "V a\nV b\nE x a a\nE y a b\nE z b a\n"


def test_diag_is_multiplicative(o2, two_cycle):
    for g in (o2, two_cycle, load_graph(G3_TEXT)):
        fs = [DepthFunction.constant(g, 1),
              DepthFunction(g, 1, {p: Fraction(i + 1, 3) for i, p in enumerate(g.paths(1))}),
              DepthFunction(g, 2, {p: Radical.sqrt(i + 2) for i, p in enumerate(g.paths(2))})]
        assert diag(fs[0]).equal(unit(g))
        for f in fs:
            for h in fs:
                assert diag(f * h).equal(diag(f) * diag(h)), (f, h)


@pytest.mark.parametrize("text", ["V v\nE e1 v v\nE e2 v v\n", G3_TEXT])
def test_exel_relations_reject_a_reweighted_transfer(monkeypatch, text):
    g = load_graph(text)
    W = CoreEndo(g).build_W()
    fs = [DepthFunction.indicator(g, p) for k in (1, 2, 3) for p in g.paths(k)]
    report = exel_relations_check(W, fs)
    assert report.passed and report.checks == 1 + 2 * len(fs)
    monkeypatch.setattr(exel_path, "transfer_L", weighted_transfer_L)
    # the mutant keeps the identity L(alpha(a) b) = a L(b) on every pair
    assert all(transfer_identity_check(a, b).passed for a in fs for b in fs)
    failed = exel_relations_check(W, fs).failures
    assert failed and all(w.startswith("W* diag(f) W differs from diag(L f)") for w in failed)
