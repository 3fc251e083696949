"""The averaging transfer operator on locally constant path functions."""

import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from corealg import exel_path
from corealg.exel_path import (
    DepthFunction,
    DepthFunctionFormatError,
    alpha_shift,
    load_depth_function,
    ml_inner,
    transfer_L,
    transfer_identity_check,
)
from corealg.graph import Graph, Path, bouquet, cycle, load_graph
from corealg.hilbert_module import GraphFrameSystem
from corealg.scalar import ONE, Radical


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
    assert f.nonneg() and not (-f).nonneg()


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
    assert ml_inner(f, f).nonneg()
    assert not ml_inner(f, f).is_zero()
    zero = DepthFunction(g, 0)
    assert ml_inner(zero, zero).is_zero()


def test_text_round_trip(o2):
    g = o2
    f = DepthFunction(g, 1, {g.path(["e1"]): Fraction(2, 3),
                             g.path(["e2"]): Fraction(-1, 5)})
    loaded, warnings = load_depth_function(g, f.text())
    assert loaded.equal(f)
    assert warnings == []


def test_load_warns_on_missing_paths(o2):
    loaded, warnings = load_depth_function(o2, "F e1 1/2\n")
    assert loaded.value(o2.path(["e1"])) == Fraction(1, 2)
    assert any("e2" in w for w in warnings)


def test_load_errors(o2):
    with pytest.raises(DepthFunctionFormatError, match="line 1"):
        load_depth_function(o2, "F e1\n")
    with pytest.raises(DepthFunctionFormatError, match="duplicate"):
        load_depth_function(o2, "F e1 1\nF e1 2\n")
    with pytest.raises(DepthFunctionFormatError, match="no F lines"):
        load_depth_function(o2, "# empty\n")
    with pytest.raises(DepthFunctionFormatError):
        load_depth_function(o2, "F e1 1\nF e1.e1 1\n")  # mixed lengths
    with pytest.raises(DepthFunctionFormatError, match="exponent"):
        load_depth_function(o2, "F e1 1e3\n")


def test_load_refuses_depths_beyond_path_limit(o2, monkeypatch):
    # 2^20 paths of length 20 on O_2: refused from the count, none built
    def too_slow(signum, frame):
        raise TimeoutError("a 20-edge line took over 2 s to load")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(DepthFunctionFormatError, match="PATH_LIMIT"):
            load_depth_function(o2, "F %s 1\n" % ".".join(["e1"] * 20))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    monkeypatch.setattr(exel_path, "PATH_LIMIT", 4)
    loaded, warnings = load_depth_function(o2, "F e1.e2 1\n")
    assert len(warnings) == 3
    with pytest.raises(DepthFunctionFormatError, match="line 1: 8 paths of length 3"):
        load_depth_function(o2, "F e1.e2.e1 1\n")


# -- loader fuzzing -----------------------------------------------------------------

# a vertex and an edge share the name "a" in the second graph
_FUZZ_GRAPHS = (bouquet(2), load_graph("V a; V b\nE a a b; E x b a; E y b b\n"))
_path_tokens = st.one_of(
    st.sampled_from(["@v", "@a", "@b", "e1", "e2.e1", "a", "x.a", "y.x", "e3", "e1..e2", "@", ""]),
    st.text(alphabet="e12axy.@v", max_size=6))
_value_tokens = st.one_of(
    st.builds(str, st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    st.text(alphabet="0123456789/.-+eE_", max_size=12))
_lines = st.one_of(
    st.builds("F {} {}".format, _path_tokens, _value_tokens),
    st.text(max_size=20))


@settings(max_examples=150, deadline=3000)
@given(st.sampled_from(_FUZZ_GRAPHS), st.lists(_lines, max_size=4).map("\n".join))
@example(_FUZZ_GRAPHS[0], "F e1 1e10000000")
@example(_FUZZ_GRAPHS[0], "F e2 -1E-10000000")
def test_load_depth_function_accepts_or_raises_value_error(g, text):
    try:
        f, warnings = load_depth_function(g, text)
    except ValueError:
        return
    assert all(isinstance(w, str) for w in warnings)
    if f.values:
        again, _ = load_depth_function(g, f.text())
        assert again.equal(f)


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
    checks = [(f.lift(m).values, _dense_lift(f, m)) for m in range(depth, 4)]
    checks.append((alpha_shift(f).values, _dense_alpha(f)))
    checks.append((transfer_L(f).values, _dense_L(f)))
    checks += [(system.restrict_edge(f, e).values, _dense_restrict(f, e))
               for e in g.edge_names]
    for got, want in checks:
        assert got == want
    assert transfer_L(f).depth == max(depth - 1, 1)
    assert transfer_L(f).text() == DepthFunction(g, max(depth - 1, 1), _dense_L(f)).text()


def _paths_text(f):
    """text() as the loop over Graph.paths(depth) writes it."""
    lines = []
    for p in f.graph.paths(f.depth):
        x = f.values.get(p)
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
    # every operation but constant, text and the loader reads only the support
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
