from fractions import Fraction

import pytest

from corealg.exel_path import DepthFunction
from corealg.graph import Graph, bouquet, cycle
from corealg.scalar import Radical
from corealg.util import accumulate


def terms(x):
    """The (radicand, coefficient) pairs of a Radical, sorted by radicand."""
    return sorted((k, Fraction(c, x._den)) for k, c in x._num.items())


@pytest.fixture
def radical_ops(monkeypatch):
    """Counts of Radical.__mul__ and Radical.__add__ calls from here on."""
    counts = {"mul": 0, "add": 0}

    def counted(name, op):
        def run_op(self, other):
            counts[name] += 1
            return op(self, other)
        return run_op

    monkeypatch.setattr(Radical, "__mul__", counted("mul", Radical.__mul__))
    monkeypatch.setattr(Radical, "__add__", counted("add", Radical.__add__))
    return counts


@pytest.fixture
def o2():
    return bouquet(2)


@pytest.fixture
def o3():
    return bouquet(3)


@pytest.fixture
def two_cycle():
    return cycle(2)


@pytest.fixture
def single_edge():
    """One edge x from source a to range b; a receives nothing, b emits nothing."""
    return Graph(["a", "b"], [("x", "a", "b")])


def weighted_transfer_L(f):
    """A wrong transfer operator: L(f)(eta) weighs f(e_i.eta), for the i-th
    of the k edges that extend eta, by 2(i+1)/(k(k+1)) instead of 1/k.  The
    weights still sum to 1, so L(1) = 1, L(alpha(f)) = f and
    L(alpha(a) b) = a L(b) all hold."""
    g = f.graph
    if f.depth == 0:
        f = f.lift(1)
    out = {}
    for eta in g.paths(f.depth - 1):
        exts = g.range_extensions(eta)
        k = len(exts)
        for i, q in enumerate(exts):
            x = f.terms.get(q)
            if x:
                accumulate(out, eta, x * Fraction(2 * (i + 1), k * (k + 1)))
    return DepthFunction._wrap(g, f.depth - 1, out).lift(max(f.depth - 1, 1))


def two_vertex_graphs(max_edges=4):
    """All graphs on <=2 vertices with every vertex emitting and receiving,
    up to max_edges edges total.  Returned as a list of (label, Graph)."""
    out = []
    for n in range(1, max_edges + 1):
        out.append(("bouquet%d" % n, bouquet(n)))
    # Edge-count matrices m[i][j] = number of edges with source v_i, range v_j.
    rng = range(0, max_edges + 1)
    for aa in rng:
        for ab in rng:
            for ba in rng:
                for bb in rng:
                    total = aa + ab + ba + bb
                    if total == 0 or total > max_edges:
                        continue
                    if aa + ab == 0 or ba + bb == 0:
                        continue  # a vertex that emits nothing
                    if aa + ba == 0 or ab + bb == 0:
                        continue  # a vertex that receives nothing
                    edges = []
                    counts = {("a", "a"): aa, ("a", "b"): ab,
                              ("b", "a"): ba, ("b", "b"): bb}
                    for (src, rngv), k in counts.items():
                        for i in range(k):
                            edges.append(("%s%s%d" % (src, rngv, i), src, rngv))
                    label = "m%d%d%d%d" % (aa, ab, ba, bb)
                    out.append((label, Graph(["a", "b"], edges)))
    return out
