"""The shift endomorphism beta of the balanced subalgebra and its isometry.

For a finite graph in which every vertex emits at least one edge, beta sends
t_mu t_nu^* to the average of t_{e mu} t_{f nu}^* over the edges e, f that
extend mu, nu at their ranges, with coefficient
(|s^-1(r(mu))| |s^-1(r(nu))|)^(-1/2).  The isometry W = sum_e |s^-1(s(e))|^(-1/2) t_e
implements it: beta(x) = W x W^*.  Both routes are coded independently so one
can check the other.
"""

from __future__ import annotations

from .graph import Graph, Path
from .scalar import Radical
from .star_algebra import StarElement, matrix_unit
from .util import CheckReport


class CoreEndo:
    """Graph-indexed beta with cached out-degree counts."""

    def __init__(self, graph: Graph):
        if not graph.beta_admissible:
            bad = next(v for v in graph.vertices if not graph.out_edges(v))
            raise ValueError("vertex %r emits no edge; beta is undefined" % bad)
        self.graph = graph
        self._out_count = {v: len(graph.out_edges(v)) for v in graph.vertices}
        # (|s^-1(r(mu))|, |s^-1(r(nu))|) -> the shift weight, filled by beta
        self._weights: dict[tuple[int, int], Radical] = {}

    def beta(self, x: StarElement) -> StarElement:
        if x.graph is not self.graph:
            raise ValueError("element lives over a different graph")
        g, weights = self.graph, self._weights
        # distinct words stay distinct after prepending, and every weight is
        # nonzero, so each image term is set once and none cancels
        out: dict[tuple[Path, Path], Radical] = {}
        for (mu, nu), c in x.items():
            if len(mu.edges) != len(nu.edges):
                raise ValueError("beta needs a balanced element (|mu| = |nu| termwise)")
            emus, fnus = g.range_extensions(mu), g.range_extensions(nu)
            degrees = (len(emus), len(fnus))
            w = weights.get(degrees)
            if w is None:
                w = weights[degrees] = Radical.inv_sqrt(degrees[0] * degrees[1])
            scale = c * w
            for emu in emus:
                for fnu in fnus:
                    out[(emu, fnu)] = scale
        return StarElement._wrap(g, out)

    def matrix_unit_images(self, i: int, v: str) -> tuple[dict, CheckReport]:
        """beta images of the level-i words with source v, with an exhaustive
        verification that they still multiply as matrix units."""
        g = self.graph
        words = [mu for mu in g.paths(i) if mu.src == v]
        family = {(mu, nu): self.beta(matrix_unit(g, mu, nu)) for mu in words for nu in words}
        report = CheckReport("matrix unit images (level %d, vertex %s)" % (i, v))
        for (mu, nu), x in family.items():
            report.check(x.adjoint().equal(family[(nu, mu)]),
                         lambda: "adjoint mismatch at (%s, %s)" % (mu.text(), nu.text()))
            for (kappa, lam), y in family.items():
                prod = x * y
                expected = family[(mu, lam)] if nu == kappa else StarElement.zero(g)
                report.check(prod.equal(expected),
                             lambda: "product rule fails at (%s,%s)(%s,%s):\n%s"
                             % (mu.text(), nu.text(), kappa.text(), lam.text(), prod.text()))
        return family, report

    def build_W(self) -> StarElement:
        g = self.graph
        W = StarElement.zero(g)
        for e in g.edge_names:
            mu = g.path([e])
            W = W + StarElement.word(g, Radical.inv_sqrt(self._out_count[mu.src]),
                                     mu, g.empty_path(mu.src))
        return W


def graph_core_endo(g: Graph) -> CoreEndo:
    """The CoreEndo of g, built once per graph object and kept in the graph's
    memo, so that its out-degree map and weight table live as long as g."""
    return g.memo.get("core endo", lambda: CoreEndo(g))
