"""Locally constant functions on the infinite path space of a graph.

A function of depth k sees only the first k edges of an infinite path.  The
module provides the one-sided shift endomorphism alpha (precompose with the
shift), the averaging transfer operator L, and the identity L(alpha(a)b) =
a L(b) that makes (functions, alpha, L) an Exel system.  Values are exact
Radical scalars; the frame module of hilbert_module uses the same functions
as its coefficient algebra.  diag embeds the functions in the graph algebra,
where the shift isometry W implements both alpha and L.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Graph, Path
from .scalar import ONE, ZERO, Radical, scalar
from .star_algebra import StarElement, unit
from .util import CheckReport, SparseSum, accumulate


def _in_graph(graph: Graph, p) -> bool:
    """p is a path of graph: its edges compose there, or it is @v for a vertex v."""
    try:
        return isinstance(p, Path) and p == (graph.path(p.edges) if p.edges
                                             else graph.empty_path(p.src))
    except (KeyError, ValueError):
        return False


def _as_scalar(x) -> Radical:
    c = scalar(x)
    if c is None:
        raise TypeError("values must be exact scalars, got %r" % (x,))
    return c


class DepthFunction(SparseSum):
    """Function determined by length-k path prefixes, with Radical values
    (an int or Fraction given to the constructor is coerced).  `terms` holds
    the support: the length-k paths of the graph with a nonzero value; every
    operation but `constant` reads only the support."""

    __slots__ = ("graph", "depth")

    def __init__(self, graph: Graph, depth: int,
                 values: dict[Path, Radical] | None = None):
        if not graph.path_space_admissible:
            raise ValueError("graph must have no sinks and no singular vertices")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.graph = graph
        self.depth = depth
        self.terms = {}
        if values:
            for p, x in values.items():
                if not _in_graph(graph, p):
                    raise ValueError("%r is not a path of the graph" % (p,))
                if len(p) != depth:
                    raise ValueError("path %s has length %d, expected %d"
                                     % (p.text(), len(p), depth))
                x = _as_scalar(x)
                if x:
                    self.terms[p] = x

    @classmethod
    def _wrap(cls, graph: Graph, depth: int, terms: dict) -> "DepthFunction":
        # internal fast path: terms already checked, zero-free and Radical
        f = cls.__new__(cls)
        f.graph = graph
        f.depth = depth
        f.terms = terms
        return f

    @classmethod
    def constant(cls, graph: Graph, value, depth: int = 0) -> "DepthFunction":
        value = _as_scalar(value)
        return cls(graph, depth, {p: value for p in graph.paths(depth)})

    @classmethod
    def indicator(cls, graph: Graph, mu: Path) -> "DepthFunction":
        return cls(graph, len(mu), {mu: ONE})

    def value(self, p: Path):
        """Value on any path at least depth long (only the prefix matters)."""
        if len(p) < self.depth:
            raise ValueError("path %s is shorter than depth %d" % (p.text(), self.depth))
        if len(p) == self.depth:
            return self.terms.get(p, ZERO)
        return self.terms.get(self.graph.prefix(p, self.depth), ZERO)

    def lift(self, depth: int) -> "DepthFunction":
        """The same function at a larger depth: each supported path extends at
        its source end by every edge that reaches it."""
        if depth < self.depth:
            raise ValueError("cannot lower depth %d to %d" % (self.depth, depth))
        if depth == self.depth:
            return self
        g = self.graph
        out = self.terms
        for _ in range(depth - self.depth):
            out = {qe: x for q, x in out.items() for qe in g.source_extensions(q)}
        return DepthFunction._wrap(g, depth, out)

    def _common(self, other: "DepthFunction") -> tuple["DepthFunction", "DepthFunction"]:
        if other.graph is not self.graph:
            raise ValueError("functions live over different graphs")
        k = max(self.depth, other.depth)
        return self.lift(k), other.lift(k)

    def _like(self, terms: dict) -> "DepthFunction":
        return DepthFunction._wrap(self.graph, self.depth, terms)

    def __mul__(self, other):
        if isinstance(other, DepthFunction):
            a, b = self._common(other)
            out = {}
            for p, x in a.terms.items():
                y = b.terms.get(p)
                if y:
                    out[p] = x * y
            return a._like(out)
        return self._scaled(_as_scalar(other))

    def __rmul__(self, other):
        return self * other

    def adjoint(self) -> "DepthFunction":
        """The pointwise conjugate, which is the function itself: its values
        are real."""
        return self

    def __repr__(self):
        return "DepthFunction(depth=%d, %d nonzero)" % (self.depth, len(self.terms))

    def text(self) -> str:
        """One `F <path> <value>` line per supported path, in the order of
        Graph.paths: by range vertex, then by edge names."""
        lines = ["F %s %s" % (p.text(), x.text())
                 for p, x in sorted(self.terms.items(),
                                    key=lambda px: (px[0].rng, px[0].edges))]
        return "\n".join(lines) + "\n" if lines else ""


def alpha_shift(f: DepthFunction) -> DepthFunction:
    """Precompose with the shift that drops the first edge; depth rises by 1.
    alpha(f) lives on the one-edge extensions e.q of the support at its range."""
    g = f.graph
    out = {eq: x for q, x in f.terms.items() for eq in g.range_extensions(q)}
    return DepthFunction._wrap(g, f.depth + 1, out)


def transfer_L(f: DepthFunction) -> DepthFunction:
    """Average over the shift preimages: L(f)(eta) is the mean of f(e.eta)
    over the edges e that can extend eta at its range.  Each supported e.eta
    adds its value to eta; a one-edge path e adds to the empty path @s(e), so
    at depth 1 L(f) is constant on the edges that reach each vertex."""
    g = f.graph
    if f.depth == 0:
        f = f.lift(1)
    sums = {}
    for q, x in f.terms.items():
        accumulate(sums, g.drop_first(q), x)
    weight = {v: Radical.from_rational(Fraction(1, len(g.out_edges(v))))
              for v in {p.rng for p in sums}}
    out = {p: total * weight[p.rng] for p, total in sums.items()}
    return DepthFunction._wrap(g, f.depth - 1, out).lift(max(f.depth - 1, 1))


def transfer_identity_check(a: DepthFunction, b: DepthFunction) -> CheckReport:
    report = CheckReport("transfer identity")
    lhs = transfer_L(alpha_shift(a) * b)
    rhs = a * transfer_L(b)
    report.check(lhs.equal(rhs),
                 lambda: "L(alpha(a)b) != aL(b) for a=\n%sb=\n%slhs=\n%srhs=\n%s"
                 % (a.text(), b.text(), lhs.text(), rhs.text()))
    return report


def diag(f: DepthFunction) -> StarElement:
    """sum_mu f(mu) t_mu t_mu^*: f as a diagonal element of the graph algebra."""
    return StarElement(f.graph, {(mu, mu): x for mu, x in f.terms.items()})


def exel_relations_check(W: StarElement, functions) -> CheckReport:
    """The Exel system implemented by the shift isometry W: W^*W = 1, and
    for each f, W^* diag(f) W = diag(L f) and W diag(f) = diag(alpha f) W."""
    report = CheckReport("Exel relations through W")
    W_adj = W.adjoint()
    report.check((W_adj * W).equal(unit(W.graph)), lambda: "W*W differs from the unit")
    for f in functions:
        d = diag(f)
        report.check((W_adj * d * W).equal(diag(transfer_L(f))),
                     lambda: "W* diag(f) W differs from diag(L f) at f=\n%s" % f.text())
        report.check((W * d).equal(diag(alpha_shift(f)) * W),
                     lambda: "W diag(f) differs from diag(alpha f) W at f=\n%s" % f.text())
    return report
