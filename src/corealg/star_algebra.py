"""Exact arithmetic in the dense span of words t_mu t_nu^*.

Elements are finite Radical-linear combinations of words t_mu t_nu^* over a
fixed graph, with t of an empty path at v standing for the vertex projection
p_v.  Multiplication collapses by the prefix rule, the grading is by
|mu| - |nu|, and equality is decided by rewriting with the relation
p_v = sum_{r(e)=v} t_e t_e^* at regular vertices (with the singular-source
decomposition as the fallback for balanced elements).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .graph import Graph, Path
from .scalar import ONE, Radical, parse_radical, scalar
from .util import SparseSum, accumulate


class SingularVertexError(ValueError):
    """Expansion requested at a vertex that receives no edges."""

    def __init__(self, vertex: str):
        super().__init__("no relation available at singular vertex %r" % vertex)
        self.vertex = vertex


class MixedDegreeError(ValueError):
    pass


class UndecidableEqualityError(ValueError):
    pass


class ElementFormatError(ValueError):
    pass


class StarElement(SparseSum):
    """Finite sum of words, stored as {(mu, nu): nonzero Radical}."""

    __slots__ = ("graph",)

    def __init__(self, graph: Graph, terms: dict[tuple[Path, Path], Radical] | None = None):
        self.graph = graph
        clean: dict[tuple[Path, Path], Radical] = {}
        if terms:
            for (mu, nu), c in terms.items():
                if mu.src != nu.src:
                    raise ValueError(
                        "word t_%s t_%s^* has mismatched sources" % (mu.text(), nu.text()))
                if c:
                    clean[(mu, nu)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, graph: Graph) -> "StarElement":
        return cls(graph)

    @classmethod
    def word(cls, graph: Graph, coeff, mu: Path, nu: Path) -> "StarElement":
        c = scalar(coeff)
        if c is None:
            raise TypeError("coefficient must be Radical or rational")
        return cls(graph, {(mu, nu): c})

    def items(self):
        return self.terms.items()

    def max_level(self) -> int:
        return max((max(len(mu), len(nu)) for mu, nu in self.terms), default=0)

    # -- linear structure ----------------------------------------------------

    def _common(self, other: "StarElement"):
        if other.graph is not self.graph:
            raise ValueError("elements live over different graphs")
        return self, other

    def _like(self, terms) -> "StarElement":
        return StarElement._wrap(self.graph, terms)

    def __mul__(self, other):
        if isinstance(other, StarElement):
            return self._product(other)
        c = scalar(other)
        if c is None:
            return NotImplemented
        return self._scaled(c)

    def __rmul__(self, other):
        c = scalar(other)
        if c is None:
            return NotImplemented
        return self * c

    @classmethod
    def _wrap(cls, graph, terms):
        # internal fast path: terms already validated and zero-free
        el = cls.__new__(cls)
        el.graph = graph
        el.terms = terms
        return el

    # -- product -------------------------------------------------------------

    def _product(self, other: "StarElement") -> "StarElement":
        """Word product by the prefix rule: t_mu t_nu^* t_kappa t_lam^* is
        t_{mu kappa'} t_lam^* when kappa = nu kappa', t_mu t_{lam nu'}^* when
        nu = kappa nu', and 0 otherwise (the matches come from _matches).

        Terms often share one coefficient object (beta gives all image terms
        of a word one), so the last product a * b and the last sum s + c are
        kept and reused while the same two objects, compared by identity,
        come again.  That is sound because a Radical is immutable, so one
        object may stand in several terms, and a product of nonzero values
        is nonzero.

        The result skips the constructor's checks.  That is sound because
        every word built pairs paths with one source (mu kappa' and lam end
        where kappa does, mu and lam nu' where nu does), and a sum that
        cancels is deleted as it arises, so no zero coefficient is stored.
        """
        self._common(other)     # raises across graphs
        out: dict[tuple[Path, Path], Radical] = {}
        last_a = last_b = prod = last_s = last_c = total = None
        for word, a, b in self._matches(other):
            if a is not last_a or b is not last_b:
                last_a, last_b, prod = a, b, a * b
            s = out.get(word)
            if s is None:
                out[word] = prod
                continue
            if s is not last_s or prod is not last_c:
                last_s, last_c, total = s, prod, s + prod
            if total:
                out[word] = total
            else:
                del out[word]
        return StarElement._wrap(self.graph, out)

    def _matches(self, other: "StarElement"):
        """Yield (word, a, b) for every prefix-compatible pair of a term
        a t_mu t_nu^* of self and a term b t_kappa t_lam^* of other.

        The right factor's terms are grouped once by the first edge of kappa,
        and by the vertex of kappa when kappa is empty.  Vertex and edge names
        may coincide, so the two groupings are separate dicts.  A left term
        then visits only the groups that can hold a prefix-compatible kappa.
        In the group of nu's first edge each kappa gets one prefix test, in
        the direction the lengths allow, and the remainder is cut (with
        Graph.drop_first) only on a match; a kappa as long as nu matches only
        when it equals nu, and then the word is (mu, lam), with nothing cut.
        """
        g = self.graph
        by_edge: dict[str, list] = {}
        by_vertex: dict[str, list] = {}
        for (kappa, lam), b in other.terms.items():
            if kappa.edges:
                by_edge.setdefault(kappa.edges[0], []).append((kappa, lam, b))
            else:
                by_vertex.setdefault(kappa.src, []).append((lam, b))
        for (mu, nu), a in self.terms.items():
            ne = nu.edges
            if not ne:
                # nu = @v is a prefix of kappa exactly when r(kappa) = v
                v = nu.src
                for lam, b in by_vertex.get(v, ()):
                    yield (mu, lam), a, b
                for e in g.in_edges(v):
                    for kappa, lam, b in by_edge.get(e, ()):
                        yield (g.concat(mu, kappa), lam), a, b
                continue
            # kappa = @r(nu) is a prefix of nu
            for lam, b in by_vertex.get(nu.rng, ()):
                yield (mu, g.concat(lam, nu)), a, b
            # otherwise kappa and nu share their first edge, and the shorter
            # must be a prefix of the longer
            n = len(ne)
            for kappa, lam, b in by_edge.get(ne[0], ()):
                ke = kappa.edges
                k = len(ke)
                if k == n:
                    if ke == ne:
                        yield (mu, lam), a, b
                elif k > n:
                    if ke[:n] == ne:
                        yield (g.concat(mu, g.drop_first(kappa, n)), lam), a, b
                elif ne[:k] == ke:
                    yield (mu, g.concat(lam, g.drop_first(nu, k))), a, b

    def adjoint(self) -> "StarElement":
        """Swap mu and nu in every term (coefficients are real)."""
        return self._like({(nu, mu): c for (mu, nu), c in self.terms.items()})

    # -- grading ---------------------------------------------------------------

    def degree_decompose(self) -> dict[int, "StarElement"]:
        """Split into gauge-homogeneous components keyed by |mu| - |nu|."""
        parts: dict[int, dict] = {}
        for (mu, nu), c in self.terms.items():
            parts.setdefault(len(mu) - len(nu), {})[(mu, nu)] = c
        return {d: StarElement._wrap(self.graph, t) for d, t in sorted(parts.items())}

    # -- rewriting ---------------------------------------------------------------

    def expand_to_level(self, K: int) -> "StarElement":
        """Rewrite so every term has min(|mu|, |nu|) = K, using
        t_mu t_nu^* = sum_{r(e)=s(mu)} t_{mu e} t_{nu e}^* at each step."""
        g = self.graph
        out: dict[tuple[Path, Path], Radical] = {}
        work = list(self.terms.items())
        while work:
            (mu, nu), c = work.pop()
            m = min(len(mu), len(nu))
            if m > K:
                raise ValueError(
                    "term t_%s t_%s^* already beyond level %d" % (mu.text(), nu.text(), K))
            if m == K:
                accumulate(out, (mu, nu), c)
                continue
            ins = g.in_edges(mu.src)
            if not ins:
                raise SingularVertexError(mu.src)
            for e in ins:
                work.append(((g.append_edge(mu, e), g.append_edge(nu, e)), c))
        return StarElement._wrap(g, out)

    def i_expand(self, i: int) -> list["StarElement"]:
        """Unique decomposition of a balanced element of C_i: components
        c_0..c_{i-1} supported on singular-source words of each level, plus an
        arbitrary level-i top component.  Regular-source words are pushed up
        one level at a time by the same relation expand_to_level uses."""
        g = self.graph
        pools: list[dict] = [dict() for _ in range(i + 1)]
        for (mu, nu), c in self.terms.items():
            if len(mu) != len(nu) or len(mu) > i:
                raise ValueError("element is not in C_%d" % i)
            pools[len(mu)][(mu, nu)] = c
        components: list[StarElement] = []
        for j in range(i):
            keep: dict = {}
            for (mu, nu), c in pools[j].items():
                ins = g.in_edges(mu.src)
                if not ins:
                    keep[(mu, nu)] = c
                    continue
                up = pools[j + 1]
                for e in ins:
                    accumulate(up, (g.append_edge(mu, e), g.append_edge(nu, e)), c)
            components.append(StarElement._wrap(g, keep))
        components.append(StarElement._wrap(g, pools[i]))
        return components

    # -- equality ---------------------------------------------------------------

    def equal(self, other: "StarElement") -> bool:
        """Decide equality in the relation quotient.  Per gauge degree the
        difference is expanded to a common level and compared as matrix-unit
        coefficients; balanced components blocked by a singular vertex fall
        back to the i-expansion, whose components are unique.

        Equal term dicts (the base class's equality) are equal elements, so
        they are decided at once, without building the difference."""
        if super().equal(other):
            return True
        diff = self - other
        for d, comp in diff.degree_decompose().items():
            K = max(min(len(mu), len(nu)) for mu, nu in comp.terms)
            try:
                if not comp.expand_to_level(K).is_zero():
                    return False
            except SingularVertexError:
                if d != 0:
                    raise UndecidableEqualityError(
                        "degree-%d component meets a singular vertex; no"
                        " expansion or i-expansion applies" % d)
                if any(not part.is_zero() for part in comp.i_expand(comp.max_level())):
                    return False
        return True

    # -- numeric norm -------------------------------------------------------------

    def __repr__(self):
        n = len(self.terms)
        return "StarElement(%d term%s)" % (n, "" if n == 1 else "s")

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (len(kv[0][0]), kv[0][0].text(), kv[0][1].text()))

    def text(self) -> str:
        lines = ["TERM %s %s %s" % (c.text(), mu.text(), nu.text())
                 for (mu, nu), c in self.sorted_terms()]
        return "\n".join(lines) + "\n" if lines else ""


# -- builders ------------------------------------------------------------------


def vertex_projection(g: Graph, v: str) -> StarElement:
    p = g.empty_path(v)
    return matrix_unit(g, p, p)


def edge_isometry(g: Graph, e: str) -> StarElement:
    return path_isometry(g, g.path([e]))


def path_isometry(g: Graph, mu: Path) -> StarElement:
    return StarElement(g, {(mu, g.empty_path(mu.src)): ONE})


def matrix_unit(g: Graph, mu: Path, nu: Path) -> StarElement:
    return StarElement(g, {(mu, nu): ONE})


def unit(g: Graph) -> StarElement:
    out = StarElement.zero(g)
    for v in g.vertices:
        out = out + vertex_projection(g, v)
    return out


@dataclass(frozen=True)
class NormResult:
    value: float
    error_bound: float


def op_norm(x: StarElement) -> NormResult:
    """Numeric operator norm of a gauge-homogeneous element.

    After expansion to a common level the words of shape (K+d, K) with a fixed
    source vertex act as matrix units, so the norm is the largest spectral
    norm of the per-vertex coefficient blocks.  Refuses mixed degree (no tight
    bound without a faithful representation) and singular vertices.
    """
    g = x.graph
    if not g.all_regular:
        bad = next(v for v in g.vertices if not g.in_edges(v))
        raise SingularVertexError(bad)
    if x.is_zero():
        return NormResult(0.0, 0.0)
    degrees = x.degree_decompose()
    if len(degrees) > 1:
        raise MixedDegreeError("op_norm needs a single gauge degree, found %s"
                               % sorted(degrees))
    (d, comp), = degrees.items()
    K = max(min(len(mu), len(nu)) for mu, nu in comp.terms)
    comp = comp.expand_to_level(K)
    rows_len = K + d if d >= 0 else K
    cols_len = K if d >= 0 else K - d
    row_paths = {v: [] for v in g.vertices}
    for p in g.paths(rows_len):
        row_paths[p.src].append(p)
    col_paths = {v: [] for v in g.vertices}
    for p in g.paths(cols_len):
        col_paths[p.src].append(p)
    value = 0.0
    max_term_count = 1
    max_dim = 1
    for v in g.vertices:
        rows = {p: i for i, p in enumerate(row_paths[v])}
        cols = {p: i for i, p in enumerate(col_paths[v])}
        if not rows or not cols:
            continue
        block = np.zeros((len(rows), len(cols)))
        used = False
        for (mu, nu), c in comp.terms.items():
            if mu.src != v:
                continue
            block[rows[mu], cols[nu]] = c.evalf()
            used = True
            max_term_count = max(max_term_count, c.term_count())
        if not used:
            continue
        max_dim = max(max_dim, len(rows), len(cols))
        value = max(value, float(np.linalg.svd(block, compute_uv=False)[0]))
    # entry evaluation error (a few ulp per radical term) plus a conservative
    # backward-error allowance for the SVD itself
    eps = np.finfo(float).eps
    bound = eps * (4.0 * max_term_count * max_dim + 16.0 * max_dim) * max(1.0, value)
    return NormResult(value, bound)


# -- text format ------------------------------------------------------------------


def parse_element(g: Graph, text: str) -> StarElement:
    """Parse `TERM <radical> <mu> <nu>` lines (comments with `#`)."""
    terms: dict[tuple[Path, Path], Radical] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "TERM":
            raise ElementFormatError("line %d: expected TERM <radical> <mu> <nu>" % lineno)
        try:
            c = parse_radical(tokens[1])
            mu = g.parse_path(tokens[2])
            nu = g.parse_path(tokens[3])
        except (ValueError, KeyError) as exc:
            raise ElementFormatError("line %d: %s" % (lineno, exc)) from exc
        if mu.src != nu.src:
            raise ElementFormatError("line %d: sources of %s and %s differ"
                                     % (lineno, tokens[2], tokens[3]))
        accumulate(terms, (mu, nu), c)
    return StarElement(g, terms)
