"""Finite directed multigraphs and their composable paths.

Edge direction bookkeeping: every edge carries a source s(e) and a range
r(e).  A path mu = mu_1 ... mu_n is composable when s(mu_i) = r(mu_{i+1});
its range is r(mu_1) and its source is s(mu_n).  Length-zero paths exist one
per vertex.  Extension during relation rewriting appends edges at the source
end (mu -> mu.e with r(e) = s(mu)) and prepends at the range end
(mu -> e.mu with s(e) = r(mu)).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .util import Memo

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphFormatError(ValueError):
    """Raised with a line number when a graph file fails to parse."""


class Path(namedtuple("Path", ("edges", "src", "rng"))):
    """Immutable composable edge word; empty paths remember their vertex.

    A named tuple: hash, equality and field reads run in C, no field can be
    assigned, and a pickled copy carries only its fields, so it rehashes in
    its own process.  A Path equals the plain tuple (edges, src, rng),
    iterates over those three fields and orders like that tuple.  The Graph
    builders that extend or cut a checked path call tuple.__new__(Path, ...)
    and so skip the named tuple's Python-level __new__.
    """

    __slots__ = ()

    def __len__(self):
        return len(self.edges)

    def text(self) -> str:
        return ".".join(self.edges) if self.edges else "@" + self.src

    def __repr__(self):
        return "Path(%s)" % self.text()


class Graph:
    """Finite multigraph with named vertices and edges.

    A graph does not change after construction; `memo` holds objects other
    layers derive from it, which then live exactly as long as the graph.
    The one-edge extensions of each path are kept in two plain dicts, filled
    on first read: two racing fills build equal tuples, so they need no lock.
    """

    def __init__(self, vertices: list[str], edges: list[tuple[str, str, str]]):
        self.vertices = tuple(dict.fromkeys(vertices))
        vset = set(self.vertices)
        self._src: dict[str, str] = {}
        self._rng: dict[str, str] = {}
        for name, src, rng in edges:
            if name in self._src:
                raise GraphFormatError("duplicate edge name %r" % name)
            if src not in vset or rng not in vset:
                raise GraphFormatError("edge %r touches undeclared vertex" % name)
            self._src[name] = src
            self._rng[name] = rng
        self.edge_names = tuple(sorted(self._src))
        self._out: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        self._in: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        for e in self.edge_names:
            self._out[self._src[e]] += (e,)
            self._in[self._rng[e]] += (e,)
        self.memo = Memo()
        self._range_ext: dict[Path, tuple[Path, ...]] = {}
        self._source_ext: dict[Path, tuple[Path, ...]] = {}

    # -- incidence -----------------------------------------------------------

    def src(self, e: str) -> str:
        return self._src[e]

    def rng(self, e: str) -> str:
        return self._rng[e]

    def out_edges(self, v: str) -> tuple[str, ...]:
        """Edges with source v (sorted by name)."""
        return self._out[v]

    def in_edges(self, v: str) -> tuple[str, ...]:
        """Edges with range v (sorted by name)."""
        return self._in[v]

    @property
    def beta_admissible(self) -> bool:
        """Every vertex emits at least one edge (shift endomorphism defined)."""
        return all(self._out[v] for v in self.vertices)

    @property
    def path_space_admissible(self) -> bool:
        """Every vertex both emits and receives (one-sided shift is onto a
        nonempty compact path space)."""
        return all(self._out[v] and self._in[v] for v in self.vertices)

    @property
    def all_regular(self) -> bool:
        """No singular vertices: every vertex receives at least one edge."""
        return all(self._in[v] for v in self.vertices)

    # -- paths ---------------------------------------------------------------

    def empty_path(self, v: str) -> Path:
        if v not in self._out:
            raise KeyError("unknown vertex %r" % v)
        return Path((), v, v)

    def path(self, edges) -> Path:
        """Build a path from an edge-name sequence, checking composability."""
        edges = tuple(edges)
        if not edges:
            raise ValueError("edge list empty; use empty_path(v) for length 0")
        for e in edges:
            if e not in self._src:
                raise KeyError("unknown edge %r" % e)
        for a, b in zip(edges, edges[1:]):
            if self._src[a] != self._rng[b]:
                raise ValueError("edges %r, %r do not compose" % (a, b))
        return Path(edges, self._src[edges[-1]], self._rng[edges[0]])

    def concat(self, mu: Path, nu: Path) -> Path:
        """mu followed by nu; needs s(mu) = r(nu)."""
        if mu.src != nu.rng:
            raise ValueError("paths do not compose: s(%s) != r(%s)" % (mu.text(), nu.text()))
        if not nu.edges:
            return mu
        if not mu.edges:
            return nu
        return tuple.__new__(Path, (mu.edges + nu.edges, nu.src, mu.rng))

    def append_edge(self, mu: Path, e: str) -> Path:
        """Extend at the source end: mu.e with r(e) = s(mu)."""
        if self._rng[e] != mu.src:
            raise ValueError("edge %r does not extend %s at the source" % (e, mu.text()))
        return tuple.__new__(Path, (mu.edges + (e,), self._src[e],
                                    mu.rng if mu.edges else self._rng[e]))

    def prepend_edge(self, e: str, mu: Path) -> Path:
        """Extend at the range end: e.mu with s(e) = r(mu)."""
        if self._src[e] != mu.rng:
            raise ValueError("edge %r does not extend %s at the range" % (e, mu.text()))
        return tuple.__new__(Path, ((e,) + mu.edges, mu.src if mu.edges else self._src[e],
                                    self._rng[e]))

    def range_extensions(self, p: Path) -> tuple[Path, ...]:
        """The paths e.p for e in out_edges(r(p)), in that order; built once
        per path by prepend_edge and then shared."""
        ext = self._range_ext.get(p)
        if ext is None:
            ext = self._range_ext[p] = tuple(self.prepend_edge(e, p)
                                             for e in self._out[p.rng])
        return ext

    def source_extensions(self, p: Path) -> tuple[Path, ...]:
        """The paths p.e for e in in_edges(s(p)), in that order; built once
        per path by append_edge and then shared."""
        ext = self._source_ext.get(p)
        if ext is None:
            ext = self._source_ext[p] = tuple(self.append_edge(p, e)
                                              for e in self._in[p.src])
        return ext

    def prefix(self, p: Path, k: int) -> Path:
        """First k edges counted from the range end; k = 0 gives @r(p)."""
        if k < 0 or k > len(p):
            raise ValueError("no length-%d prefix of %s" % (k, p.text()))
        if k == 0:
            return tuple.__new__(Path, ((), p.rng, p.rng))
        if k == len(p):
            return p
        edges = p.edges[:k]
        return tuple.__new__(Path, (edges, self._src[edges[-1]], p.rng))

    def drop_first(self, p: Path, k: int = 1) -> Path:
        """Remove the first k edges counted from the range end; k = 1 gives
        the image of p under the shift, k = len(p) gives @s(p)."""
        if k < 0 or k > len(p.edges) or not p.edges:
            raise ValueError("cannot drop %d edges of %s" % (k, p.text()))
        edges = p.edges[k:]
        if not edges:
            return tuple.__new__(Path, ((), p.src, p.src))
        return tuple.__new__(Path, (edges, p.src, self._rng[edges[0]]))

    def paths(self, n: int) -> tuple[Path, ...]:
        """All composable paths of length n, in a fixed deterministic order.
        The levels are kept in the memo: each is built once, by append_edge
        over the level below it, and then shared."""
        if n < 0:
            raise ValueError("path length must be >= 0")
        levels = self.memo.get("paths", lambda: [tuple(self.empty_path(v)
                                                       for v in sorted(self.vertices))])
        while len(levels) <= n:
            levels.append(tuple(self.append_edge(p, e)
                                for p in levels[-1] for e in self._in[p.src]))
        return levels[n]

    def path_count(self, v: str, n: int, cap: int) -> int:
        """The paths with range v and length at most n, or cap when there
        are more: the words StarElement.i_expand forms from one word with
        source v over n levels.  They are counted per source vertex, level
        by level, without building a path; a level that forms no path ends
        the count, so it runs at most cap + 1 levels."""
        ends, count = {v: 1}, 1
        for _ in range(n):
            if count >= cap or not ends:
                break
            step: dict[str, int] = {}
            for u, c in ends.items():
                for e in self._in[u]:
                    step[self._src[e]] = step.get(self._src[e], 0) + c
            ends = step
            count += sum(step.values())
        return min(cap, count)

    def parse_path(self, text: str) -> Path:
        if text.startswith("@"):
            return self.empty_path(text[1:])
        return self.path(text.split("."))

    # -- text format -----------------------------------------------------------

    def text(self) -> str:
        lines = ["V %s" % v for v in self.vertices]
        lines += ["E %s %s %s" % (e, self._src[e], self._rng[e]) for e in self.edge_names]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edge_names))


def load_graph(text: str) -> Graph:
    """Parse the line format: `V <name>` / `E <name> <src> <rng>`, comments
    with `#`, `;` accepted as a statement separator; at least one vertex."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            tokens = stmt.split()
            if not tokens:
                continue
            kind, args = tokens[0], tokens[1:]
            if kind == "V" and len(args) == 1:
                name = args[0]
                if not _NAME.match(name):
                    raise GraphFormatError("line %d: bad vertex name %r" % (lineno, name))
                if name in vertices:
                    raise GraphFormatError("line %d: duplicate vertex %r" % (lineno, name))
                vertices.append(name)
            elif kind == "E" and len(args) == 3:
                name, src, rng = args
                for n in (name, src, rng):
                    if not _NAME.match(n):
                        raise GraphFormatError("line %d: bad name %r" % (lineno, n))
                edges.append((name, src, rng))
            else:
                raise GraphFormatError("line %d: cannot parse %r" % (lineno, stmt.strip()))
    if not vertices:
        raise GraphFormatError("no vertex is declared")
    return Graph(vertices, edges)


def bouquet(n: int) -> Graph:
    """Single vertex v with n loops e1..en."""
    if n < 1:
        raise ValueError("bouquet needs at least one loop")
    return Graph(["v"], [("e%d" % i, "v", "v") for i in range(1, n + 1)])


def cycle(n: int) -> Graph:
    """Directed n-cycle v1 -> v2 -> ... -> v1 (edge xi runs vi -> v(i+1))."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    verts = ["v%d" % i for i in range(1, n + 1)]
    edges = [("x%d" % i, verts[i - 1], verts[i % n]) for i in range(1, n + 1)]
    return Graph(verts, edges)
