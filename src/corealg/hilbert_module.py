"""Frame coordinates for the transfer-operator module and its tensor powers.

Everything here is exact.  A module element of degree i is a finite tuple of
coefficient-algebra entries indexed by i-letter words in the frame indices;
inner products, left actions, the shift isometries U and U_i, and the rank-one
operator calculus are all expressed through one primitive per system,

    act1(i, b, j) = <F_i, b F_j>,

applied letter by letter to give the frame coordinates of b . F_w.  With b the
unit these are the columns of the Gram matrix <F_u, F_w>, and the one helper
_act applies them: coordinate vectors represent the same element exactly when
their Gram projections agree, inner products pair coordinates with the Gram
projection, and equality tests compare Gram-projected (canonical) coordinates.

Two systems are provided: the path system of a finite regular graph, whose
coefficient algebra is exel_path's locally constant functions with exact
radical values, and the matrix-tower system, whose coefficient algebra is the
tensor elements of uhf_cuntz.
"""

from __future__ import annotations

from itertools import product
from types import MappingProxyType

import numpy as np

from .core_endo import CoreEndo
from .exel_path import DepthFunction, alpha_shift, transfer_L
from .graph import Graph, Path
from .scalar import ONE, Radical, scalar
from .star_algebra import StarElement, matrix_unit, path_isometry, unit
from .uhf_cuntz import TensorElement, UhfSystem, uhf_L, uhf_alpha
from .uhf_cuntz import words as tensor_words
from .util import CheckReport, Memo, accumulate


class TruncationDepthError(ValueError):
    """The requested truncation cannot hold the shifted unit."""


# -- the two frame systems ---------------------------------------------------------


class GraphFrameSystem:
    """Frame indexed by edges; F_e is the scaled cylinder indicator with
    scaling the square root of the out-degree at s(e).  The coefficient
    algebra is exel_path's DepthFunction with Radical values."""

    kind = "graph"

    def __init__(self, graph: Graph):
        if not graph.path_space_admissible:
            raise ValueError("graph must have no sinks and no singular vertices")
        self.graph = graph
        self.indices = graph.edge_names
        self._count = {v: len(graph.out_edges(v)) for v in graph.vertices}
        self._unit = DepthFunction.constant(graph, ONE)
        self._zero = DepthFunction(graph, 0)
        self.memo = Memo()

    def unit(self) -> DepthFunction:
        return self._unit

    def zero(self) -> DepthFunction:
        return self._zero

    def a_text(self, a: DepthFunction) -> str:
        # "F <path> <value>" lines sort in the order of their path texts
        return "".join(sorted(a.text().splitlines(keepends=True))) or "0\n"

    def alpha(self, a: DepthFunction) -> DepthFunction:
        return alpha_shift(a)

    def L(self, a: DepthFunction) -> DepthFunction:
        return transfer_L(a)

    def restrict_edge(self, b: DepthFunction, e: str) -> DepthFunction:
        """The function rho -> b(e.rho) on the cylinder reaching s(e)."""
        g = self.graph
        if b.depth == 0:
            x = b.values.get(g.empty_path(g.rng(e)))
            return DepthFunction._wrap(g, 0, {g.empty_path(g.src(e)): x} if x else {})
        out = {g.drop_first(q): x for q, x in b.values.items() if q.edges[0] == e}
        return DepthFunction._wrap(g, b.depth - 1, out)

    def act1(self, e: str, b: DepthFunction, f: str) -> DepthFunction:
        if e != f:
            return self.zero()
        return self.restrict_edge(b, e)

    def qcoord(self, e: str, a: DepthFunction) -> DepthFunction:
        return self.restrict_edge(a, e) * Radical.inv_sqrt(self._count[self.graph.src(e)])

    def frame_rep(self, e: str) -> DepthFunction:
        mu = self.graph.path([e])
        return DepthFunction(self.graph, 1, {mu: Radical.sqrt(self._count[self.graph.src(e)])})

    def basis(self, depth: int) -> list:
        return [DepthFunction(self.graph, depth, {mu: ONE}) for mu in self.graph.paths(depth)]

    def psd_blocks(self, entries: list[list[DepthFunction]]):
        depth = max((entry.depth for row in entries for entry in row), default=0)
        blocks = []
        for lam in self.graph.paths(depth):
            blocks.append(np.array([[float(entry.value(lam)) for entry in row]
                                    for row in entries]))
        return blocks


def graph_frame_system(g: Graph) -> GraphFrameSystem:
    """The frame system of g, built once per graph object and kept in the
    graph's memo, so that it and its memoized U data live as long as g."""
    return g.memo.get("frame system", lambda: GraphFrameSystem(g))


class UhfFrameSystem:
    """Frame indexed by the pairs (i, j); the basis is orthonormal."""

    kind = "uhf"

    def __init__(self, sys: UhfSystem):
        self.sys = sys
        self.indices = tuple(sys.indices())
        self.memo = Memo()

    def unit(self) -> TensorElement:
        return TensorElement.identity(self.sys.n, 0)

    def zero(self) -> TensorElement:
        return TensorElement(self.sys.n, 0)

    def a_text(self, a) -> str:
        return a.text()

    def alpha(self, a):
        return uhf_alpha(self.sys, a)

    def L(self, a):
        return uhf_L(self.sys, a)

    def act1(self, ij, b, kl):
        i, j = ij
        k, l = kl
        prod = self.sys.matrix_unit(j, i) * b * self.sys.matrix_unit(k, l)
        return uhf_L(self.sys, prod) * self.sys.N

    def qcoord(self, ij, a):
        i, j = ij
        return uhf_L(self.sys, self.sys.matrix_unit(j, i) * a) * Radical.sqrt(self.sys.N)

    def frame_rep(self, ij):
        i, j = ij
        return TensorElement.unit_entry(self.sys.n, (i,), (j,), Radical.sqrt(self.sys.N))

    def basis(self, depth: int) -> list:
        ws = tensor_words(self.sys.n, depth)
        return [TensorElement.unit_entry(self.sys.n, mu, nu)
                for mu in ws for nu in ws]

    def psd_blocks(self, entries):
        depth = max((entry.k for row in entries for entry in row), default=0)
        lifted = [[entry.lift(depth) for entry in row] for row in entries]
        blocks = [[cell.to_numeric() for cell in row] for row in lifted]
        return [np.block(blocks)]


# -- the left action and module elements ---------------------------------------------


def _left_act_word(system, b, w: tuple) -> dict:
    """Coordinates of b . F_w, by frame reconstruction one letter at a time."""
    if not w:
        return {(): b}
    out: dict[tuple, object] = {}
    for i in system.indices:
        b1 = system.act1(i, b, w[0])
        if b1.is_zero():
            continue
        for v, d in _left_act_word(system, b1, w[1:]).items():
            accumulate(out, (i,) + v, d)
    return out


def _act(system, b, coords: dict) -> dict:
    """Frame coordinates of sum_w b . F_w c_w; with b the unit, the Gram
    projection of the coordinates c."""
    out: dict[tuple, object] = {}
    for w, c in coords.items():
        for v, d in _left_act_word(system, b, w).items():
            accumulate(out, v, d * c)
    return out


def _same(a: dict, b: dict) -> bool:
    """Two canonical maps agree: the same keys, and equal entries."""
    return a.keys() == b.keys() and all(a[k].equal(b[k]) for k in a)


class ModuleElement:
    """Degree-i element in frame coordinates: a finite map from i-letter
    index words to coefficient-algebra entries."""

    __slots__ = ("system", "degree", "coords", "source")

    def __init__(self, system, degree: int, coords: dict | None = None, source=None):
        self.system = system
        self.degree = degree
        self.coords = {}
        if coords:
            for w, c in coords.items():
                if len(w) != degree:
                    raise ValueError("word %r has length != degree %d" % (w, degree))
                if not c.is_zero():
                    self.coords[w] = c
        self.source = source

    @classmethod
    def zero(cls, system, degree: int = 1) -> "ModuleElement":
        return cls(system, degree)

    @classmethod
    def basis_word(cls, system, word: tuple) -> "ModuleElement":
        return cls(system, len(word), {tuple(word): system.unit()})

    @classmethod
    def from_algebra(cls, system, a) -> "ModuleElement":
        """q(a) in frame coordinates; remembers a for reconstruction checks."""
        coords = {}
        for j in system.indices:
            c = system.qcoord(j, a)
            if not c.is_zero():
                coords[(j,)] = c
        return cls(system, 1, coords, source=a)

    def __add__(self, other):
        if other.degree != self.degree or other.system is not self.system:
            raise ValueError("degree or system mismatch")
        out = dict(self.coords)
        for w, c in other.coords.items():
            accumulate(out, w, c)
        return ModuleElement(self.system, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(Radical.from_rational(-1))

    def scale(self, c: Radical) -> "ModuleElement":
        return ModuleElement(self.system, self.degree,
                             {w: x * c for w, x in self.coords.items()})

    def right_mul(self, b) -> "ModuleElement":
        return ModuleElement(self.system, self.degree,
                             {w: c * b for w, c in self.coords.items()})

    def inner(self, other: "ModuleElement"):
        """<self, other> = sum_w c_w^* (G d)_w in the coefficient algebra."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        canon = other.canonical_coords()
        total = self.system.zero()
        for w, c in self.coords.items():
            d = canon.get(w)
            if d is not None:
                total = total + c.adjoint() * d
        return total

    def canonical_coords(self) -> dict:
        """Gram-projected coordinates; equal vectors mean equal elements."""
        return _act(self.system, self.system.unit(), self.coords)

    def equal(self, other: "ModuleElement") -> bool:
        return (other.degree == self.degree
                and _same(self.canonical_coords(), other.canonical_coords()))

    def is_null(self) -> bool:
        return not self.canonical_coords()

    def text(self) -> str:
        sys = self.system
        lines = []
        for w, c in sorted(self.coords.items(), key=lambda kv: repr(kv[0])):
            lines.append("%r:\n%s" % (w, sys.a_text(c)))
        return "\n".join(lines) + "\n" if lines else "0\n"

    def __repr__(self):
        return "ModuleElement(degree=%d, %d words)" % (self.degree, len(self.coords))


def left_act(system, b, m: ModuleElement) -> ModuleElement:
    """The left action of the coefficient algebra through the frame."""
    return ModuleElement(system, m.degree, _act(system, b, m.coords))


def tensor(m1: ModuleElement, m2: ModuleElement) -> ModuleElement:
    """m1 (x) m2 over the coefficient algebra: inner coefficients move right."""
    sys = m1.system
    out: dict[tuple, object] = {}
    for v, c in m1.coords.items():
        moved = left_act(sys, c, m2)
        for w, d in moved.coords.items():
            accumulate(out, v + w, d)
    return ModuleElement(sys, m1.degree + m2.degree, out)


# -- frames ---------------------------------------------------------------------------


def canonical_frame(system) -> CheckReport:
    """The Gram identities of the system's standard frame: the entry
    <F_i, F_j> that the left action reads, act1(i, 1, j), equals the
    module inner product L(f_i^* f_j) of the frame representatives."""
    report = CheckReport("frame Gram identities")
    for i in system.indices:
        for j in system.indices:
            got = system.act1(i, system.unit(), j)
            expected = system.L(system.frame_rep(i).adjoint() * system.frame_rep(j))
            report.count()
            if not got.equal(expected):
                report.fail("gram(%s, %s) = %s" % (i, j, system.a_text(got)))
    for i in system.indices:
        report.merge(reconstruct_check(ModuleElement.basis_word(system, (i,))))
    return report


def reconstruct_check(m: ModuleElement) -> CheckReport:
    """Parseval identity for m; q-images also get the representative test
    through the transfer-operator null criterion."""
    sys = m.system
    report = CheckReport("frame reconstruction")
    recon = ModuleElement(sys, m.degree, m.canonical_coords())
    report.count()
    if not recon.equal(m):
        report.fail("sum F_w <F_w, m> differs from m for m=\n%s" % m.text())
    if m.source is not None:
        a = m.source
        rep = sys.zero()
        for j in sys.indices:
            h = recon.coords.get((j,), sys.zero())
            rep = rep + sys.frame_rep(j) * sys.alpha(h)
        diff = rep + a * Radical.from_rational(-1)
        gap = sys.L(diff.adjoint() * diff)
        report.count()
        if not gap.is_zero():
            report.fail("representative differs from a by a non-null vector: %s"
                        % sys.a_text(gap))
    return report


# -- the isometries U and U_i -----------------------------------------------------------


def u_element(system) -> ModuleElement:
    """q(alpha(1)), the degree-1 element implementing U.  Computed once per
    system; the element is shared, and its coordinates are read-only."""
    def compute():
        u = ModuleElement.from_algebra(system, system.alpha(system.unit()))
        u.coords = MappingProxyType(u.coords)
        return u
    return system.memo.get("u", compute)


def U_map(system, m: ModuleElement) -> ModuleElement:
    """U_i m = q(alpha(1)) (x) m, raising the degree by one."""
    return tensor(u_element(system), m)


def U_star_map(system, m: ModuleElement) -> ModuleElement:
    """The adjoint: F_j (x) rest maps to L(f_j) . rest.  The map
    j -> L(f_j) is computed once per system."""
    if m.degree < 1:
        raise ValueError("U* lowers degree; need degree >= 1")
    sys = system
    lf = sys.memo.get("L(f)", lambda: MappingProxyType(
        {j: sys.L(sys.frame_rep(j)) for j in sys.indices}))
    out: dict[tuple, object] = {}
    for w, d in m.coords.items():
        j, rest = w[0], w[1:]
        b = lf[j]
        if b.is_zero():
            continue
        for v, e in _left_act_word(sys, b, rest).items():
            accumulate(out, v, e * d)
    return ModuleElement(sys, m.degree - 1, out)


def build_U(system, depth: int) -> tuple[ModuleElement, CheckReport]:
    """The coordinate column of U with the isometry and transfer identities
    verified over the depth-truncated coefficient basis."""
    if depth < 1:
        raise TruncationDepthError("depth %d cannot hold the shifted unit" % depth)
    u = u_element(system)
    report = CheckReport("U isometry at truncation depth %d" % depth)
    for a in system.basis(depth):
        ua = u.right_mul(a)
        back = U_star_map(system, ua)
        report.count()
        if not (len(back.coords) <= 1 and
                back.coords.get((), system.zero()).equal(a)):
            report.fail("U*U differs from the identity at a=\n%s" % system.a_text(a))
        qa = ModuleElement.from_algebra(system, a)
        la = U_star_map(system, qa).coords.get((), system.zero())
        report.count()
        if not la.equal(system.L(a)):
            report.fail("U*(q(a)) differs from L(a) at a=\n%s" % system.a_text(a))
    return u, report


def u_isometry_report(system, degree: int) -> CheckReport:
    """U_i* U_i = 1 on the degree-i coordinate basis, plus the two module
    identities tying U_i to alpha and L on degree-1 generators."""
    report = CheckReport("U_%d isometry" % degree)
    basis_words = list(product(system.indices, repeat=degree))
    for w in basis_words:
        m = ModuleElement.basis_word(system, w)
        report.count()
        if not U_star_map(system, U_map(system, m)).equal(m):
            report.fail("U*U fails on the basis word %r" % (w,))
    for a in system.basis(1):
        for w in basis_words:
            m = ModuleElement.basis_word(system, w)
            lhs = U_map(system, left_act(system, a, m))
            rhs = tensor(ModuleElement.from_algebra(system, system.alpha(a)), m)
            report.count()
            if not lhs.equal(rhs):
                report.fail("U(a.m) differs from q(alpha(a)) (x) m at %r" % (w,))
            qa = ModuleElement.from_algebra(system, a)
            lhs2 = U_star_map(system, tensor(qa, m))
            rhs2 = left_act(system, system.L(a), m)
            report.count()
            if not lhs2.equal(rhs2):
                report.fail("U*(q(a) (x) m) differs from L(a).m at %r" % (w,))
    return report


# -- compact operators -------------------------------------------------------------------


class CompactOp:
    """Finite matrix over the coefficient algebra acting on degree-i coordinates."""

    __slots__ = ("system", "degree", "entries")

    def __init__(self, system, degree: int, entries: dict | None = None):
        self.system = system
        self.degree = degree
        self.entries = {}
        if entries:
            for (w, v), c in entries.items():
                if len(w) != degree or len(v) != degree:
                    raise ValueError("entry (%r, %r) has wrong degree" % (w, v))
                if not c.is_zero():
                    self.entries[(w, v)] = c

    @classmethod
    def from_theta(cls, m: ModuleElement, n: ModuleElement) -> "CompactOp":
        """The rank-one operator x -> m <n, x>: its (w, v) entry is
        c_w (G d)_v^*, since the Gram matrix G is self-adjoint."""
        if m.degree != n.degree:
            raise ValueError("theta needs equal degrees")
        canon = n.canonical_coords()
        return cls(m.system, m.degree, {(w, v): c * d.adjoint()
                                        for v, d in canon.items()
                                        for w, c in m.coords.items()})

    def apply(self, m: ModuleElement) -> ModuleElement:
        sys = self.system
        out: dict[tuple, object] = {}
        for (w, v), c in self.entries.items():
            d = m.coords.get(v)
            if d is not None:
                accumulate(out, w, c * d)
        return ModuleElement(sys, self.degree, out)

    def compose(self, other: "CompactOp") -> "CompactOp":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        sys = self.system
        by_row: dict[tuple, list] = {}
        for (u, v), c in other.entries.items():
            by_row.setdefault(u, []).append((v, c))
        out: dict[tuple, object] = {}
        for (w, u), c in self.entries.items():
            for v, d in by_row.get(u, ()):
                accumulate(out, (w, v), c * d)
        return CompactOp(sys, self.degree, out)

    def add(self, other: "CompactOp") -> "CompactOp":
        sys = self.system
        out = dict(self.entries)
        for key, c in other.entries.items():
            accumulate(out, key, c)
        return CompactOp(sys, self.degree, out)

    def adjoint(self) -> "CompactOp":
        sys = self.system
        return CompactOp(sys, self.degree,
                         {(v, w): c.adjoint() for (w, v), c in self.entries.items()})

    def canonical_entries(self) -> dict:
        """Left-multiply by the Gram matrix; equal results mean equal operators."""
        sys = self.system
        columns: dict[tuple, dict] = {}
        for (w, v), c in self.entries.items():
            columns.setdefault(v, {})[w] = c
        return {(u, v): d for v, col in columns.items()
                for u, d in _act(sys, sys.unit(), col).items()}

    def equal(self, other: "CompactOp") -> bool:
        return (other.degree == self.degree
                and _same(self.canonical_entries(), other.canonical_entries()))

    def is_null(self) -> bool:
        return not self.canonical_entries()

    def __repr__(self):
        return "CompactOp(degree=%d, %d entries)" % (self.degree, len(self.entries))


def _check_restriction(sys, degree: int) -> bool:
    """U at degree+1 restricts to U at degree on simple tensors, checked on
    the coordinate basis; raises RuntimeError when it does not."""
    for w in product(sys.indices, repeat=degree):
        m = ModuleElement.basis_word(sys, w)
        for j in sys.indices:
            lhs = U_map(sys, tensor(m, ModuleElement.basis_word(sys, (j,))))
            rhs = tensor(U_map(sys, m), ModuleElement.basis_word(sys, (j,)))
            if not lhs.equal(rhs):
                raise RuntimeError("U at degree %d does not restrict from degree %d"
                                   % (degree + 1, degree))
    return True


def _u_star_columns(sys, degree: int):
    """U*(F_v) for every word v of length degree+1, in product order, and the
    inverse index u -> positions of the v whose U*(F_v) has a coordinate at
    u.  Computed once per system and degree."""
    def compute():
        columns = tuple((v, U_star_map(sys, ModuleElement.basis_word(sys, v)))
                        for v in product(sys.indices, repeat=degree + 1))
        reach: dict[tuple, list] = {}
        for pos, (_, back) in enumerate(columns):
            for u in back.coords:
                reach.setdefault(u, []).append(pos)
        return columns, MappingProxyType(reach)
    return sys.memo.get(("U* columns", degree), compute)


def conj_beta(T: CompactOp) -> CompactOp:
    """U_i T U_i*, one degree up.  The compatibility of consecutive V's
    (U at degree i+1 restricting to U at degree i on simple tensors) is
    verified on the coordinate basis before conjugating, once per system
    and degree; a failed check is not remembered and raises on every call.

    Column v of the result is U T U*(F_v).  The vectors U*(F_v) are
    memoized per system and degree, and only the columns whose U*(F_v) has
    a coordinate at a column word of T are computed: T sends every other
    one to zero.  Columns are visited in product order, so the entries keep
    the order of the all-columns loop."""
    sys = T.system
    sys.memo.get(("restricts", T.degree), lambda: _check_restriction(sys, T.degree))
    columns, reach = _u_star_columns(sys, T.degree)
    hit = {pos for _, u in T.entries for pos in reach.get(u, ())}
    entries: dict[tuple, object] = {}
    for pos in sorted(hit):
        v, back = columns[pos]
        col = U_map(sys, T.apply(back))
        for w, c in col.coords.items():
            entries[(w, v)] = c
    return CompactOp(sys, T.degree + 1, entries)


def compact_to_star(T: CompactOp) -> StarElement:
    """The dictionary into the graph algebra: the (w, v) entry contributes
    t_w pi(entry) t_v^*, with pi sending an indicator to its diagonal word sum."""
    sys = T.system
    if sys.kind != "graph":
        raise ValueError("the star dictionary applies to the graph system")
    g = sys.graph
    out = StarElement.zero(g)
    for (w, v), b in T.entries.items():
        try:
            tw, tv = path_isometry(g, g.path(w)), path_isometry(g, g.path(v))
        except ValueError:
            # a word that is not a path of g has the zero isometry
            continue
        mid = StarElement(g, {(lam, lam): scalar(c) for lam, c in b.values.items()})
        out = out + tw * mid * tv.adjoint()
    return out


def beta_crosscheck(g: Graph, mu: Path, nu: Path) -> CheckReport:
    """Conjugation by U on the rank-one operator of (m_mu, m_nu) must match
    the direct shift of t_mu t_nu^* after translation into the graph algebra.

    All pairs of one graph object share its graph_frame_system, and with
    it the memoized U data."""
    if len(mu) != len(nu):
        raise ValueError("paths must have equal length")
    if len(mu) < 1:
        raise ValueError("need paths of length at least 1")
    report = CheckReport("two-route shift comparison at (%s, %s)" % (mu.text(), nu.text()))
    sys = graph_frame_system(g)
    m_mu = ModuleElement.basis_word(sys, tuple(mu.edges))
    m_nu = ModuleElement.basis_word(sys, tuple(nu.edges))
    theta = CompactOp.from_theta(m_mu, m_nu)

    if mu.src == nu.src:
        word = matrix_unit(g, mu, nu)
    else:
        word = StarElement.zero(g)

    report.count()
    if not compact_to_star(theta).equal(word):
        report.fail("dictionary image of the rank-one operator differs from the word")

    endo = CoreEndo(g)
    lhs = compact_to_star(conj_beta(theta))
    rhs = endo.beta(word)
    report.count()
    if not lhs.equal(rhs):
        report.fail("conjugation route:\n%sdirect route:\n%s" % (lhs.text(), rhs.text()))
    return report


# -- frame-induced representation -----------------------------------------------------


def frame_rep_psi(system, family: dict, pi):
    """psi(m) = sum_i S_i pi(<F_i, m>) for degree-1 m, with the covariance
    package verified on the generators 1 and the degree-1 basis, and on the
    elements F_i and q(b) for the first two basis elements b.

    family maps each frame index to an isometry in a target word algebra and
    pi is a unital homomorphism from the coefficient algebra to that algebra.
    Returns (psi, report).
    """
    indices = tuple(system.indices)
    some = next(iter(family.values()))
    g_t = some.graph
    one = unit(g_t)
    gens = [system.unit()] + system.basis(1)
    elements = [ModuleElement.basis_word(system, (i,)) for i in indices]
    elements += [ModuleElement.from_algebra(system, b) for b in gens[1:3]]

    def psi(m: ModuleElement) -> StarElement:
        if m.degree != 1:
            raise ValueError("psi is defined on degree-1 elements")
        out = StarElement.zero(g_t)
        canon = m.canonical_coords()
        for (i,), c in canon.items():
            out = out + family[i] * pi(c)
        return out

    report = CheckReport("frame representation")
    for i in indices:
        for j in indices:
            for b in gens:
                lhs = family[i].adjoint() * pi(b) * family[j]
                rhs = pi(system.act1(i, b, j))
                report.count()
                if not lhs.equal(rhs):
                    report.fail("S_%s* pi(b) S_%s differs from pi(<F,bF>) at b=\n%s"
                                % (i, j, system.a_text(b)))
    total = StarElement.zero(g_t)
    for i in indices:
        total = total + family[i] * family[i].adjoint()
    report.count()
    if not total.equal(one):
        report.fail("range projections of the family do not sum to 1")

    for i in indices:
        report.count()
        if not psi(ModuleElement.basis_word(system, (i,))).equal(family[i]):
            report.fail("psi(F_%s) differs from S_%s" % (i, i))

    for m in elements:
        pm = psi(m)
        for b in gens:
            report.count()
            if not psi(m.right_mul(b)).equal(pm * pi(b)):
                report.fail("psi(m.b) != psi(m)pi(b) at b=\n%s" % system.a_text(b))
            report.count()
            if not psi(left_act(system, b, m)).equal(pi(b) * pm):
                report.fail("psi(b.m) != pi(b)psi(m) at b=\n%s" % system.a_text(b))
        for n in elements:
            report.count()
            if not (pm.adjoint() * psi(n)).equal(pi(m.inner(n))):
                report.fail("psi(m)*psi(n) differs from pi(<m, n>)")

    for b in gens:
        cov = StarElement.zero(g_t)
        for i in indices:
            fb = left_act(system, b, ModuleElement.basis_word(system, (i,)))
            cov = cov + psi(fb) * psi(ModuleElement.basis_word(system, (i,))).adjoint()
        report.count()
        if not cov.equal(pi(b)):
            report.fail("covariance sum differs from pi(b) at b=\n%s" % system.a_text(b))
    return psi, report


# -- numeric positivity ------------------------------------------------------------------


def gram_psd_check(system, elements: list, tol: float = 1e-9) -> CheckReport:
    """Assemble the Gram matrix of the elements exactly, then check every
    numeric evaluation is positive semidefinite within tol."""
    report = CheckReport("Gram positivity")
    entries = [[mi.inner(mj) for mj in elements] for mi in elements]
    for block in system.psd_blocks(entries):
        sym = 0.5 * (block + block.T)
        lo = float(np.linalg.eigvalsh(sym).min()) if block.size else 0.0
        report.count()
        if lo < -tol:
            report.fail("least eigenvalue %.3e below -%g" % (lo, tol))
    return report
