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

from collections.abc import Mapping
from itertools import product
from types import MappingProxyType

from .core_endo import graph_core_endo
from .exel_path import DepthFunction, alpha_shift, diag, transfer_L
from .graph import Graph, Path
from .scalar import ONE, Radical
from .star_algebra import StarElement, matrix_unit, path_isometry, unit
from .uhf_cuntz import TensorElement, UhfSystem, canonical_cuntz_family, pi_T, uhf_L, uhf_alpha
from .uhf_cuntz import words as tensor_words
from .util import CheckReport, Memo, accumulate, add_maps


class TruncationDepthError(ValueError):
    """The requested truncation cannot hold the shifted unit."""


# -- the two frame systems ---------------------------------------------------------


class GraphFrameSystem:
    """Frame indexed by edges; F_e is the scaled cylinder indicator with
    scaling the square root of the out-degree at s(e).  The coefficient
    algebra is exel_path's DepthFunction with Radical values.  Distinct
    cylinders are disjoint, so act1(e, b, f) is zero unless e == f: the
    partners of f are (f,)."""

    kind = "graph"

    def __init__(self, graph: Graph):
        if not graph.path_space_admissible:
            raise ValueError("graph must have no sinks and no singular vertices")
        self.graph = graph
        self.indices = graph.edge_names
        self.partners = {f: (f,) for f in self.indices}
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
            x = b.terms.get(g.empty_path(g.rng(e)))
            return DepthFunction._wrap(g, 0, {g.empty_path(g.src(e)): x} if x else {})
        out = {g.drop_first(q): x for q, x in b.terms.items() if q.edges[0] == e}
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


def graph_frame_system(g: Graph) -> GraphFrameSystem:
    """The frame system of g, built once per graph object and kept in the
    graph's memo, so that it and its memoized U data live as long as g."""
    return g.memo.get("frame system", lambda: GraphFrameSystem(g))


class UhfFrameSystem:
    """Frame indexed by the pairs (i, j); the basis is orthonormal.
    act1((i, j), b, (k, l)) is zero unless j == l: the partners of (k, l)
    are the (i, l), in index order."""

    kind = "uhf"

    def __init__(self, sys: UhfSystem):
        self.sys = sys
        self.indices = tuple(sys.indices())
        self.partners = {kl: tuple(ij for ij in self.indices if ij[1] == kl[1])
                         for kl in self.indices}
        self._unit = TensorElement.identity(sys.n, 0)
        self._zero = TensorElement(sys.n, 0)
        self.memo = Memo()

    def unit(self) -> TensorElement:
        return self._unit

    def zero(self) -> TensorElement:
        return self._zero

    def a_text(self, a) -> str:
        return a.text()

    def alpha(self, a):
        return uhf_alpha(self.sys, a)

    def L(self, a):
        return uhf_L(self.sys, a)

    def act1(self, ij, b, kl):
        """N L(e_ji b e_kl): the (i, k) block of b when j == l, else zero."""
        i, j = ij
        k, l = kl
        if j != l:
            return TensorElement(self.sys.n, max(b.k, 1) - 1)
        return b.block(i, k)

    def qcoord(self, ij, a):
        """sqrt(N) L(e_ji a), the (i, j) block of a over sqrt(N)."""
        i, j = ij
        return a.block(i, j) * Radical.inv_sqrt(self.sys.N)

    def frame_rep(self, ij):
        i, j = ij
        return TensorElement.unit_entry(self.sys.n, (i,), (j,), Radical.sqrt(self.sys.N))

    def basis(self, depth: int) -> list:
        ws = tensor_words(self.sys.n, depth)
        return [TensorElement.unit_entry(self.sys.n, mu, nu)
                for mu in ws for nu in ws]


# -- the left action and module elements ---------------------------------------------


def _left_act_word(system, b, w: tuple) -> dict:
    """Coordinates of b . F_w, by frame reconstruction one letter at a time.
    Only the partners i of w[0] can have act1(i, b, w[0]) nonzero; they are
    visited in index order, so the sums build as over all indices."""
    if not w:
        return {(): b}
    out: dict[tuple, object] = {}
    for i in system.partners[w[0]]:
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


def _pair(system, c: dict, d: dict):
    """sum_w c_w^* d_w in the coefficient algebra."""
    total = system.zero()
    for w, x in c.items():
        y = d.get(w)
        if y is not None:
            total = total + x.adjoint() * y
    return total


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
        return ModuleElement(self.system, self.degree, add_maps(self.coords, other.coords))

    def right_mul(self, b) -> "ModuleElement":
        return ModuleElement(self.system, self.degree,
                             {w: c * b for w, c in self.coords.items()})

    def inner(self, other: "ModuleElement"):
        """<self, other> = sum_w c_w^* (G d)_w in the coefficient algebra."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return _pair(self.system, self.coords, other.canonical_coords())

    def canonical_coords(self) -> dict:
        """Gram-projected coordinates; equal vectors mean equal elements."""
        return _act(self.system, self.system.unit(), self.coords)

    def equal(self, other: "ModuleElement") -> bool:
        return (other.degree == self.degree
                and _same(self.canonical_coords(), other.canonical_coords()))

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
            report.check(got.equal(expected),
                         lambda: "gram(%s, %s) = %s" % (i, j, system.a_text(got)))
    for i in system.indices:
        report.merge(reconstruct_check(ModuleElement.basis_word(system, (i,))))
    return report


def reconstruct_check(m: ModuleElement) -> CheckReport:
    """Parseval identity for m; q-images also get the representative test
    through the transfer-operator null criterion."""
    sys = m.system
    report = CheckReport("frame reconstruction")
    recon = ModuleElement(sys, m.degree, m.canonical_coords())
    report.check(recon.equal(m), lambda: "sum F_w <F_w, m> differs from m for m=\n%s" % m.text())
    if m.source is not None:
        a = m.source
        rep = sys.zero()
        for j in sys.indices:
            h = recon.coords.get((j,), sys.zero())
            rep = rep + sys.frame_rep(j) * sys.alpha(h)
        diff = rep - a
        gap = sys.L(diff.adjoint() * diff)
        report.check(gap.is_zero(), lambda: "representative differs from a by a non-null "
                     "vector: %s" % sys.a_text(gap))
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
        report.check(len(back.coords) <= 1 and back.coords.get((), system.zero()).equal(a),
                     lambda: "U*U differs from the identity at a=\n%s" % system.a_text(a))
        qa = ModuleElement.from_algebra(system, a)
        la = U_star_map(system, qa).coords.get((), system.zero())
        report.check(la.equal(system.L(a)),
                     lambda: "U*(q(a)) differs from L(a) at a=\n%s" % system.a_text(a))
    return u, report


def u_isometry_report(system, degree: int) -> CheckReport:
    """U_i* U_i = 1 on the degree-i coordinate basis, plus the two module
    identities tying U_i to alpha and L on degree-1 generators."""
    report = CheckReport("U_%d isometry" % degree)
    basis = [(w, ModuleElement.basis_word(system, w))
             for w in product(system.indices, repeat=degree)]
    for w, m in basis:
        report.check(U_star_map(system, U_map(system, m)).equal(m),
                     lambda: "U*U fails on the basis word %r" % (w,))
    for a in system.basis(1):
        q_alpha = ModuleElement.from_algebra(system, system.alpha(a))
        qa = ModuleElement.from_algebra(system, a)
        la = system.L(a)
        for w, m in basis:
            lhs = U_map(system, left_act(system, a, m))
            rhs = tensor(q_alpha, m)
            report.check(lhs.equal(rhs),
                         lambda: "U(a.m) differs from q(alpha(a)) (x) m at %r" % (w,))
            lhs2 = U_star_map(system, tensor(qa, m))
            rhs2 = left_act(system, la, m)
            report.check(lhs2.equal(rhs2),
                         lambda: "U*(q(a) (x) m) differs from L(a).m at %r" % (w,))
    return report


# -- compact operators -------------------------------------------------------------------


class CompactOp:
    """Finite matrix over the coefficient algebra on degree-i coordinates.
    The entry c at (w, v) stands for theta(F_w c, F_v), so the operator is
    the sum of those rank-one operators; from_theta's entries c_w (G d)_v^*
    sum to theta(m, n) this way."""

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

    def __repr__(self):
        return "CompactOp(degree=%d, %d entries)" % (self.degree, len(self.entries))


def _check_restriction(sys, degree: int) -> bool:
    """U at degree+1 restricts to U at degree on simple tensors, checked on
    the coordinate basis; raises RuntimeError when it does not."""
    frame = [ModuleElement.basis_word(sys, (j,)) for j in sys.indices]
    for w in product(sys.indices, repeat=degree):
        m = ModuleElement.basis_word(sys, w)
        um = U_map(sys, m)
        for f in frame:
            lhs = U_map(sys, tensor(m, f))
            rhs = tensor(um, f)
            if not lhs.equal(rhs):
                raise RuntimeError("U at degree %d does not restrict from degree %d"
                                   % (degree + 1, degree))
    return True


def conj_beta(T: CompactOp) -> CompactOp:
    """U_i T U_i*, one degree up.  The compatibility of consecutive V's
    (U at degree i+1 restricting to U at degree i on simple tensors) is
    verified on the coordinate basis before conjugating, once per system
    and degree; a failed check is not remembered and raises on every call.

    The entry c at (w, v) is theta(F_w c, F_v), and U theta(x, y) U* is
    theta(Ux, Uy), so each entry adds the entries of theta(U(F_w c), U(F_v))."""
    sys = T.system
    sys.memo.get(("restricts", T.degree), lambda: _check_restriction(sys, T.degree))
    entries: dict[tuple, object] = {}
    for (w, v), c in T.entries.items():
        theta = CompactOp.from_theta(U_map(sys, ModuleElement(sys, T.degree, {w: c})),
                                     U_map(sys, ModuleElement.basis_word(sys, v)))
        for key, d in theta.entries.items():
            accumulate(entries, key, d)
    return CompactOp(sys, T.degree + 1, entries)


def compact_to_star(T: CompactOp) -> StarElement:
    """The dictionary into the graph algebra: the (w, v) entry contributes
    t_w diag(entry) t_v^*, with diag sending an indicator to its diagonal word sum."""
    sys = T.system
    if sys.kind != "graph":
        raise ValueError("the star dictionary applies to the graph system")
    g = sys.graph
    out: dict[tuple, object] = {}
    for (w, v), b in T.entries.items():
        try:
            tw, tv = path_isometry(g, g.path(w)), path_isometry(g, g.path(v))
        except ValueError:
            # a word that is not a path of g has the zero isometry
            continue
        for word, c in (tw * diag(b) * tv.adjoint()).items():
            accumulate(out, word, c)
    return StarElement._wrap(g, out)


def beta_crosscheck(g: Graph, mu: Path, nu: Path) -> CheckReport:
    """Conjugation by U on the rank-one operator of (m_mu, m_nu) must match
    the direct shift of t_mu t_nu^* after translation into the graph algebra.

    All pairs of one graph object share its graph_frame_system, with the
    memoized U data, and one CoreEndo, both kept in the graph's memo."""
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

    report.check(compact_to_star(theta).equal(word),
                 lambda: "dictionary image of the rank-one operator differs from the word")

    lhs = compact_to_star(conj_beta(theta))
    rhs = graph_core_endo(g).beta(word)
    report.check(lhs.equal(rhs),
                 lambda: "conjugation route:\n%sdirect route:\n%s" % (lhs.text(), rhs.text()))
    return report


# -- frame-induced representation -----------------------------------------------------


def frame_rep_psi(system, family: Mapping, pi):
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
    frame = [ModuleElement.basis_word(system, (i,)) for i in indices]
    elements = frame + [ModuleElement.from_algebra(system, b) for b in gens[1:3]]

    def psi(m: ModuleElement) -> StarElement:
        if m.degree != 1:
            raise ValueError("psi is defined on degree-1 elements")
        out = StarElement.zero(g_t)
        canon = m.canonical_coords()
        for (i,), c in canon.items():
            out = out + family[i] * pi(c)
        return out

    images = [(b, pi(b)) for b in gens]
    # psi of every element once, the frame's first: psi(F_i) serves all three checks
    psi_elements = [psi(m) for m in elements]
    report = CheckReport("frame representation")
    for i in indices:
        left = family[i].adjoint()
        left_images = [(b, left * pb) for b, pb in images]
        for j in indices:
            for b, left_pb in left_images:
                lhs = left_pb * family[j]
                rhs = pi(system.act1(i, b, j))
                report.check(lhs.equal(rhs), lambda: "S_%s* pi(b) S_%s differs from pi(<F,bF>) "
                             "at b=\n%s" % (i, j, system.a_text(b)))
    total = StarElement.zero(g_t)
    for i in indices:
        total = total + family[i] * family[i].adjoint()
    report.check(total.equal(one), lambda: "range projections of the family do not sum to 1")

    for i, pf in zip(indices, psi_elements):
        report.check(pf.equal(family[i]), lambda: "psi(F_%s) differs from S_%s" % (i, i))

    for m, pm in zip(elements, psi_elements):
        for b, pb in images:
            report.check(psi(m.right_mul(b)).equal(pm * pb),
                         lambda: "psi(m.b) != psi(m)pi(b) at b=\n%s" % system.a_text(b))
            report.check(psi(left_act(system, b, m)).equal(pb * pm),
                         lambda: "psi(b.m) != pi(b)psi(m) at b=\n%s" % system.a_text(b))
        pm_adj = pm.adjoint()
        for n, pn in zip(elements, psi_elements):
            report.check((pm_adj * pn).equal(pi(m.inner(n))),
                         lambda: "psi(m)*psi(n) differs from pi(<m, n>)")

    frame_adj = [pf.adjoint() for pf in psi_elements[:len(frame)]]
    for b, pb in images:
        cov = StarElement.zero(g_t)
        for f, pf_adj in zip(frame, frame_adj):
            cov = cov + psi(left_act(system, b, f)) * pf_adj
        report.check(cov.equal(pb),
                     lambda: "covariance sum differs from pi(b) at b=\n%s" % system.a_text(b))
    return psi, report


def iso_generators_check(sys: UhfSystem) -> CheckReport:
    """Frame representation onto the n*N-isometry algebra: every generator is
    the image of a basis element, with degree-1 homogeneity."""
    report = CheckReport("generator correspondence (n=%d, N=%d)" % (sys.n, sys.N))
    fsys = UhfFrameSystem(sys)
    _, family = canonical_cuntz_family(sys)
    psi, rep = frame_rep_psi(fsys, family, lambda b: pi_T(sys, family, b))
    report.merge(rep)
    for (i, j) in sys.indices():
        image = psi(ModuleElement.basis_word(fsys, ((i, j),)))
        expected = family[(i, j)]
        report.check(image.equal(expected),
                     lambda: "psi(E_%d%d) differs from the generator s%d_%d" % (i, j, i, j))
        degrees = list(image.degree_decompose())
        report.check(degrees == [1],
                     lambda: "psi(E_%d%d) not homogeneous of degree 1: %s" % (i, j, degrees))
    return report


# -- positivity ------------------------------------------------------------------------


def gram_psd_check(system, elements: list) -> CheckReport:
    """The Gram matrix of the elements is C^* C, so positive, exactly: the
    frame is Parseval, so its Gram matrix G is a self-adjoint projection and
    <m_i, m_j> = c_i^* G c_j = (G c_i)^* (G c_j), with G c the canonical
    coordinates.  Each entry is checked against that sum."""
    report = CheckReport("Gram positivity")
    canon = [m.canonical_coords() for m in elements]
    for i, (mi, ci) in enumerate(zip(elements, canon)):
        for j, (mj, cj) in enumerate(zip(elements, canon)):
            got, square = mi.inner(mj), _pair(system, ci, cj)
            report.check(got.equal(square), lambda: "<m_%d, m_%d> differs from "
                         "(G c_%d)^* (G c_%d):\n%s" % (i, j, i, j, system.a_text(got)))
    return report
