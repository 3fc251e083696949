"""Smith form over the integers and the K-groups it unlocks.

The two consumers are the stationary graph-core systems, where the stage
group is Z^{vertices} and the comparison matrix is built from honest symbolic
expansions, and the six-term sequence for a crossed product by a single
endomorphism, where the caller supplies the induced matrix and the two
unknown corners come out as a cokernel and a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core_endo import CoreEndo
from .graph import Graph
from .star_algebra import StarElement, matrix_unit
from .util import CheckReport, bareiss


class StabilizationError(RuntimeError):
    """Consecutive stages disagreed where the inductive system should have settled."""


def _dims(m) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    ra, ca = _dims(a)
    rb, cb = _dims(b)
    if ca != rb:
        raise ValueError("shape mismatch")
    return [[sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)]
            for i in range(ra)]


def int_det(m) -> int:
    """Exact determinant by fraction-free elimination."""
    n, c = _dims(m)
    if n != c:
        raise ValueError("determinant needs a square matrix")
    return bareiss([[int(x) for x in row] for row in m], n)


def smith_normal_form(m) -> tuple[list, list, list]:
    """U M V = D with U, V unimodular and D diagonal with a divisibility
    chain of nonnegative entries.  Verified before returning."""
    rows, cols = _dims(m)
    a = [[int(x) for x in row] for row in m]
    u = _identity(rows)
    v = _identity(cols)

    def row_axpy(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def col_axpy(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        # move the smallest nonzero of the trailing block to the pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_axpy(i, t, -(a[i][t] // a[t][t]))
                dirty = dirty or bool(a[i][t])
        for j in range(t + 1, cols):
            if a[t][j]:
                col_axpy(j, t, -(a[t][j] // a[t][t]))
                dirty = dirty or bool(a[t][j])
        if dirty or any(a[i][t] for i in range(t + 1, rows)) \
                or any(a[t][j] for j in range(t + 1, cols)):
            continue
        # pivot divides everything below-right, or gets a witness row added
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_axpy(t, culprit, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = a
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        raise RuntimeError("transforms drifted from unimodularity")
    if _mat_mul(_mat_mul(u, [list(r) for r in m]), v) != d:
        raise RuntimeError("U M V does not reproduce the diagonal")
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j]:
                raise RuntimeError("off-diagonal residue at (%d, %d)" % (i, j))
    for x, y in zip(diag, diag[1:]):
        if x < 0 or (x == 0 and y != 0) or (x > 0 and y % x):
            raise RuntimeError("diagonal %r breaks the divisibility chain" % (diag,))
    return u, d, v


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x:
                raise ValueError("torsion %r breaks the divisibility chain" % (self.torsion,))
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion factors must be at least 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order when finite, else None."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def text(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "GroupPresentation(%s)" % self.text()


def coker_ker(m) -> tuple[GroupPresentation, int]:
    """Cokernel presentation and kernel rank of a square integer matrix."""
    rows, cols = _dims(m)
    if rows != cols:
        raise ValueError("map must be square")
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(rows)]
    rank = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x >= 2)
    return GroupPresentation(rows - rank, torsion), cols - rank


def lattice_solve(m, target: list) -> list | None:
    """Integer solution x of M x = target, or None."""
    rows, cols = _dims(m)
    if len(target) != rows:
        raise ValueError("target length mismatch")
    u, d, v = smith_normal_form(m)
    t = [sum(u[i][j] * target[j] for j in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di:
            if t[i] % di:
                return None
            y[i] = t[i] // di
        elif t[i]:
            return None
    return [sum(v[i][j] * y[j] for j in range(cols)) for i in range(cols)]


# -- graph cores --------------------------------------------------------------------


def vertex_matrix(g: Graph) -> tuple[list[str], list[list[int]]]:
    """A[v][w] = number of edges with range v and source w."""
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    a = [[0] * len(verts) for _ in verts]
    for e in g.edge_names:
        a[pos[g.rng(e)]][pos[g.src(e)]] += 1
    return verts, a


def _connecting_matrix(g: Graph, verts: list[str]) -> list[list[int]]:
    """Column v counts, per source vertex, the words appearing when the
    vertex projection is expanded one level."""
    pos = {v: i for i, v in enumerate(verts)}
    c = [[0] * len(verts) for _ in verts]
    for v in verts:
        p = StarElement.word(g, 1, g.empty_path(v), g.empty_path(v))
        for (mu, nu), coeff in p.expand_to_level(1).items():
            if mu != nu or coeff != 1:
                raise RuntimeError("expansion of a vertex projection is not diagonal")
            c[pos[mu.src]][pos[v]] += 1
    return c


def _source_path(g: Graph, v: str, length: int):
    """Some path with source v, grown by prepending out-edges at the range."""
    p = g.empty_path(v)
    for _ in range(length):
        e = g.out_edges(p.rng)[0]
        p = g.prepend_edge(e, p)
    return p


def _stage_beta_matrix(g: Graph, endo: CoreEndo, verts: list[str], level: int,
                       report: CheckReport) -> list[list[int]]:
    """Class vector of the shift of one minimal level projection per vertex,
    read off from rational diagonal traces per source block."""
    pos = {v: i for i, v in enumerate(verts)}
    t = [[0] * len(verts) for _ in verts]
    for v in verts:
        mu = _source_path(g, v, level)
        q = endo.beta(matrix_unit(g, mu, mu))
        report.count()
        if not (q * q).equal(q) or not q.adjoint().equal(q):
            report.fail("shift of the minimal projection at %s is not a projection" % v)
        traces: dict[str, Fraction] = {}
        for (kap, lam), coeff in q.items():
            if kap != lam:
                continue
            if not coeff.is_rational():
                report.count()
                report.fail("irrational diagonal coefficient at %s" % v)
                continue
            traces[kap.src] = traces.get(kap.src, Fraction(0)) + coeff.rational_part()
        for w, tr in traces.items():
            report.count()
            if tr.denominator != 1:
                report.fail("block trace %s at (%s, %s) is not an integer" % (tr, w, v))
            else:
                t[pos[w]][pos[v]] += int(tr)
    return t


@dataclass(frozen=True)
class GraphKTheory:
    k0: GroupPresentation
    k1: GroupPresentation
    connecting: list
    beta_star: list
    stage_matrix: list
    report: CheckReport


def graph_k_theory(g: Graph) -> GraphKTheory:
    """K-groups of the crossed product of the stationary core by its shift.

    The stage group is Z^{vertices}; the inclusion of consecutive cores acts
    by the expansion-multiplicity matrix and the shift acts by the trace
    matrix of shifted minimal projections.  Both are computed symbolically
    at stages 1 and 2, and the stabilization of the resulting presentations
    is checked rather than assumed."""
    if not g.all_regular:
        raise ValueError("every vertex must receive an edge")
    if not g.beta_admissible:
        raise ValueError("every vertex must emit an edge")
    report = CheckReport("stationary K-theory of %d vertices" % len(g.vertices))
    verts, a = vertex_matrix(g)
    c = _connecting_matrix(g, verts)
    report.count()
    if c != [[a[j][i] for j in range(len(verts))] for i in range(len(verts))]:
        report.fail("symbolic expansion disagrees with the transposed vertex matrix")

    n = len(verts)
    stages = []
    for level in (1, 2):
        t = _stage_beta_matrix(g, CoreEndo(g), verts, level, report)
        m = [[c[i][j] - t[i][j] for j in range(n)] for i in range(n)]
        stages.append((coker_ker(m), m, t))
    (pres1, m1, _), (pres, m, t) = stages
    report.count()
    if pres1 != pres or m1 != m:
        report.fail("stages disagree: %s vs %s" % (pres1, pres))
    k0, ker_rank = pres
    # the inclusion acts on each stage cokernel as multiplication by the
    # connecting matrix; stable means that action is the identity
    for j in range(n):
        target = [c[i][j] - (1 if i == j else 0) for i in range(n)]
        report.count()
        if lattice_solve(m, target) is None:
            report.fail("inclusion moves the class of vertex %s" % verts[j])
    if not report.passed:
        raise StabilizationError("\n".join(report.lines()))
    return GraphKTheory(k0, GroupPresentation(ker_rank), c, t, m, report)


# -- the six-term sequence ------------------------------------------------------------


@dataclass(frozen=True)
class PaschkeResult:
    k0: GroupPresentation | None
    k1: GroupPresentation | None
    af_assumed: bool
    diagram: str


def paschke_sequence(beta_star, k1_of_core_is_zero: bool) -> PaschkeResult:
    """Six-term sequence for a crossed product by a single endomorphism,
    with the induced map on K_0 of the core supplied by the caller.

    With the flag set (core K_1 vanishes, the caller's responsibility), the
    two unknown corners are coker and ker of beta_star - id."""
    rows, cols = _dims(beta_star)
    if rows != cols:
        raise ValueError("induced matrix must be square")
    m = [[beta_star[i][j] - (1 if i == j else 0) for j in range(cols)]
         for i in range(rows)]
    if k1_of_core_is_zero:
        k0, ker_rank = coker_ker(m)
        k1 = GroupPresentation(ker_rank)
        corner0, corner1 = k0.text(), k1.text()
    else:
        k0 = k1 = None
        corner0, corner1 = "?", "?"
    top = "K_0(core) --(b*-1)--> K_0(core) ----> K_0(crossed) = %s" % corner0
    mid_l = "     ^                                        |"
    mid_r = "     |                                        v"
    bot = "K_1(crossed) <---- K_1(core) <--(b*-1)-- K_1(core)"
    note = ("     = %s          = 0 (assumed)" % corner1) if k1_of_core_is_zero else \
        "     (corners not determined without the core K_1 input)"
    diagram = "\n".join([top, mid_l, mid_r, bot, note])
    return PaschkeResult(k0, k1, k1_of_core_is_zero, diagram)
