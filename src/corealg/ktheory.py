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
from operator import mul

from .core_endo import graph_core_endo
from .graph import Graph
from .star_algebra import StarElement, matrix_unit
from .util import CheckReport, bareiss, hermite, mat_dims, mat_mul


class StabilizationError(RuntimeError):
    """Consecutive stages disagreed where the inductive system should have settled."""


def int_det(m) -> int:
    """Exact determinant by fraction-free elimination."""
    n, c = mat_dims(m)
    if n != c:
        raise ValueError("determinant needs a square matrix")
    return bareiss([[int(x) for x in row] for row in m], n)


def smith_normal_form(m) -> tuple[list, list, list]:
    """U M V = D with U, V unimodular and D diagonal with a divisibility
    chain of nonnegative entries.  Verified before returning.

    Row and column Hermite forms alternate until the matrix is diagonal;
    where a diagonal entry does not divide a later one, that column is
    added to its column and the alternation resumes (a gcd step)."""
    rows, cols = mat_dims(m)
    d = [[int(x) for x in row] for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]     # V transposed
    while True:
        aug = [x + y for x, y in zip(d, u)]
        hermite(aug, cols)
        u = [row[cols:] for row in aug]
        aug = [[row[j] for row in aug] + vt[j] for j in range(cols)]
        hermite(aug, rows)
        vt = [row[rows:] for row in aug]
        d = [[row[i] for row in aug] for i in range(rows)]
        if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
            continue
        diag = [d[i][i] for i in range(min(rows, cols))]
        pair = next(((i, j) for i, x in enumerate(diag) if x
                     for j in range(i + 1, len(diag)) if diag[j] % x), None)
        if pair is None:
            break
        i, j = pair
        d[j][i] = diag[j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]

    v = [[row[i] for row in vt] for i in range(cols)]
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        raise RuntimeError("transforms drifted from unimodularity")
    if mat_mul(mat_mul(u, m), v) != d:
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
    rows, cols = mat_dims(m)
    if rows != cols:
        raise ValueError("map must be square")
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(rows)]
    rank = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x >= 2)
    return GroupPresentation(rows - rank, torsion), cols - rank


def lattice_solve(m, targets: list) -> list:
    """For each target t, an integer solution x of M x = t, or None; one
    Smith form serves every target."""
    rows, cols = mat_dims(m)
    if any(len(t) != rows for t in targets):
        raise ValueError("target length mismatch")
    u, d, v = smith_normal_form(m)

    def solve(target):
        t = [sum(map(mul, row, target)) for row in u]
        y = [0] * cols
        for i in range(rows):
            di = d[i][i] if i < min(rows, cols) else 0
            if di:
                if t[i] % di:
                    return None
                y[i] = t[i] // di
            elif t[i]:
                return None
        return [sum(map(mul, row, y)) for row in v]

    return [solve(t) for t in targets]


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
        report.check((q * q).equal(q) and q.adjoint().equal(q),
                     lambda: "shift of the minimal projection at %s is not a projection" % v)
        traces: dict[str, Fraction] = {}
        for (kap, lam), coeff in q.items():
            if kap != lam:
                continue
            if not coeff.is_rational():
                report.check(False, lambda: "irrational diagonal coefficient at %s" % v)
                continue
            traces[kap.src] = traces.get(kap.src, Fraction(0)) + coeff.rational_part()
        for w, tr in traces.items():
            if report.check(tr.denominator == 1,
                            lambda: "block trace %s at (%s, %s) is not an integer" % (tr, w, v)):
                t[pos[w]][pos[v]] += int(tr)
    return t


@dataclass(frozen=True)
class GraphKTheory:
    k0: GroupPresentation
    k1: GroupPresentation
    beta_star: list
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
    n = len(g.vertices)
    report = CheckReport("stationary K-theory of %d %s" % (n, "vertex" if n == 1 else "vertices"))
    verts, a = vertex_matrix(g)
    c = _connecting_matrix(g, verts)
    report.check(c == [[a[j][i] for j in range(len(verts))] for i in range(len(verts))],
                 lambda: "symbolic expansion disagrees with the transposed vertex matrix")

    stages = []
    for level in (1, 2):
        t = _stage_beta_matrix(g, graph_core_endo(g), verts, level, report)
        m = [[c[i][j] - t[i][j] for j in range(n)] for i in range(n)]
        stages.append((coker_ker(m), m, t))
    (pres1, m1, _), (pres, m, t) = stages
    report.check(pres1 == pres and m1 == m, lambda: "stages disagree: %s vs %s" % (pres1, pres))
    k0, ker_rank = pres
    # the inclusion acts on each stage cokernel as multiplication by the
    # connecting matrix; stable means that action is the identity
    targets = [[c[i][j] - (1 if i == j else 0) for i in range(n)] for j in range(n)]
    for j, x in enumerate(lattice_solve(m, targets)):
        report.check(x is not None, lambda: "inclusion moves the class of vertex %s" % verts[j])
    if not report.passed:
        raise StabilizationError("\n".join(report.lines()))
    return GraphKTheory(k0, GroupPresentation(ker_rank), t, report)


# -- the six-term sequence ------------------------------------------------------------


@dataclass(frozen=True)
class PaschkeResult:
    k0: GroupPresentation | None
    k1: GroupPresentation | None
    diagram: str


def paschke_sequence(beta_star, k1_of_core_is_zero: bool) -> PaschkeResult:
    """Six-term sequence for a crossed product by a single endomorphism,
    with the induced map on K_0 of the core supplied by the caller.

    With the flag set (core K_1 vanishes, the caller's responsibility), the
    two unknown corners are coker and ker of beta_star - id."""
    rows, cols = mat_dims(beta_star)
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
    return PaschkeResult(k0, k1, diagram)
