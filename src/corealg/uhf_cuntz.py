"""The matrix-tower system: p-compression shift, weighted-trace transfer,
the graded prefix model of the infinite word representation, and the maps
onto the algebra generated by n*N isometries.

Elements of the tower are stored at a finite depth k as exact matrices over
words in {1..n}^k; tensoring with the identity on the right never changes
the element, only its storage depth.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import product

from .graph import Graph
from .scalar import ONE, Radical, scalar
from .star_algebra import StarElement, edge_isometry, unit
from .util import CheckReport, SparseSum, accumulate

Word = tuple[int, ...]


def words(n: int, k: int) -> list[Word]:
    return [tuple(w) for w in product(range(1, n + 1), repeat=k)]


class TensorElement(SparseSum):
    """Finite-depth element of the matrix tower over M_n, stored as
    {(row word, column word): nonzero Radical}."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int, entries: dict[tuple[Word, Word], Radical] | None = None):
        if n < 1 or k < 0:
            raise ValueError("need n >= 1 and depth >= 0")
        self.n = n
        self.k = k
        self.terms: dict[tuple[Word, Word], Radical] = {}
        if entries:
            for (mu, nu), c in entries.items():
                if len(mu) != k or len(nu) != k:
                    raise ValueError("index length differs from depth %d" % k)
                if not all(1 <= i <= n for i in mu + nu):
                    raise ValueError("letters must lie in 1..%d" % n)
                r = scalar(c)
                if r is None:
                    raise TypeError("entry must be Radical or rational, got %r" % (c,))
                if r:
                    self.terms[(mu, nu)] = r

    @classmethod
    def _wrap(cls, n: int, k: int, terms: dict) -> "TensorElement":
        # internal fast path: terms already checked and zero-free
        el = cls.__new__(cls)
        el.n = n
        el.k = k
        el.terms = terms
        return el

    @classmethod
    def identity(cls, n: int, k: int) -> "TensorElement":
        return cls(n, k, {(w, w): ONE for w in words(n, k)})

    @classmethod
    def unit_entry(cls, n: int, mu: Word, nu: Word, coeff=1) -> "TensorElement":
        return cls(n, len(mu), {(tuple(mu), tuple(nu)): coeff})

    def lift(self, k: int) -> "TensorElement":
        """Same element stored at a greater depth (tensor identity on the right)."""
        if k < self.k:
            raise ValueError("cannot lower depth %d to %d" % (self.k, k))
        if k == self.k:
            return self
        tails = words(self.n, k - self.k)
        out = {}
        for (mu, nu), c in self.terms.items():
            for rho in tails:
                out[(mu + rho, nu + rho)] = c
        return TensorElement._wrap(self.n, k, out)

    def block(self, i: int, j: int) -> "TensorElement":
        """The (i, j) block in M_n (x) rest: the entries whose row word starts
        with i and whose column word starts with j, first letters dropped."""
        a = self.lift(max(self.k, 1))
        return TensorElement._wrap(self.n, a.k - 1, {
            (mu[1:], nu[1:]): c for (mu, nu), c in a.terms.items()
            if mu[0] == i and nu[0] == j})

    def _common(self, other: "TensorElement"):
        if other.n != self.n:
            raise ValueError("elements live over different matrix sizes")
        k = max(self.k, other.k)
        return self.lift(k), other.lift(k)

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement._wrap(self.n, self.k, terms)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            a, b = self._common(other)
            rows: dict[Word, list] = {}
            for (nu, lam), c in b.terms.items():
                rows.setdefault(nu, []).append((lam, c))
            out: dict[tuple[Word, Word], Radical] = {}
            for (mu, nu), c in a.terms.items():
                for lam, d in rows.get(nu, ()):
                    accumulate(out, (mu, lam), c * d)
            return a._like(out)
        c = scalar(other)
        if c is None:
            raise TypeError("entry must be Radical or rational, got %r" % (other,))
        return self._scaled(c)

    def __rmul__(self, other):
        return self * other

    def adjoint(self) -> "TensorElement":
        return self._like({(nu, mu): c for (mu, nu), c in self.terms.items()})

    def trace(self) -> Radical:
        total = Radical()
        for (mu, nu), c in self.terms.items():
            if mu == nu:
                total = total + c
        return total

    def text(self) -> str:
        def wtext(w):
            return ".".join(str(i) for i in w) if w else "@"
        lines = ["%s|%s %s" % (wtext(mu), wtext(nu), c.text())
                 for (mu, nu), c in sorted(self.terms.items())]
        return "\n".join(lines) + "\n" if lines else "0\n"

    def __repr__(self):
        return "TensorElement(n=%d, depth=%d, %d entries)" % (self.n, self.k, len(self.terms))


def tensor_prepend(p: TensorElement, x: TensorElement) -> TensorElement:
    """p (x) x for a depth-1 left factor."""
    if p.k != 1 or p.n != x.n:
        raise ValueError("left factor must have depth 1 over the same M_n")
    out = {}
    for ((i,), (j,)), c in p.terms.items():
        for (mu, nu), d in x.terms.items():
            out[((i,) + mu, (j,) + nu)] = c * d
    # products of nonzero entries on distinct, well-formed keys
    return TensorElement._wrap(x.n, x.k + 1, out)


class UhfSystem:
    """The pair (n, N): matrices of size n with the rank-N corner projection."""

    def __init__(self, n: int, N: int):
        if not 1 <= N <= n:
            raise ValueError("need 1 <= N <= n, got N=%d, n=%d" % (N, n))
        self.n = n
        self.N = N

    def p_tensor(self) -> TensorElement:
        return TensorElement(self.n, 1,
                             {((i,), (i,)): ONE for i in range(1, self.N + 1)})

    def matrix_unit(self, i: int, j: int) -> TensorElement:
        return TensorElement.unit_entry(self.n, (i,), (j,))

    def indices(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.N + 1)]

    def __repr__(self):
        return "UhfSystem(n=%d, N=%d)" % (self.n, self.N)


def uhf_alpha(sys: UhfSystem, a: TensorElement) -> TensorElement:
    return tensor_prepend(sys.p_tensor(), a)


def uhf_L(sys: UhfSystem, a: TensorElement) -> TensorElement:
    """Compress the first letter by p and average with the normalized corner
    trace; depth drops by one."""
    if a.n != sys.n:
        raise ValueError("element size differs from the system")
    if a.k == 0:
        a = a.lift(1)
    scale = Radical.from_rational(Fraction(1, sys.N))
    out: dict[tuple[Word, Word], Radical] = {}
    for (mu, nu), c in a.terms.items():
        if mu[0] != nu[0] or mu[0] > sys.N:
            continue
        accumulate(out, (mu[1:], nu[1:]), c * scale)
    return TensorElement._wrap(sys.n, a.k - 1, out)


# -- graded prefix model --------------------------------------------------------


def _by_column(a: TensorElement) -> dict[Word, list]:
    """The entries of a grouped by column word: nu -> [(mu, value), ...]."""
    cols: dict[Word, list] = {}
    for (mu, nu), c in a.terms.items():
        cols.setdefault(nu, []).append((mu, c))
    return cols


def prefix_rep_sweep(sys: UhfSystem, a: TensorElement, m: int) -> CheckReport:
    """Compare (pi(L(a)) d_x | d_y) with the average of (pi(a) d_ix | d_iy)
    over the first N letters i, in the length-m prefix model.  Every x of
    length m is checked; comparing the full image vectors covers every y.
    The entries of a and L(a) are grouped by column once, so each image
    vector reads only the entries whose column is a prefix of its word."""
    report = CheckReport("prefix model sweep (depth %d, m=%d)" % (a.k, m))
    if m < a.k + 1:
        raise ValueError("m=%d too small for depth %d; need m >= depth+1" % (m, a.k))
    la = uhf_L(sys, a)
    la_cols, a_cols = _by_column(la), _by_column(a)
    j, k = la.k, a.k
    scale = Radical.from_rational(Fraction(1, sys.N))
    for x in words(sys.n, m):
        lhs = {mu + x[j:]: c for mu, c in la_cols.get(x[:j], ())}
        rhs: dict[Word, Radical] = {}
        for i in range(1, sys.N + 1):
            ix = (i,) + x
            for mu, c in a_cols.get(ix[:k], ()):
                u = mu + ix[k:]
                if u[0] == i:
                    accumulate(rhs, u[1:], c * scale)

        def mismatch():
            bad = sorted(set(lhs) | set(rhs))[0]
            return "x=%r first mismatch at y=%r: lhs=%s rhs=%s" % (
                x, bad, lhs.get(bad, Radical()).text(), rhs.get(bad, Radical()).text())
        report.check(lhs == rhs, mismatch)
    return report


# -- maps into an isometry algebra ---------------------------------------------


class CuntzFamilyError(ValueError):
    pass


class CuntzFamily(Mapping):
    """Isometries S_(i, j), one for each index pair of a system, whose ranges
    are orthogonal and sum to the identity.  The constructor checks all of
    this; the family is read-only afterwards, so pi_T trusts it.  The word
    isometries T_(mu, lam) and the matrix-unit images it forms are kept."""

    def __init__(self, sys: UhfSystem, members: Mapping):
        members = dict(members)
        if not members:
            raise CuntzFamilyError("empty family")
        g = next(iter(members.values())).graph
        if any(S.graph is not g for S in members.values()):
            raise CuntzFamilyError("family members live over different graphs")
        if set(members) != set(sys.indices()):
            raise ValueError("family must be indexed by the (i, j) pairs of the system")
        one = unit(g)
        zero = StarElement.zero(g)
        for a, S in members.items():
            for b, T in members.items():
                if not (S.adjoint() * T).equal(one if a == b else zero):
                    raise CuntzFamilyError("S_%s* S_%s is not %s"
                                           % (a, b, "1" if a == b else "0"))
        total = StarElement.zero(g)
        for S in members.values():
            total = total + S * S.adjoint()
        if not total.equal(one):
            raise CuntzFamilyError("sum of range projections differs from 1")
        self.n, self.N, self.graph = sys.n, sys.N, g
        self._members = members
        self._words: dict[tuple[Word, Word], StarElement] = {}
        self._units: dict[tuple[Word, Word], StarElement] = {}

    def __getitem__(self, index):
        return self._members[index]

    def __iter__(self):
        return iter(self._members)

    def __len__(self):
        return len(self._members)

    def word_isometry(self, mu: Word, lam: Word) -> StarElement:
        """T_{mu lam} = S_(mu_1, lam_1) ... S_(mu_k, lam_k), formed once."""
        key = (mu, lam)
        got = self._words.get(key)
        if got is None:
            got = self._members[(mu[0], lam[0])]
            for t in range(1, len(mu)):
                got = got * self._members[(mu[t], lam[t])]
            self._words[key] = got
        return got

    def unit_image(self, mu: Word, nu: Word) -> StarElement:
        """sum_lam T_(mu lam) T_(nu lam)^* over lam in {1..N}^|mu|, the image
        of e_(mu nu) (x) 1 under pi_T, formed once."""
        key = (mu, nu)
        got = self._units.get(key)
        if got is None:
            terms: dict = {}
            for lam in words(self.N, len(mu)):
                for word, c in (self.word_isometry(mu, lam)
                                * self.word_isometry(nu, lam).adjoint()).items():
                    accumulate(terms, word, c)
            got = self._units[key] = StarElement._wrap(self.graph, terms)
        return got


def canonical_cuntz_family(sys: UhfSystem) -> tuple[Graph, CuntzFamily]:
    """The n*N loops on one vertex, indexed by the pairs (i, j)."""
    names = [("s%d_%d" % (i, j), "v", "v") for i, j in sys.indices()]
    g = Graph(["v"], names)
    members = {(i, j): edge_isometry(g, "s%d_%d" % (i, j)) for i, j in sys.indices()}
    return g, CuntzFamily(sys, members)


def pi_T(sys: UhfSystem, family: CuntzFamily, a: TensorElement) -> StarElement:
    """Send e_{mu nu} (x) 1 to sum_lambda T_{mu lambda} T_{nu lambda}^* with
    lambda running over {1..N}^depth, the family's unit_image(mu, nu), and
    extend linearly.  The family was checked when it was built; only its
    system is compared with sys."""
    if not isinstance(family, CuntzFamily):
        raise TypeError("pi_T needs a CuntzFamily, got %s" % type(family).__name__)
    if (family.n, family.N) != (sys.n, sys.N):
        raise ValueError("family must be indexed by the (i, j) pairs of the system")
    g = family.graph
    if a.k == 0:
        c = a.terms.get(((), ()), Radical())
        return unit(g) * c if c else StarElement.zero(g)
    out: dict = {}
    for (mu, nu), c in a.terms.items():
        for word, d in family.unit_image(mu, nu).items():
            accumulate(out, word, d * c)
    return StarElement._wrap(g, out)


def pi_T_report(sys: UhfSystem, family: CuntzFamily, a: TensorElement) -> CheckReport:
    """Unitality plus the compression relation
    T_ij* pi(a) T_kl = pi(<E_ij, a E_kl>) for every pair of indices.

    The images share the family's word isometries and matrix-unit images,
    and the factor T_ij* pi(a) is formed once per (i, j) and reused for
    every (k, l).  The product e_ji a e_kl is e_jl (x) the (i, k) block of a, each matrix unit
    and each block formed once; L is applied to it as defined, so the
    relation also checks pi_T against L."""
    report = CheckReport("pi_T relations at depth %d" % a.k)
    report.check(pi_T(sys, family, TensorElement.identity(sys.n, 1)).equal(unit(family.graph)),
                 lambda: "pi_T(1) differs from 1")
    image = pi_T(sys, family, a)
    units = {jl: sys.matrix_unit(*jl) for jl in product(range(1, sys.N + 1), repeat=2)}
    blocks = {ik: a.block(*ik) for ik in product(range(1, sys.n + 1), repeat=2)}
    for (i, j) in sys.indices():
        left = family[(i, j)].adjoint() * image
        for (k, l) in sys.indices():
            lhs = left * family[(k, l)]
            inner = uhf_L(sys, tensor_prepend(units[(j, l)], blocks[(i, k)])) * sys.N
            rhs = pi_T(sys, family, inner)
            report.check(lhs.equal(rhs),
                         lambda: "compression relation fails at ij=%s kl=%s for a=\n%s"
                         % ((i, j), (k, l), a.text()))
    return report


# -- exact diagonalization -------------------------------------------------------


def orthonormal_columns(columns: list[list[Fraction]]) -> list[list[Radical]]:
    """Orthogonalize over the rationals, drop dependent vectors, normalize
    with exact inverse square roots."""
    ortho: list[list[Fraction]] = []
    for col in columns:
        r = [Fraction(x) for x in col]
        for o in ortho:
            dot = sum(a * b for a, b in zip(o, r))
            if dot:
                sq = sum(a * a for a in o)
                coef = dot / sq
                r = [a - coef * b for a, b in zip(r, o)]
        if any(r):
            ortho.append(r)
    out = []
    for o in ortho:
        sq = sum(a * a for a in o)
        scale = Radical.inv_sqrt_rational(sq)
        out.append([scale * a for a in o])
    return out


def rank_rescale(m: int, k: int, p: TensorElement):
    """Reduce a rational projection in the depth-k tower over M_m to the
    standard corner: returns (system over M_{m^k}, unitary u, report) with
    u * (1_N + 0) * u^adj equal to p exactly."""
    if p.n != m or p.k != k:
        raise ValueError("projection must live at depth %d over M_%d" % (k, m))
    if not p.adjoint().equal(p):
        raise ValueError("input is not self-adjoint")
    if not (p * p).equal(p):
        raise ValueError("input is not idempotent")
    for c in p.terms.values():
        if not c.is_rational():
            raise ValueError("projection entries must be rational")

    dim = m ** k
    idx = words(m, k)
    pos = {w: t for t, w in enumerate(idx)}
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for (mu, nu), c in p.terms.items():
        mat[pos[mu]][pos[nu]] = c.rational_part()

    tr = p.trace()
    if not tr.is_rational() or tr.rational_part().denominator != 1:
        raise ValueError("projection trace %s is not an integer" % tr.text())
    N = int(tr.rational_part())
    if N < 1:
        raise ValueError("zero projection has no corner form")

    range_cols = [[mat[r][c] for r in range(dim)] for c in range(dim)]
    kernel_cols = [[(Fraction(1) if r == c else Fraction(0)) - mat[r][c]
                    for r in range(dim)] for c in range(dim)]
    basis = orthonormal_columns(range_cols)
    if len(basis) != N:
        raise ValueError("range dimension %d disagrees with trace %d" % (len(basis), N))
    basis += orthonormal_columns(kernel_cols)
    if len(basis) != dim:
        raise ValueError("orthonormal completion failed")

    u = [[basis[c][r] for c in range(dim)] for r in range(dim)]

    report = CheckReport("corner reduction (m=%d, k=%d)" % (m, k))
    for a in range(dim):
        for b in range(dim):
            inner = Radical()
            for r in range(dim):
                inner = inner + u[r][a] * u[r][b]
            report.check(inner == (ONE if a == b else Radical()),
                         lambda: "u*u differs from 1 at (%d, %d)" % (a, b))
            conj = Radical()
            for i in range(N):
                conj = conj + u[a][i] * u[b][i]
            report.check(conj == Radical.from_rational(mat[a][b]),
                         lambda: "u (1_N + 0) u* differs from p at (%d, %d)" % (a, b))
    return UhfSystem(dim, N), u, report
