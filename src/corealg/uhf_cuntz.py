"""The matrix-tower system: p-compression shift, weighted-trace transfer,
the graded prefix model of the infinite word representation, and the maps
onto the algebra generated by n*N isometries.

Elements of the tower are stored at a finite depth k as exact matrices over
words in {1..n}^k; tensoring with the identity on the right never changes
the element, only its storage depth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .graph import Graph
from .scalar import ONE, Radical, scalar
from .star_algebra import StarElement, edge_isometry, unit
from .util import CheckReport, accumulate

Word = tuple[int, ...]


def words(n: int, k: int) -> list[Word]:
    return [tuple(w) for w in product(range(1, n + 1), repeat=k)]


class TensorElement:
    """Finite-depth element of the matrix tower over M_n."""

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: dict[tuple[Word, Word], Radical] | None = None):
        if n < 1 or k < 0:
            raise ValueError("need n >= 1 and depth >= 0")
        self.n = n
        self.k = k
        self.entries: dict[tuple[Word, Word], Radical] = {}
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
                    self.entries[(mu, nu)] = r

    @classmethod
    def _wrap(cls, n: int, k: int, entries: dict) -> "TensorElement":
        # internal fast path: entries already checked and zero-free
        el = cls.__new__(cls)
        el.n = n
        el.k = k
        el.entries = entries
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
        for (mu, nu), c in self.entries.items():
            for rho in tails:
                out[(mu + rho, nu + rho)] = c
        return TensorElement._wrap(self.n, k, out)

    def _common(self, other: "TensorElement"):
        if other.n != self.n:
            raise ValueError("elements live over different matrix sizes")
        k = max(self.k, other.k)
        return self.lift(k), other.lift(k)

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        a, b = self._common(other)
        out = dict(a.entries)
        for key, c in b.entries.items():
            accumulate(out, key, c)
        return TensorElement._wrap(self.n, a.k, out)

    def __neg__(self):
        return TensorElement._wrap(self.n, self.k, {key: -c for key, c in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            a, b = self._common(other)
            rows: dict[Word, list] = {}
            for (nu, lam), c in b.entries.items():
                rows.setdefault(nu, []).append((lam, c))
            out: dict[tuple[Word, Word], Radical] = {}
            for (mu, nu), c in a.entries.items():
                for lam, d in rows.get(nu, ()):
                    accumulate(out, (mu, lam), c * d)
            return TensorElement._wrap(self.n, a.k, out)
        c = scalar(other)
        if c is None:
            raise TypeError("entry must be Radical or rational, got %r" % (other,))
        return TensorElement._wrap(self.n, self.k,
                                   {key: v * c for key, v in self.entries.items()} if c else {})

    def __rmul__(self, other):
        return self * other

    def adjoint(self) -> "TensorElement":
        return TensorElement._wrap(self.n, self.k,
                                   {(nu, mu): c for (mu, nu), c in self.entries.items()})

    def equal(self, other: "TensorElement") -> bool:
        a, b = self._common(other)
        return a.entries == b.entries

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self):
        return bool(self.entries)

    def trace(self) -> Radical:
        total = Radical()
        for (mu, nu), c in self.entries.items():
            if mu == nu:
                total = total + c
        return total

    def to_numeric(self):
        import numpy as np
        idx = {w: i for i, w in enumerate(words(self.n, self.k))}
        mat = np.zeros((len(idx), len(idx)))
        for (mu, nu), c in self.entries.items():
            mat[idx[mu], idx[nu]] = c.evalf()
        return mat

    def text(self) -> str:
        def wtext(w):
            return ".".join(str(i) for i in w) if w else "@"
        lines = ["%s|%s %s" % (wtext(mu), wtext(nu), c.text())
                 for (mu, nu), c in sorted(self.entries.items())]
        return "\n".join(lines) + "\n" if lines else "0\n"

    def __repr__(self):
        return "TensorElement(n=%d, depth=%d, %d entries)" % (self.n, self.k, len(self.entries))


def tensor_prepend(p: TensorElement, x: TensorElement) -> TensorElement:
    """p (x) x for a depth-1 left factor."""
    if p.k != 1 or p.n != x.n:
        raise ValueError("left factor must have depth 1 over the same M_n")
    out = {}
    for ((i,), (j,)), c in p.entries.items():
        for (mu, nu), d in x.entries.items():
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
    scale = Fraction(1, sys.N)
    out: dict[tuple[Word, Word], Radical] = {}
    for (mu, nu), c in a.entries.items():
        if mu[0] != nu[0] or mu[0] > sys.N:
            continue
        accumulate(out, (mu[1:], nu[1:]), c * scale)
    return TensorElement._wrap(sys.n, a.k - 1, out)


def almost_faithful_witness(sys: UhfSystem, a: TensorElement):
    """A pair (j, i) whose matrix unit b = e_ji makes L((ab)*(ab)) nonzero,
    or None when a is zero."""
    for j in range(1, sys.n + 1):
        for i in range(1, sys.n + 1):
            b = sys.matrix_unit(j, i)
            w = a * b
            if not uhf_L(sys, w.adjoint() * w).is_zero():
                return (j, i)
    return None


# -- graded prefix model --------------------------------------------------------


def _by_column(a: TensorElement) -> dict[Word, list]:
    """The entries of a grouped by column word: nu -> [(mu, value), ...]."""
    cols: dict[Word, list] = {}
    for (mu, nu), c in a.entries.items():
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
        report.count()
        if lhs != rhs:
            bad = sorted(set(lhs) | set(rhs))[0]
            report.fail("x=%r first mismatch at y=%r: lhs=%s rhs=%s"
                        % (x, bad, lhs.get(bad, Radical()).text(),
                           rhs.get(bad, Radical()).text()))
    return report


# -- maps into an isometry algebra ---------------------------------------------


class CuntzFamilyError(ValueError):
    pass


def canonical_cuntz_family(sys: UhfSystem) -> tuple[Graph, dict]:
    """The n*N loops on one vertex, indexed by the pairs (i, j)."""
    names = [("s%d_%d" % (i, j), "v", "v") for i, j in sys.indices()]
    g = Graph(["v"], names)
    family = {(i, j): edge_isometry(g, "s%d_%d" % (i, j)) for i, j in sys.indices()}
    return g, family


def verify_cuntz_family(family: dict) -> None:
    """Isometries with orthogonal ranges summing to the identity.

    A family that passes is recorded in its graph's memo under its content
    (each index with its terms), so verifying it again costs one lookup; a
    different or corrupted family over the same graph gets the full check,
    and a failure is never remembered."""
    if not family:
        raise CuntzFamilyError("empty family")
    g = next(iter(family.values())).graph
    if any(S.graph is not g for S in family.values()):
        raise CuntzFamilyError("family members live over different graphs")
    key = frozenset((index, frozenset(S.items())) for index, S in family.items())
    g.memo.get(("cuntz family", key), lambda: _check_cuntz_family(g, family))


def _check_cuntz_family(g: Graph, family: dict) -> bool:
    one = unit(g)
    zero = StarElement.zero(g)
    for a, S in family.items():
        for b, T in family.items():
            prod = S.adjoint() * T
            want = one if a == b else zero
            if not prod.equal(want):
                raise CuntzFamilyError("S_%s* S_%s is not %s"
                                       % (a, b, "1" if a == b else "0"))
    total = StarElement.zero(g)
    for S in family.values():
        total = total + S * S.adjoint()
    if not total.equal(one):
        raise CuntzFamilyError("sum of range projections differs from 1")
    return True


def _word_isometries(family: dict):
    """T_{mu lam} = T_(mu_1, lam_1) ... T_(mu_k, lam_k), each product made
    once per returned function and kept in its cache."""
    cache: dict[tuple[Word, Word], StarElement] = {}

    def word_isometry(mu: Word, lam: Word) -> StarElement:
        key = (mu, lam)
        got = cache.get(key)
        if got is None:
            got = family[(mu[0], lam[0])]
            for t in range(1, len(mu)):
                got = got * family[(mu[t], lam[t])]
            cache[key] = got
        return got

    return word_isometry


def _require_indexed(sys: UhfSystem, family: dict) -> None:
    if set(family) != set(sys.indices()):
        raise ValueError("family must be indexed by the (i, j) pairs of the system")


def pi_T(sys: UhfSystem, family: dict, a: TensorElement) -> StarElement:
    """Send e_{mu nu} (x) 1 to sum_lambda T_{mu lambda} T_{nu lambda}^* with
    lambda running over {1..N}^depth.  The family is verified, which costs
    one memo lookup for a family already seen (see verify_cuntz_family)."""
    _require_indexed(sys, family)
    verify_cuntz_family(family)
    return _pi_T(sys, family, a, _word_isometries(family))


def _pi_T(sys: UhfSystem, family: dict, a: TensorElement, word_isometry) -> StarElement:
    g = next(iter(family.values())).graph
    if a.k == 0:
        c = a.entries.get(((), ()), Radical())
        return unit(g) * c if c else StarElement.zero(g)
    out = StarElement.zero(g)
    lams = words(sys.N, a.k)
    for (mu, nu), c in a.entries.items():
        for lam in lams:
            out = out + word_isometry(mu, lam) * word_isometry(nu, lam).adjoint() * c
    return out


def pi_T_report(sys: UhfSystem, family: dict, a: TensorElement) -> CheckReport:
    """Unitality plus the compression relation
    T_ij* pi(a) T_kl = pi(<E_ij, a E_kl>) for every pair of indices.

    The family is verified (once per family, see verify_cuntz_family), the
    images share one cache of word isometries, and the factors T_ij* pi(a)
    and e_ji a are formed once per (i, j) and reused for every (k, l)."""
    report = CheckReport("pi_T relations at depth %d" % a.k)
    verify_cuntz_family(family)
    _require_indexed(sys, family)
    g = next(iter(family.values())).graph
    word_isometry = _word_isometries(family)
    report.count()
    if not _pi_T(sys, family, TensorElement.identity(sys.n, 1), word_isometry).equal(unit(g)):
        report.fail("pi_T(1) differs from 1")
    image = _pi_T(sys, family, a, word_isometry)
    right = {kl: sys.matrix_unit(*kl) for kl in sys.indices()}
    for (i, j) in sys.indices():
        left = family[(i, j)].adjoint() * image
        ea = sys.matrix_unit(j, i) * a
        for kl, e_kl in right.items():
            lhs = left * family[kl]
            inner = uhf_L(sys, ea * e_kl) * sys.N
            rhs = _pi_T(sys, family, inner, word_isometry)
            report.count()
            if not lhs.equal(rhs):
                report.fail("compression relation fails at ij=%s kl=%s for a=\n%s"
                            % ((i, j), kl, a.text()))
    return report


def iso_generators_check(sys: UhfSystem) -> CheckReport:
    """Frame representation onto the n*N-isometry algebra: every generator is
    the image of a basis element, with degree-1 homogeneity."""
    from . import hilbert_module

    report = CheckReport("generator correspondence (n=%d, N=%d)" % (sys.n, sys.N))
    fsys = hilbert_module.UhfFrameSystem(sys)
    g, family = canonical_cuntz_family(sys)

    def pi(b: TensorElement) -> StarElement:
        return pi_T(sys, family, b)

    psi, rep = hilbert_module.frame_rep_psi(fsys, family, pi)
    report.merge(rep)
    for (i, j) in sys.indices():
        image = psi(hilbert_module.ModuleElement.basis_word(fsys, ((i, j),)))
        expected = family[(i, j)]
        report.count()
        if not image.equal(expected):
            report.fail("psi(E_%d%d) differs from the generator s%d_%d" % (i, j, i, j))
        degrees = list(image.degree_decompose())
        report.count()
        if degrees != [1]:
            report.fail("psi(E_%d%d) not homogeneous of degree 1: %s" % (i, j, degrees))
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
    for c in p.entries.values():
        if not c.is_rational():
            raise ValueError("projection entries must be rational")

    dim = m ** k
    idx = words(m, k)
    pos = {w: t for t, w in enumerate(idx)}
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for (mu, nu), c in p.entries.items():
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
            report.count()
            if inner != (ONE if a == b else Radical()):
                report.fail("u*u differs from 1 at (%d, %d)" % (a, b))
            conj = Radical()
            for i in range(N):
                conj = conj + u[a][i] * u[b][i]
            report.count()
            if conj != Radical.from_rational(mat[a][b]):
                report.fail("u (1_N + 0) u* differs from p at (%d, %d)" % (a, b))
    return UhfSystem(dim, N), u, report


def averaging_unitary(n: int) -> list[list[Radical]]:
    """Columns: the normalized all-ones vector, completed orthonormally."""
    avg = TensorElement(n, 1, {((i,), (j,)): Radical.from_rational(Fraction(1, n))
                               for i in range(1, n + 1) for j in range(1, n + 1)})
    _, u, report = rank_rescale(n, 1, avg)
    if not report.passed:
        raise RuntimeError("exact diagonalization failed:\n" + "\n".join(report.lines()))
    return u


def first_slot_conjugate(u: list[list[Radical]], a: TensorElement) -> TensorElement:
    """(u (x) 1) a (u^adj (x) 1) acting on the leading tensor slot."""
    if a.k < 1:
        raise ValueError("need depth at least 1")
    n = a.n
    out: dict[tuple[Word, Word], Radical] = {}
    for (mu, nu), c in a.entries.items():
        for r in range(1, n + 1):
            left = u[r - 1][mu[0] - 1]
            if not left:
                continue
            for s in range(1, n + 1):
                right = u[s - 1][nu[0] - 1]
                if not right:
                    continue
                accumulate(out, ((r,) + mu[1:], (s,) + nu[1:]), left * c * right)
    return TensorElement(n, a.k, out)


def to_core_element(g: Graph, loops: dict[int, str], a: TensorElement) -> StarElement:
    """The dictionary e_{mu nu} (x) 1 -> t_mu t_nu^* into the bouquet algebra."""
    if a.k == 0:
        c = a.entries.get(((), ()), Radical())
        return unit(g) * c if c else StarElement.zero(g)
    out: dict = {}
    for (mu, nu), c in a.entries.items():
        pm = g.path([loops[i] for i in mu])
        pn = g.path([loops[i] for i in nu])
        accumulate(out, (pm, pn), c)
    return StarElement(g, out)
