"""Integer dilation systems on Z^d.

A nonsingular integer matrix B acts on the lattice; the quotient Z^d / B Z^d
is finite of order |det B| and a canonical transversal falls out of the
column Hermite form.  The module realizes the translation unitaries u_m and
the dilation isometry v on finitely supported sequences, where every defining
relation can be verified exactly: the operators map finitely supported
vectors to finitely supported vectors, so there are no boundary effects.

Monomials u_m v^i v*^i u_n* are kept as triples (m, i, n); the one-step
rewrite sends the triple to (Bm, i+1, Bn) and is checked against honest
operator conjugation on a box of basis vectors.
"""

from __future__ import annotations

from itertools import product
from operator import add, mul, sub

from .util import CheckReport, add_maps, bareiss, col_axpy, col_negate, col_swap, mat_mul

Vector = tuple[int, ...]


def hermite_normal_form(b: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite form: B U = H with U unimodular, H lower
    triangular with positive diagonal and reduced entries left of it."""
    d = len(b)
    if any(len(row) != d for row in b):
        raise ValueError("matrix must be square")
    h = [[int(x) for x in row] for row in b]
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        while True:
            nz = [j for j in range(i, d) if h[i][j] != 0]
            if not nz:
                raise ValueError("matrix is singular")
            j0 = min(nz, key=lambda j: abs(h[i][j]))
            if j0 != i:
                col_swap((h, u), i, j0)
            if all(h[i][j] == 0 for j in range(i + 1, d)):
                break
            for j in range(i + 1, d):
                if h[i][j]:
                    q = h[i][j] // h[i][i]
                    col_axpy((h, u), j, i, -q)
        if h[i][i] < 0:
            col_negate((h, u), i)
    for i in range(d):
        for j in range(i):
            q = h[i][j] // h[i][i]
            if q:
                col_axpy((h, u), j, i, -q)
    for i, (got, want) in enumerate(zip(mat_mul(b, u), h)):
        if got != want:
            raise RuntimeError("Hermite bookkeeping drifted in row %d" % i)
    return h, u


class LatticeSystem:
    """A dilation matrix with a validated transversal of Z^d / B Z^d."""

    def __init__(self, b: list[list[int]], sigma: list[Vector] | None = None):
        self.d = len(b)
        if self.d < 1:
            raise ValueError("need dimension at least 1")
        self.B = tuple(tuple(int(x) for x in row) for row in b)
        # raises first on a matrix that is not square or is singular
        self.H, _ = hermite_normal_form([list(row) for row in self.B])
        rows = [list(row) + [int(i == j) for j in range(self.d)]
                for i, row in enumerate(self.B)]
        self._det = bareiss(rows, self.d)
        self._adj = tuple(tuple(row[self.d:]) for row in rows)
        self.det_abs = abs(self._det)
        if sigma is None:
            self.Sigma = list(product(*[range(self.H[i][i]) for i in range(self.d)]))
        else:
            pts = [tuple(int(x) for x in p) for p in sigma]
            rep = transversal_check(self, pts, power=1)
            if not rep.passed:
                raise ValueError("supplied set is not a transversal:\n"
                                 + "\n".join(rep.lines()))
            self.Sigma = pts

    def apply(self, k: Vector) -> Vector:
        return tuple([sum(map(mul, row, k)) for row in self.B])

    def solve(self, k: Vector) -> Vector | None:
        """B^{ -1} k = adj(B) k / det B when it is integral, else None."""
        out = []
        for row in self._adj:
            q, r = divmod(sum(map(mul, row, k)), self._det)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def member(self, m: Vector) -> bool:
        return self.solve(m) is not None

    def reduce(self, m: Vector) -> Vector:
        """Canonical representative of m + B Z^d inside the Hermite box."""
        q: list[int] = []
        r: list[int] = []
        for i, (row, x) in enumerate(zip(self.H, m)):
            # H is lower triangular: the dot product stops at the i quotients so far
            qi, ri = divmod(x - sum(map(mul, row, q)), row[i])
            q.append(qi)
            r.append(ri)
        return tuple(r)

    def digits(self, m: Vector, count: int) -> tuple[Vector, ...]:
        """Base-B expansion: m = r_1 + B r_2 + ... + B^{count-1} r_count + B^count (rest)."""
        out = []
        cur = m
        for _ in range(count):
            r = self.reduce(cur)
            out.append(r)
            cur = self.solve(tuple(map(sub, cur, r)))
            if cur is None:
                raise RuntimeError("reduction left the lattice; Hermite data is inconsistent")
        return tuple(out)

    def __repr__(self):
        return "LatticeSystem(d=%d, |det|=%d)" % (self.d, self.det_abs)


def transversal_check(sys: LatticeSystem, pts: list[Vector], power: int = 1) -> CheckReport:
    """pts is a transversal of Z^d / B^power Z^d: distinct residues, full count."""
    for p in pts:
        if len(p) != sys.d:
            raise ValueError("point %s must have dimension %d" % (p, sys.d))
    report = CheckReport("transversal of Z^d / B^%d Z^d" % power)
    expected = sys.det_abs ** power
    report.check(len(pts) == expected, lambda: "size %d, expected %d" % (len(pts), expected))
    seen: dict[tuple, Vector] = {}
    for p in pts:
        key = sys.digits(p, power)

        def congruent():
            a = ",".join(str(x) for x in seen[key])
            b = ",".join(str(x) for x in p)
            return "points %s and %s are congruent mod B^%d" % (a, b, power)
        report.check(key not in seen, congruent)
        seen[key] = p
    return report


def sigma_i(sys: LatticeSystem, i: int, verify: bool = True) -> list[Vector]:
    """Sigma + B Sigma + ... + B^{i-1} Sigma, the transversal at level i."""
    if i < 1:
        raise ValueError("need i >= 1")
    pts = list(sys.Sigma)
    for _ in range(i - 1):
        pts = [tuple(map(add, m, bk)) for bk in map(sys.apply, pts) for m in sys.Sigma]
    pts = sorted(set(pts))
    if verify:
        rep = transversal_check(sys, pts, power=i)
        if not rep.passed:
            raise RuntimeError("level-%d set failed its transversal check:\n%s"
                               % (i, "\n".join(rep.lines())))
    return pts


# -- the sequence representation --------------------------------------------------


def delta(k: Vector) -> dict:
    return {tuple(k): 1}


def vec_equal(a: dict, b: dict) -> bool:
    """Equality of finitely supported vectors.  No vector here holds a zero
    value: delta stores 1, translate, dilate and codilate move keys
    injectively (B is nonsingular) without changing values, and add_maps
    drops zeros.  So equal vectors are equal dicts."""
    return a == b


def translate(m: Vector, vec: dict) -> dict:
    return {tuple(map(add, k, m)): c for k, c in vec.items()}


def dilate(sys: LatticeSystem, vec: dict) -> dict:
    return {sys.apply(k): c for k, c in vec.items()}


def codilate(sys: LatticeSystem, vec: dict) -> dict:
    out = {}
    for k, c in vec.items():
        pre = sys.solve(k)
        if pre is not None:
            out[pre] = c
    return out


def mono_apply(sys: LatticeSystem, term: tuple, vec: dict) -> dict:
    """u_m v^i v*^i u_n* applied to a finitely supported vector."""
    m, i, n = term
    if i < 0:
        raise ValueError("power must be nonnegative")
    out = {tuple(map(sub, k, n)): c for k, c in vec.items()}
    for _ in range(i):
        out = codilate(sys, out)
    for _ in range(i):
        out = dilate(sys, out)
    return translate(m, out)


def _box(d: int, radius: int):
    return product(range(-radius, radius + 1), repeat=d)


def lattice_rep_check(sys: LatticeSystem, radius: int) -> CheckReport:
    """The defining relations, applied to every basis vector in the box."""
    report = CheckReport("lattice representation, box radius %d" % radius)
    shifts = list(sys.Sigma) + [sys.apply(m) for m in sys.Sigma]
    for k in _box(sys.d, radius):
        dk = delta(k)
        report.check(vec_equal(codilate(sys, dilate(sys, dk)), dk),
                     lambda: "v*v differs from 1 at k=%s" % (k,))
        proj = dilate(sys, codilate(sys, dk))
        expect = dk if sys.member(k) else {}
        report.check(vec_equal(proj, expect),
                     lambda: "vv* is not the lattice-membership projection at k=%s" % (k,))
        for m in shifts:
            lhs = dilate(sys, translate(m, dk))
            rhs = translate(sys.apply(m), dilate(sys, dk))
            report.check(vec_equal(lhs, rhs), lambda: "v u_m != u_Bm v at k=%s, m=%s" % (k, m))
            mid = codilate(sys, translate(m, dilate(sys, dk)))
            pre = sys.solve(m)
            want = translate(pre, dk) if pre is not None else {}
            report.check(vec_equal(mid, want),
                         lambda: "v* u_m v case formula fails at k=%s, m=%s" % (k, m))
        total: dict = {}
        for m in sys.Sigma:
            total = add_maps(total, mono_apply(sys, (m, 1, m), dk))
        report.check(vec_equal(total, dk), lambda: "sum over the transversal of "
                     "(u_m v)(u_m v)* misses delta_k at k=%s" % (k,))
    return report


def dilation_beta(sys: LatticeSystem, term: tuple, radius: int = 4) -> tuple[tuple, CheckReport]:
    """One-step rewrite (m, i, n) -> (Bm, i+1, Bn), verified as conjugation
    by v on every box basis vector."""
    m, i, n = term
    m = tuple(int(x) for x in m)
    n = tuple(int(x) for x in n)
    if len(m) != sys.d or len(n) != sys.d:
        raise ValueError("translation vectors must have dimension %d" % sys.d)
    if i < 0:
        raise ValueError("power must be nonnegative")
    new = (sys.apply(m), i + 1, sys.apply(n))
    report = CheckReport("rewrite of (%s, %d, %s)" % (m, i, n))
    for k in _box(sys.d, radius):
        dk = delta(k)
        lhs = dilate(sys, mono_apply(sys, (m, i, n), codilate(sys, dk)))
        rhs = mono_apply(sys, new, dk)
        report.check(vec_equal(lhs, rhs), lambda: "conjugated operator differs at k=%s" % (k,))
    return new, report
