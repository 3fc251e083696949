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

from .util import CheckReport, accumulate, bareiss

Vector = tuple[int, ...]


def _col_swap(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _col_axpy(m: list[list[int]], j: int, i: int, q: int) -> None:
    """column j += q * column i."""
    for row in m:
        row[j] += q * row[i]


def _col_negate(m: list[list[int]], j: int) -> None:
    for row in m:
        row[j] = -row[j]


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
                _col_swap(h, i, j0)
                _col_swap(u, i, j0)
            if all(h[i][j] == 0 for j in range(i + 1, d)):
                break
            for j in range(i + 1, d):
                if h[i][j]:
                    q = h[i][j] // h[i][i]
                    _col_axpy(h, j, i, -q)
                    _col_axpy(u, j, i, -q)
        if h[i][i] < 0:
            _col_negate(h, i)
            _col_negate(u, i)
    for i in range(d):
        for j in range(i):
            q = h[i][j] // h[i][i]
            if q:
                _col_axpy(h, j, i, -q)
                _col_axpy(u, j, i, -q)
    for i in range(d):
        for j in range(d):
            got = sum(b[i][k] * u[k][j] for k in range(d))
            if got != h[i][j]:
                raise RuntimeError("Hermite bookkeeping drifted at (%d, %d)" % (i, j))
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
        return tuple(sum(self.B[i][j] * k[j] for j in range(self.d))
                     for i in range(self.d))

    def solve(self, k: Vector) -> Vector | None:
        """B^{ -1} k = adj(B) k / det B when it is integral, else None."""
        out = []
        for row in self._adj:
            q, r = divmod(sum(a * x for a, x in zip(row, k)), self._det)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def member(self, m: Vector) -> bool:
        return self.solve(m) is not None

    def reduce(self, m: Vector) -> Vector:
        """Canonical representative of m + B Z^d inside the Hermite box."""
        q = [0] * self.d
        r = [0] * self.d
        for i in range(self.d):
            t = m[i] - sum(self.H[i][j] * q[j] for j in range(i))
            r[i] = t % self.H[i][i]
            q[i] = (t - r[i]) // self.H[i][i]
        return tuple(r)

    def digits(self, m: Vector, count: int) -> tuple[Vector, ...]:
        """Base-B expansion: m = r_1 + B r_2 + ... + B^{count-1} r_count + B^count (rest)."""
        out = []
        cur = m
        for _ in range(count):
            r = self.reduce(cur)
            out.append(r)
            diff = tuple(c - s for c, s in zip(cur, r))
            cur = self.solve(diff)
            if cur is None:
                raise RuntimeError("reduction left the lattice; Hermite data is inconsistent")
        return tuple(out)

    def __repr__(self):
        return "LatticeSystem(d=%d, |det|=%d)" % (self.d, self.det_abs)


def coset_reps(b: list[list[int]]) -> list[Vector]:
    """Canonical transversal of Z^d / B Z^d: the Hermite box."""
    return list(LatticeSystem(b).Sigma)


def transversal_check(sys: LatticeSystem, pts: list[Vector], power: int = 1) -> CheckReport:
    """pts is a transversal of Z^d / B^power Z^d: distinct residues, full count."""
    report = CheckReport("transversal of Z^d / B^%d Z^d" % power)
    report.count()
    expected = sys.det_abs ** power
    if len(pts) != expected:
        report.fail("size %d, expected %d" % (len(pts), expected))
    seen: dict[tuple, Vector] = {}
    for p in pts:
        key = sys.digits(p, power)
        report.count()
        if key in seen:
            a = ",".join(str(x) for x in seen[key])
            b = ",".join(str(x) for x in p)
            report.fail("points %s and %s are congruent mod B^%d" % (a, b, power))
        seen[key] = p
    return report


def sigma_i(sys: LatticeSystem, i: int, verify: bool = True) -> list[Vector]:
    """Sigma + B Sigma + ... + B^{i-1} Sigma, the transversal at level i."""
    if i < 1:
        raise ValueError("need i >= 1")
    pts = list(sys.Sigma)
    for _ in range(i - 1):
        pts = [tuple(m[t] + bk[t] for t in range(sys.d))
               for bk in (sys.apply(p) for p in pts) for m in sys.Sigma]
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


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        accumulate(out, k, c)
    return out


def vec_equal(a: dict, b: dict) -> bool:
    return {k: c for k, c in a.items() if c} == {k: c for k, c in b.items() if c}


def translate(m: Vector, vec: dict) -> dict:
    return {tuple(x + y for x, y in zip(k, m)): c for k, c in vec.items()}


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
    out = translate(tuple(-x for x in n), vec)
    for _ in range(i):
        out = codilate(sys, out)
    for _ in range(i):
        out = dilate(sys, out)
    return translate(tuple(m), out)


def _box(d: int, radius: int):
    return product(range(-radius, radius + 1), repeat=d)


def lattice_rep_check(sys: LatticeSystem, radius: int) -> CheckReport:
    """The defining relations, applied to every basis vector in the box."""
    report = CheckReport("lattice representation, box radius %d" % radius)
    shifts = list(sys.Sigma) + [sys.apply(m) for m in sys.Sigma]
    for k in _box(sys.d, radius):
        dk = delta(k)
        report.count()
        if not vec_equal(codilate(sys, dilate(sys, dk)), dk):
            report.fail("v*v differs from 1 at k=%s" % (k,))
        report.count()
        proj = dilate(sys, codilate(sys, dk))
        expect = dk if sys.member(k) else {}
        if not vec_equal(proj, expect):
            report.fail("vv* is not the lattice-membership projection at k=%s" % (k,))
        for m in shifts:
            report.count()
            lhs = dilate(sys, translate(m, dk))
            rhs = translate(sys.apply(m), dilate(sys, dk))
            if not vec_equal(lhs, rhs):
                report.fail("v u_m != u_Bm v at k=%s, m=%s" % (k, m))
            report.count()
            mid = codilate(sys, translate(m, dilate(sys, dk)))
            pre = sys.solve(m)
            want = translate(pre, dk) if pre is not None else {}
            if not vec_equal(mid, want):
                report.fail("v* u_m v case formula fails at k=%s, m=%s" % (k, m))
        total: dict = {}
        for m in sys.Sigma:
            term = translate(m, dilate(sys, codilate(sys, translate(tuple(-x for x in m), dk))))
            total = vec_add(total, term)
        report.count()
        if not vec_equal(total, dk):
            report.fail("sum over the transversal of (u_m v)(u_m v)* misses delta_k at k=%s"
                        % (k,))
    return report


def matrix_unit_check(sys: LatticeSystem, i: int, radius: int) -> CheckReport:
    """T_mn = (u_m v^i)(u_n v^i)* over Sigma_i multiply like matrix units."""
    pts = sigma_i(sys, i)
    report = CheckReport("matrix units at level %d" % i)
    box = list(_box(sys.d, radius))
    for m in pts:
        for n in pts:
            for mp in pts:
                for np_ in pts:
                    report.count()
                    ok = True
                    for k in box:
                        dk = delta(k)
                        step = mono_apply(sys, (mp, i, np_), dk)
                        lhs = mono_apply(sys, (m, i, n), step)
                        rhs = mono_apply(sys, (m, i, np_), dk) if n == mp else {}
                        if not vec_equal(lhs, rhs):
                            ok = False
                            break
                    if not ok:
                        report.fail("units at (%s,%s),(%s,%s) fail at k=%s"
                                    % (m, n, mp, np_, k))
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
        report.count()
        if not vec_equal(lhs, rhs):
            report.fail("conjugated operator differs at k=%s" % (k,))
    return new, report
