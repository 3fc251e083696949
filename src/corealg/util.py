"""Shared plumbing: the deterministic PRNG used by sweeps, a tiny check-report
type, the one integer (fraction-free) elimination, the integer matrix product
and column operations of the Smith and Hermite forms, the one sparse-map
accumulate and sum, the sparse-sum base of the three value types, and the
per-object memo."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream, fixed bit-for-bit so sweeps replay across machines.

    State update and output mix follow the reference constants
    (0x9E3779B97F4A7C15 increment, 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB mixers).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-free modulo; bias is irrelevant
        at desk scale and keeping it branchless keeps streams easy to reproduce."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.below(len(seq))]

    def fraction(self) -> Fraction:
        """Small nonzero rational: numerator in [-3, 3] \\ {0}, denominator in [1, 4]."""
        num = self.below(6) - 3
        if num >= 0:
            num += 1
        return Fraction(num, 1 + self.below(4))


def bareiss(rows: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) elimination in place on the first n columns of
    n integer rows; returns the determinant of the leading n x n block A,
    stopping at 0 when a column has no pivot.  When further columns X ride
    along, every other row is reduced too (Gauss-Jordan), so that for
    det A != 0 the rows end as [det A * I | adj(A) X].  Every division is
    exact: each entry after a step is, up to sign, a minor (Sylvester)."""
    carry = any(len(row) > n for row in rows)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for r in range(n) if carry else range(col + 1, n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = p
    if sign < 0 and carry:
        rows[:] = [[-x for x in row] for row in rows]
    return sign * prev


def mat_dims(m) -> tuple[int, int]:
    """Rows and columns of a matrix given as a sequence of rows."""
    lengths = set(map(len, m))
    if len(lengths) > 1:
        raise ValueError("ragged matrix")
    return len(m), lengths.pop() if lengths else 0


def mat_mul(a, b) -> list[list[int]]:
    """The product a b as a list of rows, each entry one dot product of a
    row of a with a column of b."""
    _, ca = mat_dims(a)
    rb, _ = mat_dims(b)
    if ca != rb:
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def col_swap(mats, i: int, j: int) -> None:
    """Swap columns i and j of every matrix in mats, in place."""
    for m in mats:
        for row in m:
            row[i], row[j] = row[j], row[i]


def col_axpy(mats, dst: int, src: int, q: int) -> None:
    """Column dst += q * column src in every matrix in mats, in place."""
    for m in mats:
        for row in m:
            row[dst] += q * row[src]


def col_negate(mats, j: int) -> None:
    """Negate column j of every matrix in mats, in place."""
    for m in mats:
        for row in m:
            row[j] = -row[j]


def accumulate(out: dict, key, add) -> None:
    """out[key] += add in a sparse map that never holds a zero: a zero addend
    is skipped, so a stored value keeps its form, and a sum that cancels
    deletes its key.  Values are any type with + and truth meaning nonzero."""
    if not add:
        return
    s = out.get(key)
    if s is None:
        out[key] = add
        return
    t = s + add
    if t:
        out[key] = t
    else:
        del out[key]


def add_maps(a: dict, b: dict) -> dict:
    """The sum of two sparse maps: a copy of a with b accumulated into it."""
    out = dict(a)
    for key, add in b.items():
        accumulate(out, key, add)
    return out


class SparseSum:
    """A finite sum stored as `terms`, a dict from basis keys to nonzero
    values, with the linear structure every such sum shares: one addition
    (through add_maps), negation, `x - y` as `x + (-y)`, scaling, equality
    of term dicts at one grade, and the zero test (truth meaning nonzero).

    A subclass supplies `_common(other)`, which lifts both operands to one
    grade and raises ValueError across spaces, and `_like(terms)`, which
    builds an element of its space and grade from zero-free terms."""

    __slots__ = ("terms",)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._common(other)
        return a._like(add_maps(a.terms, b.terms))

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _scaled(self, c):
        """self times the scalar c, which the subclass has coerced."""
        return self._like({key: x * c for key, x in self.terms.items()} if c else {})

    def equal(self, other) -> bool:
        a, b = self._common(other)
        return a.terms == b.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)


class Memo:
    """Values that depend only on the object owning the memo, each computed
    at most once and then shared, so callers must treat them as read-only.

    One value's computation may ask the memo for another.  A computation
    that raises stores nothing, so the next call runs it again.
    """

    def __init__(self):
        self._values: dict = {}

    def get(self, key, compute):
        try:
            return self._values[key]
        except KeyError:
            pass
        value = self._values[key] = compute()
        return value

    def __reduce__(self):
        # some values are read-only views (MappingProxyType), which cannot be
        # pickled; a copy of the owner recomputes its values
        return Memo, ()


@dataclass
class CheckReport:
    """Outcome of a verification sweep: counts plus reproducible witnesses."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, witness) -> bool:
        """Count one check and return ok; when ok is false, record witness(),
        a zero-argument callable, so a passing check formats nothing."""
        self.checks += 1
        if not ok:
            self.failures.append(witness())
        return ok

    def merge(self, other: "CheckReport") -> None:
        self.checks += other.checks
        self.failures.extend(other.failures)

    def lines(self) -> list[str]:
        out = ["%s: %s (%d checks, %d failures)" % (
            self.name, "PASS" if self.passed else "FAIL", self.checks, len(self.failures))]
        out.extend("  witness: " + w for w in self.failures)
        return out
