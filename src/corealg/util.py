"""Shared plumbing: the deterministic PRNG used by sweeps, a tiny check-report
type, the one integer (fraction-free) elimination, the one sparse-map
accumulate and the per-object memo."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

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


class Memo:
    """Values that depend only on the object owning the memo, each computed
    at most once and then shared, so callers must treat them as read-only.

    The fill runs under a lock, so concurrent callers wait for the first
    one's value instead of computing their own; the lock is reentrant
    because one value's computation may ask the memo for another.  A
    computation that raises stores nothing, so the next call runs it again.
    """

    def __init__(self):
        self._values: dict = {}
        self._lock = threading.RLock()

    def get(self, key, compute):
        try:
            return self._values[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._values:
                self._values[key] = compute()
            return self._values[key]

    def __reduce__(self):
        # a lock cannot be pickled; a copy of the owner recomputes its values
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

    def count(self) -> None:
        self.checks += 1

    def fail(self, witness: str) -> None:
        """Record a witness for a check already counted with count()."""
        self.failures.append(witness)

    def merge(self, other: "CheckReport") -> None:
        self.checks += other.checks
        self.failures.extend(other.failures)

    def lines(self) -> list[str]:
        out = ["%s: %s (%d checks, %d failures)" % (
            self.name, "PASS" if self.passed else "FAIL", self.checks, len(self.failures))]
        out.extend("  witness: " + w for w in self.failures)
        return out
