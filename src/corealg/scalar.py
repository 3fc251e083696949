"""Exact arithmetic in the ring Q[sqrt(k) : k squarefree].

An element is a finite sum  sum_k c_k * sqrt(k)  over squarefree integers
k >= 1 with nonzero rational coefficients c_k; the k = 1 slot is the rational
part.  Products reduce by pulling square factors out of sqrt(j)*sqrt(k), so
every element has one canonical form and equality is a dictionary comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .util import accumulate

# Radicands stay inside one machine word.  Python ints never wrap, so this is
# an explicit refusal rather than an overflow guard.
RADICAND_LIMIT = 2**63 - 1

_Scalar = Union[int, Fraction]


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree.

    Trial division runs only while d**3 <= n (n shrinking as factors come
    out).  The cofactor left then has no prime factor below d and is below
    d**3, so it is 1, p, p*q or p*p: squarefree unless it is a perfect square.
    """
    if n <= 0:
        raise ValueError("radicand must be positive, got %r" % n)
    if n > RADICAND_LIMIT:
        raise OverflowError("radicand %d exceeds the machine-word bound" % n)
    s, m = 1, 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, m
    return s, m * n


def _check_rational(q) -> Fraction:
    # floats would enter as their binary expansions, so only exact types pass
    if not isinstance(q, (int, Fraction)):
        raise TypeError("coefficient must be int or Fraction, got %s" % type(q).__name__)
    return Fraction(q)


class Radical:
    """Immutable element of Q[sqrt(k)], stored as integer numerators
    {squarefree radicand: nonzero int} over one positive int denominator,
    with no factor common to the denominator and every numerator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict[int, Fraction] | None = None):
        """Any positive radicands up to RADICAND_LIMIT; each is reduced to
        its squarefree part, so c*sqrt(s*s*m) is stored as c*s*sqrt(m)."""
        clean: dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = _check_rational(c)
                s, m = _squarefree_split(k)
                accumulate(clean, m, c * s)
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den

    @classmethod
    def _raw(cls, num: dict[int, int], den: int) -> "Radical":
        """Internal constructor without checks.  Every key of `num` must be a
        squarefree radicand in [1, RADICAND_LIMIT], every value a nonzero int,
        `den` positive and gcd(den, *num.values()) == 1; the dict is taken
        over, not copied."""
        r = cls.__new__(cls)
        r._num = num
        r._den = den
        return r

    @classmethod
    def _wrap(cls, num: dict[int, int], den: int) -> "Radical":
        """As _raw, but cancels the factor common to den and the numerators."""
        if not num:
            return ZERO
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        return cls._raw(num, den)

    @classmethod
    def from_rational(cls, q: _Scalar) -> "Radical":
        if not isinstance(q, (int, Fraction)):
            _check_rational(q)      # raises: only exact types pass
        return cls._raw({1: q.numerator} if q else {}, q.denominator)

    @classmethod
    def sqrt(cls, n: int) -> "Radical":
        """sqrt(n) for a positive integer n, reduced to canonical form."""
        s, m = _squarefree_split(n)
        return cls._raw({m: s}, 1)

    @classmethod
    def inv_sqrt(cls, n: int) -> "Radical":
        """1/sqrt(n):  with n = s*s*m squarefree-split this is sqrt(m)/(s*m)."""
        s, m = _squarefree_split(n)
        return cls._raw({m: 1}, s * m)

    @classmethod
    def inv_sqrt_rational(cls, q: _Scalar) -> "Radical":
        """1/sqrt(q) for a positive rational q = a/b, via 1/sqrt(ab) * b."""
        q = _check_rational(q)
        if q <= 0:
            raise ValueError("inv_sqrt_rational needs a positive rational")
        return cls.inv_sqrt(q.numerator * q.denominator) * q.denominator

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Radical else scalar(other)
        if o is None:
            return NotImplemented
        st, ot = self._num, o._num
        den, oden = self._den, o._den
        if len(st) == 1 == len(ot):
            j, = st
            k, = ot
            if j == k:
                # a/den + b/oden on one radicand: one integer sum over den*oden
                n = st[j] * oden + ot[k] * den
                if not n:
                    return ZERO
                den *= oden
                g = math.gcd(n, den)
                return Radical._raw({j: n // g}, den // g)
        if den == oden:
            out, scale = dict(st), 1
        else:
            # over lcm(den, oden): self's numerators times oden/g, o's times den/g
            g = math.gcd(den, oden)
            scale, lift = den // g, oden // g
            out = {k: c * lift for k, c in st.items()}
            den *= lift
        for k, c in ot.items():
            if scale != 1:
                c *= scale
            # c is nonzero, so only a key already in out can cancel
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return Radical._wrap(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Radical._raw({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        o = scalar(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = scalar(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is Radical else scalar(other)
        if o is None:
            return NotImplemented
        st, ot = self._num, o._num
        den = self._den * o._den
        # j and k are squarefree, so sqrt(j)*sqrt(k) = s*sqrt(m) with
        # s = gcd(j, k) and m = (j/s)(k/s) squarefree: no factoring needed
        if len(st) == 1 == len(ot):
            # two nonzero terms, so the product is one nonzero term
            j, = st
            k, = ot
            if j == k:
                m, n = 1, st[j] * ot[k] * j
            else:
                s = math.gcd(j, k)
                m = (j // s) * (k // s)
                if m > RADICAND_LIMIT:
                    raise OverflowError("radicand %d exceeds the machine-word bound" % m)
                n = st[j] * ot[k] * s
            g = math.gcd(n, den)
            return Radical._raw({m: n // g}, den // g)
        out: dict[int, int] = {}
        for j, a in st.items():
            for k, b in ot.items():
                s = math.gcd(j, k)
                m = (j // s) * (k // s)
                if m > RADICAND_LIMIT:
                    raise OverflowError("radicand %d exceeds the machine-word bound" % m)
                accumulate(out, m, a * b if s == 1 else a * b * s)
        return Radical._wrap(out, den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = other if type(other) is Radical else scalar(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(self.rational_part())
        return hash((self._den, tuple(sorted(self._num.items()))))

    def __bool__(self):
        """The one zero test: a Radical is true when it is nonzero."""
        return bool(self._num)

    def is_rational(self) -> bool:
        return all(k == 1 for k in self._num)

    def rational_part(self) -> Fraction:
        return Fraction(self._num.get(1, 0), self._den)

    def term_count(self) -> int:
        """Number of nonzero terms, one per radicand."""
        return len(self._num)

    # -- float side ---------------------------------------------------------

    def evalf(self) -> float:
        """Float value; each sqrt is one correctly-rounded double, so the
        error is bounded by a few ulp per term."""
        # int / int rounds correctly, so each c / den is float(Fraction(c, den));
        # the sum starts at 0.0 so that zero is a float too
        return sum((c / self._den * math.sqrt(k) for k, c in self._num.items()), 0.0)

    def __float__(self) -> float:
        return self.evalf()

    # -- text form ----------------------------------------------------------

    def text(self) -> str:
        """Canonical text: '+'-joined `p/q*sqrt(k)` terms sorted by radicand,
        rational slot printed bare.  Round-trips exactly through parse_radical."""
        if not self._num:
            return "0"
        parts = []
        for k, c in sorted(self._num.items()):
            # c/den in lowest terms, printed as str(Fraction(c, den)) would
            g = math.gcd(c, self._den)
            q = "%d" % (c // g) if g == self._den else "%d/%d" % (c // g, self._den // g)
            parts.append(q if k == 1 else "%s*sqrt(%d)" % (q, k))
        out = parts[0]
        for body in parts[1:]:
            out += body if body.startswith("-") else "+" + body
        return out

    def __repr__(self):
        return "Radical(%s)" % self.text()


ZERO = Radical()
ONE = Radical.from_rational(1)


def scalar(x) -> Radical | None:
    """x as a Radical coefficient when it is a Radical, int or Fraction;
    None for anything else, so operators can return NotImplemented."""
    if isinstance(x, Radical):
        return x
    if isinstance(x, (int, Fraction)):
        return Radical.from_rational(x)
    return None


def parse_radical(text: str) -> Radical:
    """Parse the canonical text form (spaces tolerated, signs inline)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty radical literal")
    if s == "0":
        return Radical()
    # split into signed chunks without touching the '-' inside no chunk
    chunks: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0:
            chunks.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    chunks.append(cur)
    total = ZERO
    for chunk in chunks:
        if not chunk or chunk in "+-":
            raise ValueError("malformed radical literal %r" % text)
        coef, rad = chunk, 1
        if "sqrt(" in chunk:
            coef, _, tail = chunk.partition("sqrt(")
            if not tail.endswith(")"):
                raise ValueError("unterminated sqrt(...) in %r" % text)
            rad = int(tail[:-1])
            if rad > RADICAND_LIMIT:
                raise ValueError("radicand %d in %r exceeds the machine-word bound"
                                 % (rad, text))
            coef = coef[:-1] if coef.endswith("*") else coef
            if coef in ("", "-"):
                coef += "1"
        if "e" in coef or "E" in coef:
            # Fraction would build 10**exponent: a short text, a huge number
            raise ValueError("exponent in coefficient %r of %r" % (coef, text))
        try:
            c = Fraction(coef)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("bad coefficient %r in %r" % (coef, text)) from exc
        total = total + Radical.sqrt(rad) * c
    return total
