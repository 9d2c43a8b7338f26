"""Double-double arithmetic built on error-free transformations.

This is the "increase precision in well-chosen sub-calculations" tool of
the paper's §III-C: a double-double value carries ~31 significant decimal
digits as an unevaluated sum of two float64s, letting a global sum run at
effectively quadruple precision on ordinary hardware.  The primitives are
the classical error-free transformations:

* :func:`two_sum` (Knuth) — a + b = s + e exactly, with s = fl(a+b);
* :func:`split` (Veltkamp) — splits a float64 into two 26-bit halves;
* :func:`two_prod` (Dekker) — a·b = p + e exactly.

These identities hold *exactly* in IEEE-754 round-to-nearest arithmetic,
which the hypothesis property tests verify directly.

The scalar :class:`DoubleDouble` type supports the operations a global-sum
kernel needs (+, -, *, comparison, conversion); :func:`dd_sum` is the
vector-friendly reduction used by the mini-apps' conservation checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["two_sum", "split", "two_prod", "DoubleDouble", "dd_sum"]

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant for binary64


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth's TwoSum: return (s, e) with a + b = s + e exactly, s = fl(a+b).

    Works for any ordering of |a|, |b| at the cost of 6 flops (versus
    FastTwoSum's 3, which requires |a| >= |b|).
    """
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def split(a: float) -> tuple[float, float]:
    """Veltkamp splitting: a = hi + lo with hi, lo each ≤ 26 significant bits.

    Overflows for |a| ≥ 2**996; inputs that large are outside the dynamic
    range double-double arithmetic supports anyway, and raise.
    """
    if abs(a) >= 2.0**996:
        raise OverflowError(f"split() overflows for |a| >= 2**996, got {a!r}")
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's TwoProd: return (p, e) with a·b = p + e exactly, p = fl(a·b).

    Uses math.fma when available (Python ≥ 3.13); otherwise the Veltkamp-
    split formulation.
    """
    p = a * b
    fma = getattr(math, "fma", None)
    if fma is not None:
        return p, fma(a, b, -p)
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


@dataclass(frozen=True)
class DoubleDouble:
    """An unevaluated sum hi + lo of two float64s with |lo| ≤ ulp(hi)/2.

    Provides ~106 bits of significand.  All operations renormalize so the
    invariant ``hi == fl(hi + lo)`` holds on every instance the public API
    can produce.
    """

    hi: float
    lo: float = 0.0

    @classmethod
    def from_float(cls, value: float) -> "DoubleDouble":
        return cls(float(value), 0.0)

    @classmethod
    def _renorm(cls, hi: float, lo: float) -> "DoubleDouble":
        s, e = two_sum(hi, lo)
        return cls(s, e)

    def __add__(self, other: "DoubleDouble | float | int") -> "DoubleDouble":
        if isinstance(other, (int, float)):
            other = DoubleDouble.from_float(float(other))
        if not isinstance(other, DoubleDouble):
            return NotImplemented
        s, e = two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        return DoubleDouble._renorm(s, e)

    __radd__ = __add__

    def __neg__(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def __sub__(self, other: "DoubleDouble | float | int") -> "DoubleDouble":
        if isinstance(other, (int, float)):
            other = DoubleDouble.from_float(float(other))
        if not isinstance(other, DoubleDouble):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "float | int") -> "DoubleDouble":
        return DoubleDouble.from_float(float(other)) - self

    def __mul__(self, other: "DoubleDouble | float | int") -> "DoubleDouble":
        if isinstance(other, (int, float)):
            other = DoubleDouble.from_float(float(other))
        if not isinstance(other, DoubleDouble):
            return NotImplemented
        p, e = two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        return DoubleDouble._renorm(p, e)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.hi + self.lo

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = DoubleDouble.from_float(float(other))
        if not isinstance(other, DoubleDouble):
            return NotImplemented
        return self.hi == other.hi and self.lo == other.lo

    def __lt__(self, other: "DoubleDouble | float | int") -> bool:
        if isinstance(other, (int, float)):
            other = DoubleDouble.from_float(float(other))
        return (self.hi, self.lo) < (other.hi, other.lo)

    def __le__(self, other: "DoubleDouble | float | int") -> bool:
        return self < other or self == other

    def __hash__(self) -> int:
        return hash((self.hi, self.lo))

    def abs(self) -> "DoubleDouble":
        return -self if self.hi < 0 or (self.hi == 0 and self.lo < 0) else self


def dd_sum(values: np.ndarray) -> DoubleDouble:
    """Sum a float array into a double-double accumulator.

    Accumulates each element with TwoSum against the high word while
    gathering the errors into the low word — the classic "long accumulator
    light" used for reproducible-accurate conservation sums.  Error is
    bounded by the double-double roundoff (~2**-106 relative), i.e. exact
    for any physically meaningful simulation sum.

    The sequential loop is replayed bit for bit in NumPy: ``add.accumulate``
    is a strict left fold.  Not correctly rounded, so not ``math.fsum``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(all="ignore"):
        hi = np.add.accumulate(np.concatenate(([0.0], x)))
        bb = hi[1:] - hi[:-1]
        e = (hi[:-1] - (hi[1:] - bb)) + (x - bb)  # two_sum's errors, elementwise
        lo = np.add.accumulate(np.concatenate(([0.0], e)))[-1]
    return DoubleDouble._renorm(float(hi[-1]), float(lo))
