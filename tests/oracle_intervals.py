"""Scalar reference for the interval arrays of `diskpack.intervals`.

One closed interval at a time, in the same rounding scheme: each bound is
widened by ``math.nextafter``, 1 ulp for the correctly-rounded operations
(+, -, *, /, sqrt), and asinc(z) = asin(z)/z widens libm's asin by
_LIBM_ULPS ulps before its quotient takes one more. Lane by lane, every
`av_*` operation must give the same bits as its scalar form here
(`tests/test_prover_kernel.py`), and `oracle_sector_terms.py` builds the
prover's box evaluation from these operations alone. The prover itself runs
only the array operations.
"""

from __future__ import annotations

import math
from math import nextafter as _nextafter
from math import sqrt as _sqrt

from diskpack.intervals import UndefinedIntervalError

_INF = math.inf
# Ulps by which libm's asin is widened (the library's intervals._LIBM_ULPS).
_LIBM_ULPS = 4
# An upper bound of pi/2: the float nearest to it lies below it.
_HALF_PI_HI = _nextafter(0.5 * math.pi, _INF)


class Interval:
    """Closed interval [lo, hi] of reals, lo <= hi, both finite."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        # The chained comparison is False for NaN and rejects infinities.
        if not (-_INF < lo <= hi < _INF):
            raise UndefinedIntervalError(f"invalid interval bounds: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __neg__(self):
        return _mk(-self.hi, -self.lo)


_new = Interval.__new__


def _mk(lo: float, hi: float) -> Interval:
    """Internal constructor: same validation as __init__, minus dispatch."""
    if not (-_INF < lo <= hi < _INF):
        raise UndefinedIntervalError(f"invalid interval bounds: [{lo}, {hi}]")
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def iv_pi() -> Interval:
    """Tight enclosure of pi (width 2 ulp)."""
    return _mk(_nextafter(math.pi, -_INF), _nextafter(math.pi, _INF))


def iv_point(x: float) -> Interval:
    """Degenerate interval [x, x]."""
    return Interval(x, x)


def iv_min(a: Interval, b: Interval) -> Interval:
    """Enclosure of pointwise min(x, y)."""
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_max(a: Interval, b: Interval) -> Interval:
    """Enclosure of pointwise max(x, y)."""
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_add(a: Interval, b: Interval) -> Interval:
    return _mk(_nextafter(a.lo + b.lo, -_INF), _nextafter(a.hi + b.hi, _INF))


def iv_sub(a: Interval, b: Interval) -> Interval:
    return _mk(_nextafter(a.lo - b.hi, -_INF), _nextafter(a.hi - b.lo, _INF))


def iv_mul(a: Interval, b: Interval) -> Interval:
    alo = a.lo
    ahi = a.hi
    blo = b.lo
    bhi = b.hi
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return _mk(
        _nextafter(min(p1, p2, p3, p4), -_INF),
        _nextafter(max(p1, p2, p3, p4), _INF),
    )


def iv_div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise UndefinedIntervalError(f"division by interval containing zero: {b}")
    alo = a.lo
    ahi = a.hi
    blo = b.lo
    bhi = b.hi
    q1 = alo / blo
    q2 = alo / bhi
    q3 = ahi / blo
    q4 = ahi / bhi
    return _mk(
        _nextafter(min(q1, q2, q3, q4), -_INF),
        _nextafter(max(q1, q2, q3, q4), _INF),
    )


def iv_sqrt(a: Interval) -> Interval:
    if a.lo < 0.0:
        raise UndefinedIntervalError(f"sqrt of interval with negative part: {a}")
    # sqrt is correctly rounded, so 1 ulp suffices; never widen below zero.
    return _mk(max(0.0, _nextafter(_sqrt(a.lo), -_INF)), _nextafter(_sqrt(a.hi), _INF))


def _asinc_end(z: float, direction: float) -> float:
    """asinc(z) = asin(z)/z at z in [0, 1], rounded towards `direction`: libm's
    asin widened by _LIBM_ULPS ulps, then the quotient widened by one; 1 at
    z = 0, and 1 rounded one step towards `direction` at 0 < z < 2^-30, where
    asinc(z) - 1 < z^2 < ulp(1)/2."""
    if z == 0.0:
        return 1.0
    if z < 2.0 ** -30:
        return math.nextafter(1.0, direction)
    s = math.asin(z)
    for _ in range(_LIBM_ULPS):
        s = math.nextafter(s, direction)
    return math.nextafter(s / z, direction)


def iv_asinc(a: Interval) -> Interval:
    """Enclosure of asinc over the part of `a` in [0, 1], where asinc
    increases from 1 to pi/2: its values at the two ends, kept within
    [1, pi/2]."""
    lo, hi = max(a.lo, 0.0), min(a.hi, 1.0)
    if lo > hi:
        raise UndefinedIntervalError(f"asinc of an interval outside [0, 1]: {a}")
    return Interval(
        max(_asinc_end(lo, -math.inf), 1.0), min(_asinc_end(hi, math.inf), _HALF_PI_HI)
    )
