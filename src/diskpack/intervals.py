"""Directed-rounded interval arithmetic.

Every operation returns an interval that is guaranteed to contain all real
results of the pointwise operation over the operand intervals (enclosure).
Outward rounding is realized by widening each bound with ``math.nextafter``:
1 ulp for the correctly-rounded operations (+, -, *, /, sqrt) and 4 ulp for
asin/acos, which covers the documented worst-case error of common libm
implementations (<= 2 ulp) with a safety factor of two.

Because no FPU rounding mode is ever switched, all operations are plain value
computations: they are deterministic and safe to use concurrently from any
number of threads or processes without coordination.
"""

from __future__ import annotations

import math
from math import acos as _acos
from math import asin as _asin
from math import nextafter as _nextafter
from math import sqrt as _sqrt

import numpy as np

__all__ = [
    "Interval",
    "UndefinedIntervalError",
    "iv_add",
    "iv_sub",
    "iv_mul",
    "iv_div",
    "iv_sqrt",
    "iv_asin",
    "iv_acos",
    "iv_pi",
    "av_add",
    "av_sub",
    "av_mul",
    "av_div",
    "av_asin",
    "av_acos",
    "av_min",
    "av_max",
    "av_neg",
]

_INF = math.inf

# Widening budget for libm-evaluated functions (asin/acos), in ulps.
_LIBM_ULPS = 4


class UndefinedIntervalError(ArithmeticError):
    """An operation left its real domain (or produced NaN) for some operand values."""


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


def _widen(x: float, ulps: int, direction: float) -> float:
    for _ in range(ulps):
        x = _nextafter(x, direction)
    return x


def iv_pi() -> Interval:
    """Tight enclosure of pi (width 2 ulp)."""
    return _mk(_nextafter(math.pi, -_INF), _nextafter(math.pi, _INF))


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


def iv_asin(a: Interval) -> Interval:
    if a.lo < -1.0 or a.hi > 1.0:
        raise UndefinedIntervalError(f"asin of interval outside [-1, 1]: {a}")
    lo = _widen(_asin(a.lo), _LIBM_ULPS, -_INF)
    hi = _widen(_asin(a.hi), _LIBM_ULPS, _INF)
    if a.hi > 0.9 or a.lo < -0.9:
        # Near +-1 the acos-complement pi/2 - acos(x) is better conditioned;
        # both paths are sound enclosures, so intersect them.
        half_pi_lo = _nextafter(0.5 * math.pi, -_INF)
        half_pi_hi = _nextafter(0.5 * math.pi, _INF)
        lo_c = _nextafter(half_pi_lo - _widen(_acos(a.lo), _LIBM_ULPS, _INF), -_INF)
        hi_c = _nextafter(half_pi_hi - _widen(_acos(a.hi), _LIBM_ULPS, -_INF), _INF)
        if lo_c <= hi_c:
            new_lo = max(lo, lo_c)
            new_hi = min(hi, hi_c)
            if new_lo <= new_hi:
                lo, hi = new_lo, new_hi
    return _mk(lo, hi)


def iv_acos(a: Interval) -> Interval:
    if a.lo < -1.0 or a.hi > 1.0:
        raise UndefinedIntervalError(f"acos of interval outside [-1, 1]: {a}")
    return _mk(
        max(0.0, _widen(_acos(a.hi), _LIBM_ULPS, -_INF)),
        _widen(_acos(a.lo), _LIBM_ULPS, _INF),
    )


# ---------------------------------------------------------------------------
# Interval arrays
#
# The operations above on arrays of intervals, each held as a (lo, hi) pair of
# float64 arrays; either side of an operand may be a float constant. Lane by
# lane, every result has the same bits as the scalar operation: the same IEEE
# operation followed by the same np.nextafter steps, and np.minimum/np.maximum
# where the scalar code uses min/max. These two may return the other zero on a
# tie between 0.0 and -0.0, which changes no later result, since np.nextafter
# takes both zeros to the same neighbour. asin and acos call math.asin and
# math.acos once per element: numpy's arcsin and arccos take another libm path
# and differ from them in the last bits on many inputs. A lane outside a real
# domain raises UndefinedIntervalError for the whole array.


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def _awiden(x: np.ndarray, ulps: int, direction: float) -> np.ndarray:
    for _ in range(ulps):
        x = np.nextafter(x, direction)
    return x


def av_neg(a):
    return -a[1], -a[0]


def av_min(a, b):
    return np.minimum(a[0], b[0]), np.minimum(a[1], b[1])


def av_max(a, b):
    return np.maximum(a[0], b[0]), np.maximum(a[1], b[1])


def av_add(a, b):
    return np.nextafter(a[0] + b[0], -_INF), np.nextafter(a[1] + b[1], _INF)


def av_sub(a, b):
    return np.nextafter(a[0] - b[1], -_INF), np.nextafter(a[1] - b[0], _INF)


def av_mul(a, b):
    alo, ahi = a
    blo, bhi = b
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (
        np.nextafter(np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)), -_INF),
        np.nextafter(np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)), _INF),
    )


def av_div(a, b):
    alo, ahi = a
    blo, bhi = b
    if np.any((blo <= 0.0) & (0.0 <= bhi)):
        raise UndefinedIntervalError("division by an interval containing zero")
    q1 = alo / blo
    q2 = alo / bhi
    q3 = ahi / blo
    q4 = ahi / bhi
    return (
        np.nextafter(np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)), -_INF),
        np.nextafter(np.maximum(np.maximum(q1, q2), np.maximum(q3, q4)), _INF),
    )


def _check_unit(a, name: str) -> None:
    if np.any(a[0] < -1.0) or np.any(a[1] > 1.0):
        raise UndefinedIntervalError(f"{name} of an interval outside [-1, 1]")


def av_asin(a):
    _check_unit(a, "asin")
    alo, ahi = a
    lo = _awiden(_libm(_asin, alo), _LIBM_ULPS, -_INF)
    hi = _awiden(_libm(_asin, ahi), _LIBM_ULPS, _INF)
    near = np.flatnonzero((ahi > 0.9) | (alo < -0.9))
    if near.size:
        # iv_asin's acos complement, on the lanes near +-1 only.
        half_pi_lo = _nextafter(0.5 * math.pi, -_INF)
        half_pi_hi = _nextafter(0.5 * math.pi, _INF)
        lo_c = np.nextafter(
            half_pi_lo - _awiden(_libm(_acos, alo[near]), _LIBM_ULPS, _INF), -_INF
        )
        hi_c = np.nextafter(
            half_pi_hi - _awiden(_libm(_acos, ahi[near]), _LIBM_ULPS, -_INF), _INF
        )
        new_lo = np.maximum(lo[near], lo_c)
        new_hi = np.minimum(hi[near], hi_c)
        take = (lo_c <= hi_c) & (new_lo <= new_hi)
        lo[near[take]] = new_lo[take]
        hi[near[take]] = new_hi[take]
    return lo, hi


def av_acos(a):
    _check_unit(a, "acos")
    return (
        np.maximum(0.0, _awiden(_libm(_acos, a[1]), _LIBM_ULPS, -_INF)),
        _awiden(_libm(_acos, a[0]), _LIBM_ULPS, _INF),
    )
