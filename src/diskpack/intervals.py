"""Directed-rounded interval arithmetic on arrays of intervals.

Each interval is held as a (lo, hi) pair of float64 arrays; either side of an
operand may be a float constant. Every operation returns intervals that are
guaranteed to contain all real results of the pointwise operation over the
operand intervals (enclosure). Outward rounding is realized by widening each
bound with ``np.nextafter``: 1 ulp for the correctly-rounded operations
(+, -, *, /, sqrt). asinc(z) = asin(z)/z (av_asinc) widens libm's asin by
4 ulp, which covers the documented worst-case error of common libm
implementations (<= 2 ulp) with a safety factor of two, and one more ulp for
the division. No FPU rounding mode is ever switched.

Lane by lane, every result has the same bits as the scalar operation of the
tests' oracle, `tests/oracle_intervals.py`: the same IEEE operation followed
by the same nextafter steps, and np.minimum/np.maximum where the scalar code
uses min/max. These two may return the other zero on a tie between 0.0 and
-0.0, which changes no later result, since np.nextafter takes both zeros to
the same neighbour. asinc calls math.asin once per element: numpy's arcsin
takes another libm path and differs from it in the last bits on many inputs.
A lane outside a real domain raises UndefinedIntervalError for the whole
array.
"""

from __future__ import annotations

import math
from math import asin as _asin
from math import nextafter as _nextafter

import numpy as np

__all__ = [
    "UndefinedIntervalError",
    "av_add",
    "av_sub",
    "av_mul",
    "av_div",
    "av_sqrt",
    "av_asinc",
    "av_min",
    "av_max",
    "av_neg",
]

_INF = math.inf

# Widening budget for libm's asin, in ulps.
_LIBM_ULPS = 4


class UndefinedIntervalError(ArithmeticError):
    """An operation left its real domain (or produced NaN) for some operand values."""


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


def av_sqrt(a):
    if np.any(a[0] < 0.0):
        raise UndefinedIntervalError("sqrt of an interval with a negative part")
    lo = np.maximum(0.0, np.nextafter(np.sqrt(a[0]), -_INF))
    return lo, np.nextafter(np.sqrt(a[1]), _INF)


# An upper bound of pi/2: the float nearest to it lies below it.
_HALF_PI_HI = _nextafter(0.5 * math.pi, _INF)


# Below this z, asinc(z) - 1 < z^2 < ulp(1)/2, so 1 and its upper neighbour
# enclose asinc(z).
_ASINC_TINY = 2.0 ** -30


def _asinc_end(z: np.ndarray, direction: float) -> np.ndarray:
    """asinc at each z in [0, 1], rounded towards `direction` (see av_asinc)."""
    s = _awiden(_libm(_asin, z), _LIBM_ULPS, direction)
    out = np.ones_like(z)
    tiny = (z > 0.0) & (z < _ASINC_TINY)
    out[tiny] = np.nextafter(1.0, direction)
    big = z >= _ASINC_TINY
    out[big] = np.nextafter(s[big] / z[big], direction)
    return out


def av_asinc(a):
    """Enclosure of asinc(z) = asin(z)/z, with asinc(0) = 1, over each
    interval of z intersected with [0, 1], where asinc is defined. asinc
    increases on [0, 1], from 1 to pi/2, so the enclosure runs from its value
    at the lower end to its value at the upper end. Each end value is asin(z)
    from libm, widened by _LIBM_ULPS ulps away from the true value, divided
    by z, rounded to nearest and widened by 1 ulp more: 4 + 1 ulps in all.
    With libm's asin within 2 ulps, an end lies within (4 + 2) * pi/2 + 1.5,
    under 11, ulps of 1.0 of the true value. An end at z = 0 is 1 exactly,
    and an end at 0 < z < 2^-30 is 1 below and the float above 1 above:
    there the quotient would lose the budget to asin's absolute ulps, and at
    a subnormal z it would reach pi/2, far above asinc. The ends are kept
    within [1, pi/2]. A lane whose interval misses [0, 1] raises
    UndefinedIntervalError for the whole array."""
    lo = np.maximum(a[0], 0.0)
    hi = np.minimum(a[1], 1.0)
    if np.any(lo > hi):
        raise UndefinedIntervalError("asinc of an interval outside [0, 1]")
    return (
        np.maximum(_asinc_end(lo, -_INF), 1.0),
        np.minimum(_asinc_end(hi, _INF), _HALF_PI_HI),
    )
