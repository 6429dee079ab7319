"""Scalar asin and acos enclosures in the rounding scheme of
`diskpack.intervals`.

The prover encloses asin only through asinc (`intervals.av_asinc`), so these
two live with the tests: criterion 5 fuzzes them, and `test_intervals.py`
checks them against mpmath. Both widen libm's result by _LIBM_ULPS ulps, the
budget that `intervals.av_asinc` gives libm's asin.
"""

from __future__ import annotations

import math

from diskpack.intervals import Interval, UndefinedIntervalError

_INF = math.inf
# Ulps by which libm's asin and acos are widened (intervals._LIBM_ULPS).
_LIBM_ULPS = 4


def _widen(x: float, ulps: int, direction: float) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, direction)
    return x


def iv_asin(a: Interval) -> Interval:
    if a.lo < -1.0 or a.hi > 1.0:
        raise UndefinedIntervalError(f"asin of interval outside [-1, 1]: {a}")
    lo = _widen(math.asin(a.lo), _LIBM_ULPS, -_INF)
    hi = _widen(math.asin(a.hi), _LIBM_ULPS, _INF)
    if a.hi > 0.9 or a.lo < -0.9:
        # Near +-1 the acos-complement pi/2 - acos(x) is better conditioned;
        # both paths are sound enclosures, so intersect them.
        half_pi_lo = math.nextafter(0.5 * math.pi, -_INF)
        half_pi_hi = math.nextafter(0.5 * math.pi, _INF)
        lo_c = math.nextafter(half_pi_lo - _widen(math.acos(a.lo), _LIBM_ULPS, _INF), -_INF)
        hi_c = math.nextafter(half_pi_hi - _widen(math.acos(a.hi), _LIBM_ULPS, -_INF), _INF)
        if lo_c <= hi_c:
            new_lo = max(lo, lo_c)
            new_hi = min(hi, hi_c)
            if new_lo <= new_hi:
                lo, hi = new_lo, new_hi
    return Interval(lo, hi)


def iv_acos(a: Interval) -> Interval:
    if a.lo < -1.0 or a.hi > 1.0:
        raise UndefinedIntervalError(f"acos of interval outside [-1, 1]: {a}")
    return Interval(
        max(0.0, _widen(math.acos(a.hi), _LIBM_ULPS, -_INF)),
        _widen(math.acos(a.lo), _LIBM_ULPS, _INF),
    )
