"""Quadratic reference for the placement kernel's angle choice.

Independent oracle for `geometry._smallest_feasible_angle`: it checks every
candidate angle against every constraint, in O(k^2), with the same candidate
set and the same exact acceptance test. The sorted sweep must return the
identical float.
"""

from __future__ import annotations

import math
from typing import Optional

from diskpack.geometry import ANGLE_EPS, TWO_PI


def circular_distance(a: float, b: float) -> float:
    d = abs(math.fmod(a - b, TWO_PI))
    return min(d, TWO_PI - d)


def smallest_feasible_angle(angle_floor: float, cons) -> Optional[float]:
    """Smallest beta >= angle_floor whose circular distance from every theta_q
    is at least sep_q. Candidates are the floor itself and each constraint's
    upper edge shifted into [floor, floor + 2*pi)."""
    cands = [angle_floor]
    for theta, sep in cons:
        base = theta + sep
        k = math.ceil((angle_floor - base) / TWO_PI)
        cand = base + TWO_PI * k
        if cand < angle_floor:
            cand += TWO_PI
        cands.append(cand)
    cands.sort()
    for beta in cands:
        if beta >= angle_floor + TWO_PI:
            continue
        ok = True
        for theta, sep in cons:
            if circular_distance(beta, theta) < sep - ANGLE_EPS:
                ok = False
                break
        if ok:
            return beta
    return None
