"""References for the placement kernel.

`blocking_constraints` builds the keep-out arcs from the placed disks
themselves, computing each disk's distance and polar angle about the center
on every call; `geometry._blocking_constraints` reads them from the entries
that `geometry.polar_entry` computed once, when the disk was placed, and a
`NearDisks` index holds. It must give the identical floats.

`smallest_feasible_angle` is the independent oracle for
`geometry.NearDisks.free_angle`: it checks every candidate angle against
every constraint, in O(k^2), with the same candidate set and the same exact
acceptance test. The sorted sweep must return the identical float.
"""

from __future__ import annotations

import math
from typing import Optional

from diskpack.geometry import ANGLE_EPS, CLAMP_SLACK, TWO_PI


def blocking_constraints(center, anchor, r, prev):
    """Per-disk angular keep-out half-widths for a center circling at `anchor`
    about `center`, from the placed disks prev.

    Returns (constraints, blocked): constraints is a list of (theta_q, sep_q)
    meaning the candidate angle must stay at circular distance >= sep_q from
    theta_q; blocked is True when some disk overlaps the placement circle at
    every angle.
    """
    cx, cy = center
    a2 = anchor * anchor
    two_a = 2.0 * anchor
    hypot, atan2, acos = math.hypot, math.atan2, math.acos
    cons = []
    for q in prev:
        qx, qy = q.center
        dx = qx - cx
        dy = qy - cy
        dq = hypot(dx, dy)
        gap = r + q.radius
        if two_a * dq == 0.0:  # concentric, or dq so small the divisor underflows
            if anchor >= gap:
                continue
            return [], True
        c = (a2 + dq * dq - gap * gap) / (two_a * dq)
        if c >= 1.0:
            continue  # |anchor - dq| >= gap: no angle can overlap q
        if c < -1.0:
            if c < -1.0 - CLAMP_SLACK:
                return [], True  # anchor + dq < gap: q overlaps at every angle
            c = -1.0
        theta = atan2(dy, dx)  # in [-pi, pi], so one wrap normalizes it
        if theta < 0.0:
            theta += TWO_PI
        cons.append((theta, acos(c)))
    return cons, False


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
