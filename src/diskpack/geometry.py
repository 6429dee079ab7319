"""Exact-formula circle geometry for boundary and ring placements.

All functions are pure and operate on immutable values in hardware doubles;
they are safe to call concurrently. Angles are polar angles measured
counterclockwise from the positive x-axis and normalized to [0, 2*pi) unless
stated otherwise.

Placement kernel: each disk near the circle of candidate centers yields a
keep-out arc (theta_q, sep_q) (`_blocking_constraints`), and
`_smallest_feasible_angle` picks the smallest free angle >= the floor from k
arcs in O(k log k), by one sweep over the sorted candidates and arcs. The
sweep only skips a candidate lying deeper than SWEEP_MARGIN inside an arc; a
candidate is returned only once the exact test (circular distance to every
theta_q >= sep_q - ANGLE_EPS) passes, so the angle is bit-identical to
checking every candidate against every arc, whatever the arcs' order. Each
exact test costs O(k); random packings make fewer than one per placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

TWO_PI = 2.0 * math.pi

# Slack for arccos/arcsin arguments that drift past [-1, 1] through roundoff.
# Larger excursions are treated as logic errors, not clamped.
CLAMP_SLACK = 1e-12

# Largest residual at which inscribed_disk_after_two takes two disks and the
# container as mutually tangent, and two Descartes candidates as tied.
TANGENCY_TOL = 1e-9

# Angular slack so that an exactly-tangent candidate passes its own constraint.
ANGLE_EPS = 1e-12

# Depth inside a keep-out arc beyond which the sweep skips a candidate without
# the exact test; it dwarfs ANGLE_EPS plus the rounding of an arc's edges.
SWEEP_MARGIN = 1e-9


class GeometryDomainError(ValueError):
    """A precondition on radii or distances was violated."""


class RingWidthError(ValueError):
    """Disk diameter exceeds ring width (distinct from crowding NO_FIT)."""


class Side(Enum):
    OUTER = "outer"
    INNER = "inner"


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class PlacedDisk:
    center: Point
    radius: float


@dataclass(frozen=True, slots=True)
class ContainerDisk:
    center: Point
    radius: float


@dataclass(frozen=True, slots=True)
class RingShape:
    """Closed annulus between concentric radii r_in < r_out."""

    center: Point
    r_out: float
    r_in: float

    @property
    def width(self) -> float:
        return self.r_out - self.r_in


def unit_container() -> ContainerDisk:
    return ContainerDisk(Point(0.0, 0.0), 1.0)


def normalize_angle(a: float) -> float:
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a


def polar_angle(center: Point, p: Point) -> float:
    return normalize_angle(math.atan2(p.y - center.y, p.x - center.x))


def _blocking_constraints(
    center: Point, anchor: float, r: float, prev: Sequence[PlacedDisk]
):
    """Per-disk angular keep-out half-widths for a center circling at `anchor`.

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
        if dq == 0.0:
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


def _smallest_feasible_angle(angle_floor: float, cons) -> Optional[float]:
    """Smallest beta >= angle_floor whose circular distance from every theta_q
    is at least sep_q - ANGLE_EPS. Candidates are the floor itself and each
    constraint's upper edge shifted into [floor, floor + 2*pi). The sweep
    keeps `reach`, the furthest end of the arcs started so far (an arc that
    starts below the floor also has a copy 2*pi up)."""
    top = angle_floor + TWO_PI
    cands = [angle_floor]
    arcs = []
    for theta, sep in cons:
        base = theta + sep
        k = math.ceil((angle_floor - base) / TWO_PI)
        cand = base + TWO_PI * k
        if cand < angle_floor:
            cand += TWO_PI
        cands.append(cand)
        start = cand - 2.0 * sep
        arcs.append((start, cand))
        if start < angle_floor:
            arcs.append((start + TWO_PI, cand + TWO_PI))
    cands.sort()
    arcs.sort()
    i, n_arcs, reach = 0, len(arcs), -math.inf
    for beta in cands:
        if beta >= top:
            break
        lo = beta - SWEEP_MARGIN
        while i < n_arcs and arcs[i][0] < lo:
            end = arcs[i][1]
            if end > reach:
                reach = end
            i += 1
        if reach > beta + SWEEP_MARGIN:
            continue
        for theta, sep in cons:
            d = abs(math.fmod(beta - theta, TWO_PI))
            if min(d, TWO_PI - d) < sep - ANGLE_EPS:
                break
        else:
            return beta
    return None


def _place_at_anchor(
    center: Point,
    anchor: float,
    angle_floor: float,
    prev: Sequence[PlacedDisk],
    r: float,
) -> Optional[PlacedDisk]:
    if anchor == 0.0:
        # Degenerate: the disk is concentric with the anchor circle.
        for q in prev:
            dq = math.hypot(q.center.x - center.x, q.center.y - center.y)
            if dq < r + q.radius - ANGLE_EPS:
                return None
        return PlacedDisk(center, r)
    cons, blocked = _blocking_constraints(center, anchor, r, prev)
    if blocked:
        return None
    beta = _smallest_feasible_angle(angle_floor, cons)
    if beta is None:
        return None
    return PlacedDisk(
        Point(center.x + anchor * math.cos(beta), center.y + anchor * math.sin(beta)),
        r,
    )


def place_tangent(
    boundary: ContainerDisk,
    r: float,
    angle_floor: float = 0.0,
    prev: Sequence[PlacedDisk] = (),
) -> Optional[PlacedDisk]:
    """Place a disk of radius r adjacent to the container boundary from inside.

    The center goes at distance boundary.radius - r from the container center,
    at the smallest polar angle >= angle_floor at which the disk overlaps no
    disk of prev (wrap-around past 2*pi is checked against every disk).
    Returns None (NO_FIT) when no such angle exists.
    """
    if r > boundary.radius:
        raise GeometryDomainError(
            f"disk radius {r} exceeds container radius {boundary.radius}"
        )
    return _place_at_anchor(boundary.center, boundary.radius - r, angle_floor, prev, r)


def place_in_ring(
    ring: RingShape,
    side: Side,
    r: float,
    angle_floor: float = 0.0,
    prev: Sequence[PlacedDisk] = (),
) -> Optional[PlacedDisk]:
    """Place a disk of radius r inside a ring, adjacent to the chosen boundary.

    Raises RingWidthError when the disk cannot fit widthwise (2r > width);
    returns None (NO_FIT) when it fits widthwise but every angle is crowded.
    """
    if 2.0 * r > ring.width + CLAMP_SLACK:
        raise RingWidthError(
            f"disk diameter {2.0 * r} exceeds ring width {ring.width}"
        )
    if side is Side.OUTER:
        anchor = ring.r_out - r
    else:
        anchor = ring.r_in + r
    return _place_at_anchor(ring.center, anchor, angle_floor, prev, r)


def center_penetration(c: ContainerDisk, placed: Sequence[PlacedDisk]) -> float:
    """Depth by which placed disks cover the container center (0 if uncovered)."""
    best = 0.0
    found = False
    for q in placed:
        d = math.hypot(q.center.x - c.center.x, q.center.y - c.center.y)
        if d < q.radius:
            pen = q.radius - d
            if not found or pen < best:
                best = pen
                found = True
    return best if found else 0.0


def _circle_circle_intersections(c0: Point, r0: float, c1: Point, r1: float):
    dx = c1.x - c0.x
    dy = c1.y - c0.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    a = (d * d + r0 * r0 - r1 * r1) / (2.0 * d)
    h2 = r0 * r0 - a * a
    if h2 < 0.0:
        if h2 < -CLAMP_SLACK:
            return []
        h2 = 0.0
    h = math.sqrt(h2)
    ux, uy = dx / d, dy / d
    mx, my = c0.x + a * ux, c0.y + a * uy
    return [Point(mx - h * uy, my + h * ux), Point(mx + h * uy, my - h * ux)]


def _recursion_fallback(c: ContainerDisk, d1: PlacedDisk, d2: PlacedDisk) -> ContainerDisk:
    """Guaranteed container update: radius c/5 tangent to c on the diameter
    perpendicular to the d1-d2 axis, on the side away from both disks."""
    ux = d2.center.x - d1.center.x
    uy = d2.center.y - d1.center.y
    n = math.hypot(ux, uy)
    if n == 0.0:
        vx, vy = 0.0, 1.0
    else:
        vx, vy = -uy / n, ux / n
    midx = 0.5 * (d1.center.x + d2.center.x)
    midy = 0.5 * (d1.center.y + d2.center.y)
    if vx * (c.center.x - midx) + vy * (c.center.y - midy) < 0.0:
        vx, vy = -vx, -vy
    rad = c.radius / 5.0
    off = c.radius - rad
    return ContainerDisk(
        Point(c.center.x + off * vx, c.center.y + off * vy), rad
    )


def inscribed_disk_after_two(
    c: ContainerDisk, d1: PlacedDisk, d2: PlacedDisk
) -> ContainerDisk:
    """Largest disk tangent internally to c and externally to two mutually
    tangent disks that touch c's boundary (Descartes curvature relation).

    When the three-tangency precondition fails beyond TANGENCY_TOL, falls back
    to the guaranteed radius-c/5 construction on the perpendicular diameter.
    """

    def dist(p: Point, q: Point) -> float:
        return math.hypot(p.x - q.x, p.y - q.y)

    tangent_ok = (
        abs(dist(d1.center, d2.center) - (d1.radius + d2.radius)) <= TANGENCY_TOL
        and abs(dist(c.center, d1.center) - (c.radius - d1.radius)) <= TANGENCY_TOL
        and abs(dist(c.center, d2.center) - (c.radius - d2.radius)) <= TANGENCY_TOL
    )
    if not tangent_ok:
        return _recursion_fallback(c, d1, d2)

    k0 = -1.0 / c.radius
    k1 = 1.0 / d1.radius
    k2 = 1.0 / d2.radius
    disc = k0 * k1 + k1 * k2 + k2 * k0
    if disc < 0.0:
        if disc < -CLAMP_SLACK:
            return _recursion_fallback(c, d1, d2)
        disc = 0.0
    k3 = k0 + k1 + k2 + 2.0 * math.sqrt(disc)
    if k3 <= 0.0:
        return _recursion_fallback(c, d1, d2)
    r3 = 1.0 / k3

    candidates = _circle_circle_intersections(
        c.center, c.radius - r3, d1.center, d1.radius + r3
    )
    best = None
    best_res = math.inf
    for p in candidates:
        res = abs(dist(p, d2.center) - (d2.radius + r3))
        if res < best_res - TANGENCY_TOL:
            best, best_res = p, res
        elif abs(res - best_res) <= TANGENCY_TOL and best is not None:
            # Symmetric tie: prefer greater y, then greater x (deterministic).
            if (p.y, p.x) > (best.y, best.x):
                best = p
    if best is None or best_res > TANGENCY_TOL:
        return _recursion_fallback(c, d1, d2)
    return ContainerDisk(best, r3)
